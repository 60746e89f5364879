#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "qfr/engine/fragment_engine.hpp"
#include "qfr/runtime/sweep_scheduler.hpp"

namespace qfr::runtime::wire {

/// The master <-> leader-process protocol: length-framed, CRC32-protected
/// messages carrying the checkpoint's result record, over a socketpair.
/// Every frame is
///
///   [magic u32][version u32][type u32][payload_len u64]
///   [payload bytes][crc32 u32]
///
/// with the CRC taken over version + type + length + payload, so a bit
/// flip anywhere after the magic is detected. The decoder never trusts a
/// length or count field: oversized frames, truncated payloads, unknown
/// types, and version skew all surface as typed DecodeStatus values (a
/// malformed peer can terminate the connection, never corrupt the
/// master). Frames and payloads go through common::ByteWriter/ByteReader;
/// doubles are raw IEEE-754 bytes, so results cross the wire bitwise exactly.

inline constexpr std::uint32_t kMagic = 0x57524651u;  // "QFRW"
/// v2 added the reuse_tier provenance field to kResult; v3 folded the
/// failure and cancelled outcomes into kResult and dropped the hello.
inline constexpr std::uint32_t kVersion = 3;
/// A fragment result is a few dense matrices; beyond this the length
/// field itself is corrupt.
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 32;

/// Frame types. Values are wire ABI: append only, never renumber. The
/// retired numbers 1 (hello), 4 (failure) and 5 (cancelled) are never
/// reused and decode as kBadType.
enum class MsgType : std::uint32_t {
  kTask = 2,       ///< master -> child: leased fragment work
  kResult = 3,     ///< child -> master: how one fragment attempt ended
  kHeartbeat = 6,  ///< child -> master: liveness
  kCancel = 7,     ///< master -> child: revoke one in-flight fragment
  kRetire = 8,     ///< master -> child: drain and exit cleanly
  kStats = 9,      ///< child -> master: end-of-life accounting rollup
};

/// Typed decoder verdicts — the complete failure model of the framing
/// layer. Everything except kFrame / kNeedMore is a fatal connection
/// error for a real transport (and a first-class expected outcome for the
/// fuzzer).
enum class DecodeStatus {
  kFrame,       ///< a whole valid frame was extracted
  kNeedMore,    ///< the buffer holds a prefix of a frame; read more bytes
  kBadMagic,    ///< stream out of sync / not a QFRW peer
  kBadVersion,  ///< version-skewed peer (old master, new child, ...)
  kBadType,     ///< unknown frame type
  kOversized,   ///< length field beyond kMaxPayloadBytes
  kBadCrc,      ///< framing intact, content damaged in flight
};

const char* to_string(DecodeStatus status);

/// One decoded frame: type plus raw payload (decode_* parses it).
struct Frame {
  MsgType type = MsgType::kHeartbeat;
  std::string payload;
};

/// Encode one frame (the only writer entry point).
std::string encode_frame(MsgType type, std::string_view payload);
/// Version-skew variant for tests: stamps an arbitrary version number.
std::string encode_frame_versioned(std::uint32_t version, MsgType type,
                                   std::string_view payload);

/// Incremental frame extractor over a receive buffer. Feed bytes with
/// append(); pull frames with next() until it returns kNeedMore. Fatal
/// statuses leave the buffer untouched so the error is reproducible.
class FrameReader {
 public:
  void append(std::string_view bytes) { buf_.append(bytes); }

  DecodeStatus next(Frame* out);

 private:
  std::string buf_;
};

// --- message payloads -----------------------------------------------------

/// One leased fragment of a task. The fragment geometry itself is NOT on
/// the wire: leader processes are forked from the master, so the fragment
/// span rides the fork — the wire carries identity (id + lease epoch),
/// the engine level to run at, and the atom count as a cheap cross-check
/// against id confusion.
struct TaskItem {
  std::uint64_t fragment_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t level = 0;
  std::uint64_t n_atoms = 0;
};

struct TaskMsg {
  std::vector<TaskItem> items;
};

/// How one fragment attempt ended (runtime::Attempt) under its lease.
/// `result` is meaningful when `reason` is kNone; otherwise it is empty,
/// and `error` carries the failure's message. result.cache_hit and
/// result.reuse_tier travel beside the result record, which carries
/// neither.
struct ResultMsg {
  std::uint64_t fragment_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t level = 0;
  double seconds = 0.0;
  engine::FragmentResult result;
  FailureReason reason = FailureReason::kNone;
  std::string error;
};

struct CancelMsg {
  std::uint64_t fragment_id = 0;
  std::uint64_t epoch = 0;
};

/// End-of-life rollup of one leader-process incarnation: its busy
/// seconds plus a counter snapshot of the child's private obs session,
/// merged into the master's registry so one RunReport covers every
/// process. The proxy books tasks and fragments itself, as each task's
/// last outcome arrives.
struct StatsMsg {
  double busy_seconds = 0.0;
  std::vector<std::pair<std::string, std::int64_t>> counters;
};

std::string encode_task(const TaskMsg& m);
bool decode_task(std::string_view payload, TaskMsg* m);

std::string encode_result(const ResultMsg& m);
bool decode_result(std::string_view payload, ResultMsg* m);

std::string encode_cancel(const CancelMsg& m);
bool decode_cancel(std::string_view payload, CancelMsg* m);

std::string encode_stats(const StatsMsg& m);
bool decode_stats(std::string_view payload, StatsMsg* m);

}  // namespace qfr::runtime::wire
