#include "qfr/runtime/wire.hpp"

#include "qfr/common/byte_codec.hpp"
#include "qfr/common/crc32.hpp"
#include "qfr/frag/checkpoint.hpp"

namespace qfr::runtime::wire {

namespace {

using common::ByteReader;
using common::ByteWriter;

bool known_type(std::uint32_t t) {
  switch (static_cast<MsgType>(t)) {
    case MsgType::kTask:
    case MsgType::kResult:
    case MsgType::kHeartbeat:
    case MsgType::kCancel:
    case MsgType::kRetire:
    case MsgType::kStats: return true;
  }
  return false;
}

constexpr std::size_t kHeaderBytes =
    sizeof(std::uint32_t) * 3 + sizeof(std::uint64_t);

}  // namespace

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kFrame: return "frame";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kBadCrc: return "bad-crc";
  }
  return "unknown";
}

std::string encode_frame_versioned(std::uint32_t version, MsgType type,
                                   std::string_view payload) {
  ByteWriter w;
  w.reserve(kHeaderBytes + payload.size() + sizeof(std::uint32_t));
  w.put_u32(kMagic);
  w.put_u32(version);
  w.put_u32(static_cast<std::uint32_t>(type));
  w.put_u64(payload.size());
  w.put_bytes(payload.data(), payload.size());
  // The CRC signs version + type + len + payload: everything but the magic.
  const std::string_view covered = w.view().substr(sizeof(std::uint32_t));
  w.put_u32(common::crc32(covered.data(), covered.size()));
  return std::move(w).take();
}

std::string encode_frame(MsgType type, std::string_view payload) {
  return encode_frame_versioned(kVersion, type, payload);
}

DecodeStatus FrameReader::next(Frame* out) {
  ByteReader c(buf_);
  std::uint32_t magic = 0, version = 0, type = 0;
  std::uint64_t len = 0;
  if (!c.get_u32(&magic) || !c.get_u32(&version) || !c.get_u32(&type) ||
      !c.get_u64(&len))
    return DecodeStatus::kNeedMore;  // not a whole header yet
  if (magic != kMagic) return DecodeStatus::kBadMagic;
  // Reject a hostile length before buffering gigabytes for it.
  if (len > kMaxPayloadBytes) return DecodeStatus::kOversized;
  if (version != kVersion) return DecodeStatus::kBadVersion;
  if (!known_type(type)) return DecodeStatus::kBadType;
  const std::size_t total = kHeaderBytes + len + sizeof(std::uint32_t);
  if (buf_.size() < total) return DecodeStatus::kNeedMore;

  const std::string_view frame(buf_.data(), total);
  std::uint32_t stored_crc = 0;
  ByteReader(frame.substr(total - sizeof(std::uint32_t))).get_u32(&stored_crc);
  // CRC covers version..payload (everything between magic and crc).
  const std::string_view covered =
      frame.substr(sizeof(std::uint32_t), total - 2 * sizeof(std::uint32_t));
  if (common::crc32(covered.data(), covered.size()) != stored_crc)
    return DecodeStatus::kBadCrc;

  out->type = static_cast<MsgType>(type);
  out->payload.assign(frame.substr(kHeaderBytes, len));
  buf_.erase(0, total);
  return DecodeStatus::kFrame;
}

// --- message payloads -----------------------------------------------------

// The item list is an array of TaskItems: four u64 fields each.
static_assert(sizeof(TaskItem) == 4 * sizeof(std::uint64_t));

std::string encode_task(const TaskMsg& m) {
  ByteWriter w;
  w.put_u64(m.items.size());
  w.put_array(m.items);
  return std::move(w).take();
}

bool decode_task(std::string_view payload, TaskMsg* m) {
  ByteReader c(payload);
  std::uint64_t n = 0;
  // get_array bounds the count by the bytes that arrived: no huge alloc.
  return c.get_u64(&n) && c.get_array(n, &m->items) && c.at_end();
}

std::string encode_result(const ResultMsg& m) {
  ByteWriter w;
  w.put_u64(m.fragment_id);
  w.put_u64(m.epoch);
  w.put_u64(m.level);
  w.put_f64(m.seconds);
  w.put_u64(m.result.cache_hit ? 1 : 0);
  w.put_u64(static_cast<std::uint64_t>(m.result.reuse_tier));
  // cache_hit/reuse_tier and phase_times ride beside the embedded record:
  // the checkpoint record format deliberately carries neither (provenance,
  // not results), but thread-mode leaders deliver both, so the wire must
  // too for exact parity.
  w.put_f64(m.result.phase_times.p1);
  w.put_f64(m.result.phase_times.n1);
  w.put_f64(m.result.phase_times.v1);
  w.put_f64(m.result.phase_times.h1);
  w.put_prefixed(
      [&](ByteWriter& record) { frag::write_result_record(record, m.result); });
  w.put_u64(static_cast<std::uint64_t>(m.reason));
  w.put_string(m.error);
  return std::move(w).take();
}

bool decode_result(std::string_view payload, ResultMsg* m) {
  ByteReader c(payload);
  std::uint64_t hit = 0;
  std::uint64_t tier = 0;
  dfpt::PhaseTimes phases;
  ByteReader record;
  std::uint64_t reason = 0;
  if (!c.get_u64(&m->fragment_id) || !c.get_u64(&m->epoch) ||
      !c.get_u64(&m->level) || !c.get_f64(&m->seconds) || !c.get_u64(&hit) ||
      hit > 1 || !c.get_u64(&tier) ||
      tier > static_cast<std::uint64_t>(engine::ReuseTier::kRefresh) ||
      !c.get_f64(&phases.p1) || !c.get_f64(&phases.n1) ||
      !c.get_f64(&phases.v1) || !c.get_f64(&phases.h1) ||
      !c.get_prefixed(&record) || !c.get_u64(&reason) ||
      reason > static_cast<std::uint64_t>(FailureReason::kCancelled) ||
      !c.get_string(&m->error) || !c.at_end())
    return false;
  m->reason = static_cast<FailureReason>(reason);
  // read_result_record checks every matrix size against the record's bytes
  // and requires the sentinel, so a damaged embedded record is a clean false.
  if (!frag::read_result_record(record, &m->result)) return false;
  m->result.cache_hit = hit == 1;
  m->result.reuse_tier = static_cast<engine::ReuseTier>(tier);
  m->result.phase_times = phases;
  return true;
}

std::string encode_cancel(const CancelMsg& m) {
  ByteWriter w;
  w.put_u64(m.fragment_id);
  w.put_u64(m.epoch);
  return std::move(w).take();
}

bool decode_cancel(std::string_view payload, CancelMsg* m) {
  ByteReader c(payload);
  return c.get_u64(&m->fragment_id) && c.get_u64(&m->epoch) && c.at_end();
}

std::string encode_stats(const StatsMsg& m) {
  ByteWriter w;
  w.put_f64(m.busy_seconds);
  w.put_u64(m.counters.size());
  for (const auto& [name, value] : m.counters) {
    w.put_string(name);
    w.put_u64(static_cast<std::uint64_t>(value));
  }
  return std::move(w).take();
}

bool decode_stats(std::string_view payload, StatsMsg* m) {
  ByteReader c(payload);
  std::uint64_t n = 0;
  if (!c.get_f64(&m->busy_seconds) || !c.get_u64(&n)) return false;
  // Each counter needs at least a length and a value on the wire.
  if (n > c.remaining() / (2 * sizeof(std::uint64_t))) return false;
  m->counters.clear();
  m->counters.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    std::uint64_t value = 0;
    if (!c.get_string(&name) || !c.get_u64(&value)) return false;
    m->counters.emplace_back(std::move(name),
                             static_cast<std::int64_t>(value));
  }
  return c.at_end();
}

}  // namespace qfr::runtime::wire
