#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string_view>

namespace qfr::common {

/// Append-only CRC record log: the one on-disk layout shared by the
/// incremental fragment checkpoint and the persistent result-cache store.
///
///   header: [magic u64][version u64]
///   frame:  [body_len u64][body][crc32(body) u64]
///
/// The CRC covers the whole body, so damage anywhere in a record —
/// including the id or key its owner puts at the front of the body — is
/// detected; the length makes a damaged frame skippable. A frame written
/// whole and then cut short (a run killed mid-write) is "torn" and ends
/// the scan. Integers are host-endian.
inline constexpr std::uint64_t kLogHeaderBytes = 16;
inline constexpr std::uint64_t kFramePrefixBytes = 8;  ///< body_len
inline constexpr std::uint64_t kFrameSuffixBytes = 8;  ///< crc32(body)

/// What one log holds: its magic number, the one version this build
/// reads and writes, and a human name for error messages.
struct LogFormat {
  std::uint64_t magic = 0;
  std::uint64_t version = 0;
  const char* name = "";
};

/// Raw host-endian u64 stream helpers. get_u64 returns false (without
/// throwing) when the stream ends first.
void put_u64(std::ostream& os, std::uint64_t v);
bool get_u64(std::istream& is, std::uint64_t* v);

void write_log_header(std::ostream& os, const LogFormat& format);

/// Read and check a log header. Throws InvalidArgument naming the file
/// kind when the magic is wrong or the header is cut short, and naming
/// the found and expected versions when the version differs.
void read_log_header(std::istream& is, const LogFormat& format);

/// Write one frame around `body`.
void write_frame(std::ostream& os, std::string_view body);

enum class FrameStatus {
  kOk,       ///< CRC verified
  kCorrupt,  ///< complete frame whose CRC does not match; skipped
};

struct LogScan {
  /// Offset just past the last complete frame (ok or corrupt): where the
  /// next append lands once a torn tail is cut off.
  std::uint64_t end = 0;
  /// The scan stopped at a partial frame or an implausible length field;
  /// nothing after `end` was read.
  bool torn = false;
};

/// Scan the frames of `is` from byte `offset` (a frame boundary, at or
/// past the header) to the end of the stream, calling visit(status, body)
/// for every complete frame. The body view is valid only during the call.
LogScan scan_frames(
    std::istream& is, std::uint64_t offset,
    const std::function<void(FrameStatus, std::string_view)>& visit);

}  // namespace qfr::common
