#include "qfr/common/record_log.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "qfr/common/crc32.hpp"
#include "qfr/common/error.hpp"

namespace qfr::common {

namespace {

// Bodies are read in chunks of at most this size, so a corrupt length
// field costs at most the bytes actually left in the stream, never an
// allocation of the size it claims.
constexpr std::uint64_t kReadChunkBytes = 1ull << 20;

/// Read exactly `n` bytes into `body`; false when the stream ends first.
bool read_body(std::istream& is, std::uint64_t n, std::string* body) {
  body->clear();
  while (body->size() < n) {
    const std::size_t at = body->size();
    const std::size_t chunk =
        static_cast<std::size_t>(std::min(n - at, kReadChunkBytes));
    body->resize(at + chunk);
    is.read(body->data() + at, static_cast<std::streamsize>(chunk));
    if (static_cast<std::size_t>(is.gcount()) != chunk) return false;
  }
  return true;
}

}  // namespace

void put_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool get_u64(std::istream& is, std::uint64_t* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return is.good();
}

void write_log_header(std::ostream& os, const LogFormat& format) {
  put_u64(os, format.magic);
  put_u64(os, format.version);
}

void read_log_header(std::istream& is, const LogFormat& format) {
  std::uint64_t magic = 0, version = 0;
  QFR_REQUIRE(get_u64(is, &magic) && magic == format.magic,
              "not a QF-RAMAN " << format.name << " stream");
  QFR_REQUIRE(get_u64(is, &version),
              "truncated " << format.name << " header");
  QFR_REQUIRE(version == format.version,
              format.name << " version mismatch (got " << version
                          << ", expected " << format.version << ")");
}

void write_frame(std::ostream& os, std::string_view body) {
  put_u64(os, static_cast<std::uint64_t>(body.size()));
  os.write(body.data(), static_cast<std::streamsize>(body.size()));
  put_u64(os, crc32(body.data(), body.size()));
}

LogScan scan_frames(
    std::istream& is, std::uint64_t offset,
    const std::function<void(FrameStatus, std::string_view)>& visit) {
  LogScan scan;
  scan.end = offset;
  is.seekg(static_cast<std::streamoff>(offset));
  std::string body;
  for (;;) {
    std::uint64_t len = 0, stored_crc = 0;
    if (!get_u64(is, &len)) {
      // Zero bytes left is the clean end; a partial length field is the
      // frame in flight when the writer died.
      scan.torn = is.gcount() != 0;
      break;
    }
    if (!read_body(is, len, &body) || !get_u64(is, &stored_crc)) {
      // Torn tail, or a corrupt length that runs past the end: the next
      // frame boundary is unknown, so the scan stops here.
      scan.torn = true;
      break;
    }
    scan.end += kFramePrefixBytes + len + kFrameSuffixBytes;
    visit(crc32(body.data(), body.size()) == stored_crc ? FrameStatus::kOk
                                                        : FrameStatus::kCorrupt,
          body);
  }
  return scan;
}

}  // namespace qfr::common
