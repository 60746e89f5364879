#include "qfr/common/record_log.hpp"

#include <istream>
#include <string>

#include "qfr/common/error.hpp"

namespace qfr::common {

namespace {

/// One u64 field; false (gcount() tells how much of it there was) when
/// the stream ends first.
bool read_u64(std::istream& is, std::uint64_t* v) {
  char raw[sizeof(*v)];
  return is.read(raw, sizeof(raw)) &&
         ByteReader({raw, sizeof(raw)}).get_u64(v);
}

}  // namespace

void put_log_header(ByteWriter& w, const LogFormat& format) {
  w.put_u64(format.magic);
  w.put_u64(format.version);
}

void read_log_header(std::istream& is, const LogFormat& format) {
  std::uint64_t magic = 0, version = 0;
  QFR_REQUIRE(read_u64(is, &magic) && magic == format.magic,
              "not a QF-RAMAN " << format.name << " stream");
  QFR_REQUIRE(read_u64(is, &version),
              "truncated " << format.name << " header");
  QFR_REQUIRE(version == format.version,
              format.name << " version mismatch (got " << version
                          << ", expected " << format.version << ")");
}

LogScan scan_frames(
    std::istream& is, std::uint64_t offset,
    const std::function<void(FrameStatus, std::string_view)>& visit) {
  LogScan scan;
  scan.end = offset;
  is.seekg(0, std::ios::end);
  const std::uint64_t size = static_cast<std::uint64_t>(is.tellg());
  is.seekg(static_cast<std::streamoff>(offset));
  std::string body;
  for (;;) {
    std::uint64_t len = 0, stored_crc = 0;
    if (!read_u64(is, &len)) {
      // Zero bytes left is the clean end; a partial length field is the
      // frame in flight when the writer died.
      scan.torn = is.gcount() != 0;
      break;
    }
    // The length is checked against the bytes left before the body is
    // allocated. A torn tail, or a corrupt length that runs past the end,
    // hides the next frame boundary, so the scan stops here.
    const std::uint64_t at = scan.end + kFramePrefixBytes;
    const std::uint64_t left = size > at ? size - at : 0;
    if (len > left || left - len < kFrameSuffixBytes) {
      scan.torn = true;
      break;
    }
    body.resize(len);
    if (!is.read(body.data(), static_cast<std::streamsize>(len)) ||
        !read_u64(is, &stored_crc)) {
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
