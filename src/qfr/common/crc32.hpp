#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace qfr::common {

/// CRC32 (IEEE 802.3, poly 0xEDB88320), table-driven — small and
/// dependency-free; detects every single-bit flip in a record payload.
/// Shared by the on-disk record log (checkpoint and result-cache store)
/// and the leader wire protocol, so both carry the same integrity check.
inline const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  return table;
}

inline std::uint32_t crc32(const char* data, std::size_t n) {
  const auto& table = crc32_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    c = table[(c ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace qfr::common
