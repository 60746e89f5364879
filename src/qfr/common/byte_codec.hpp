#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace qfr::common {

/// The one field layout of every QF-RAMAN record: the fragment checkpoint,
/// the result-cache store and the leader wire all write their bodies with
/// ByteWriter and parse them with ByteReader. Integers are fixed-width
/// host-endian, doubles raw IEEE-754 bytes (results round-trip bitwise), a
/// string is [len u64][bytes], an array its elements back to back (the
/// count travels separately), a matrix [rows u64][cols u64][row-major f64].
class ByteWriter {
 public:
  void put_u32(std::uint32_t v) { put_bytes(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put_bytes(&v, sizeof(v)); }
  void put_f64(double v) { put_bytes(&v, sizeof(v)); }
  void put_bytes(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  void put_string(std::string_view s) {
    put_u64(s.size());
    put_bytes(s.data(), s.size());
  }
  template <class T>
  void put_array(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(v.data(), v.size() * sizeof(T));
  }
  template <class M>  // la::Matrix, or any rows()/cols()/data()/size()
  void put_matrix(const M& m) {
    put_u64(m.rows());
    put_u64(m.cols());
    put_bytes(m.data(), m.size() * sizeof(double));
  }
  /// [len u64][what body(*this) writes]: the bytes are written in place
  /// and the length patched in afterwards.
  template <class Body>
  void put_prefixed(Body&& body) {
    const std::size_t at = size();
    put_u64(0);
    body(*this);
    const std::uint64_t len = size() - at - sizeof(len);
    std::memcpy(out_.data() + at, &len, sizeof(len));
  }

  void reserve(std::size_t n) { out_.reserve(n); }
  void clear() { out_.clear(); }
  std::size_t size() const { return out_.size(); }
  std::string_view view() const { return out_; }
  std::string take() && { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounded reader over a byte view. Every length, count and matrix size is
/// checked against the bytes left before anything is allocated or copied,
/// so a truncated or hostile record is a clean `false`, never an
/// out-of-bounds read or an allocation of the size it claims. After a
/// `false` the position is unspecified.
class ByteReader {
 public:
  ByteReader() = default;
  explicit ByteReader(std::string_view bytes) : rest_(bytes) {}

  bool get_u32(std::uint32_t* v) { return get_bytes(v, sizeof(*v)); }
  bool get_u64(std::uint64_t* v) { return get_bytes(v, sizeof(*v)); }
  bool get_f64(double* v) { return get_bytes(v, sizeof(*v)); }
  bool get_bytes(void* dst, std::size_t n) {
    if (n > rest_.size()) return false;
    if (n != 0) std::memcpy(dst, rest_.data(), n);  // empty: maybe null
    rest_.remove_prefix(n);
    return true;
  }
  /// [len u64][bytes], read as a sub-reader over exactly those bytes.
  bool get_prefixed(ByteReader* sub) {
    std::uint64_t len = 0;
    if (!get_u64(&len) || len > rest_.size()) return false;
    *sub = ByteReader(rest_.substr(0, len));
    rest_.remove_prefix(len);
    return true;
  }
  bool get_string(std::string* s) {
    ByteReader sub;
    if (!get_prefixed(&sub)) return false;
    s->assign(sub.rest_);
    return true;
  }
  template <class T>
  bool get_array(std::uint64_t count, std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > rest_.size() / sizeof(T)) return false;
    v->resize(count);
    return get_bytes(v->data(), count * sizeof(T));
  }
  template <class M>  // la::Matrix, or any resize_zero(rows, cols)/data()
  bool get_matrix(M* m) {
    constexpr std::uint64_t kMaxDim = 1u << 20;  // no fragment is that big
    std::uint64_t rows = 0, cols = 0;
    if (!get_u64(&rows) || !get_u64(&cols) || rows > kMaxDim ||
        cols > kMaxDim || rows * cols > rest_.size() / sizeof(double))
      return false;
    m->resize_zero(rows, cols);
    return get_bytes(m->data(), rows * cols * sizeof(double));
  }

  std::size_t remaining() const { return rest_.size(); }
  bool at_end() const { return rest_.empty(); }

 private:
  std::string_view rest_;
};

}  // namespace qfr::common
