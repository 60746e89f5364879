#pragma once

#include <array>
#include <cstddef>

#include "qfr/geom/vec3.hpp"

namespace qfr::ints {

/// Maximum angular momentum supported by the Hermite tables (p shells; the
/// kinetic-energy relation internally needs l+2).
inline constexpr int kMaxAm = 3;

/// Hermite expansion coefficients E_t^{ij} for one Cartesian direction
/// (McMurchie-Davidson): the product of two 1D Gaussians expands as
/// G_i(a, x-Ax) G_j(b, x-Bx) = sum_t E_t^{ij} Lambda_t(p, x-Px).
///
/// Indexed as e(i, j, t); entries with t > i + j are zero. The table is a
/// fixed-size member, so constructing one never touches the heap.
class Hermite1D {
 public:
  /// a, b: exponents; ax, bx: 1D centers.
  Hermite1D(double a, double b, double ax, double bx, int max_i, int max_j);

  double operator()(int i, int j, int t) const {
    if (t < 0 || t > i + j) return 0.0;
    return table_[idx(i, j, t)];
  }

  double p() const { return p_; }       ///< combined exponent a + b
  double center() const { return px_; } ///< combined center P

 private:
  static constexpr std::size_t kDim = kMaxAm + 1;
  static constexpr std::size_t kTDim = 2 * kMaxAm + 1;
  static std::size_t idx(int i, int j, int t) {
    return (static_cast<std::size_t>(i) * kDim + static_cast<std::size_t>(j)) *
               kTDim +
           static_cast<std::size_t>(t);
  }
  double p_ = 0.0;
  double px_ = 0.0;
  // Only entries with t <= i + j within the constructed range are written.
  std::array<double, kDim * kDim * kTDim> table_;
};

/// Hermite Coulomb repulsion tensor R_{tuv} = R^0_{tuv}(p, R_PC), built by
/// the standard auxiliary recursion over R^n. Entries cover
/// 0 <= t+u+v <= t_max, with t_max at most kMaxOrder (an electron-repulsion
/// quartet of kMaxAm shells).
///
/// The table is a fixed-size member laid out with constant strides, so a
/// caller can precompute flat offsets with index(): index(t, u, v) +
/// index(t', u', v') == index(t + t', u + u', v + v'). The auxiliary R^n
/// tensor and the Boys values live in per-thread scratch that is reused
/// across constructions.
class HermiteR {
 public:
  static constexpr int kMaxOrder = 4 * kMaxAm;

  HermiteR(double p, const geom::Vec3& pc, int t_max);

  static constexpr std::size_t index(int t, int u, int v) {
    return (static_cast<std::size_t>(t) * kStride +
            static_cast<std::size_t>(u)) *
               kStride +
           static_cast<std::size_t>(v);
  }

  double operator()(int t, int u, int v) const {
    return table_[index(t, u, v)];
  }

  /// Entry at a flat offset built from index().
  double at(std::size_t flat) const { return table_[flat]; }

 private:
  static constexpr std::size_t kStride = kMaxOrder + 1;
  // Only entries with t + u + v <= t_max are written.
  std::array<double, kStride * kStride * kStride> table_;
};

}  // namespace qfr::ints
