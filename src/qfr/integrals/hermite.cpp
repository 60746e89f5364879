#include "qfr/integrals/hermite.hpp"

#include <cmath>
#include <span>
#include <vector>

#include "qfr/common/error.hpp"
#include "qfr/integrals/boys.hpp"

namespace qfr::ints {

Hermite1D::Hermite1D(double a, double b, double ax, double bx, int max_i,
                     int max_j)
    : p_(a + b) {
  QFR_ASSERT(max_i >= 0 && max_j >= 0 && max_i <= kMaxAm && max_j <= kMaxAm,
             "Hermite1D angular momentum out of range");
  px_ = (a * ax + b * bx) / p_;
  const double mu = a * b / p_;
  const double xab = ax - bx;
  const double xpa = px_ - ax;
  const double xpb = px_ - bx;

  auto at = [&](int i, int j, int t) -> double& {
    return table_[idx(i, j, t)];
  };
  at(0, 0, 0) = std::exp(-mu * xab * xab);

  // Build up i with j = 0:
  // E_t^{i+1,0} = 1/(2p) E_{t-1}^{i0} + X_PA E_t^{i0} + (t+1) E_{t+1}^{i0}
  for (int i = 0; i < max_i; ++i)
    for (int t = 0; t <= i + 1; ++t) {
      double v = 0.0;
      if (t - 1 >= 0 && t - 1 <= i) v += at(i, 0, t - 1) / (2.0 * p_);
      if (t <= i) v += xpa * at(i, 0, t);
      if (t + 1 <= i) v += (t + 1.0) * at(i, 0, t + 1);
      at(i + 1, 0, t) = v;
    }

  // Then build up j for every i:
  // E_t^{i,j+1} = 1/(2p) E_{t-1}^{ij} + X_PB E_t^{ij} + (t+1) E_{t+1}^{ij}
  for (int i = 0; i <= max_i; ++i)
    for (int j = 0; j < max_j; ++j)
      for (int t = 0; t <= i + j + 1; ++t) {
        double v = 0.0;
        if (t - 1 >= 0 && t - 1 <= i + j) v += at(i, j, t - 1) / (2.0 * p_);
        if (t <= i + j) v += xpb * at(i, j, t);
        if (t + 1 <= i + j) v += (t + 1.0) * at(i, j, t + 1);
        at(i, j + 1, t) = v;
      }
}

namespace {

// Per-thread workspace of HermiteR: the auxiliary R^n tensors for n >= 1
// and the Boys values. Grown on first use and reused afterwards, so a
// HermiteR construction allocates nothing once a thread has warmed up.
struct HermiteRScratch {
  std::vector<double> aux;
  std::array<double, HermiteR::kMaxOrder + 1> boys{};
};

HermiteRScratch& hermite_r_scratch() {
  thread_local HermiteRScratch scratch;
  return scratch;
}

}  // namespace

HermiteR::HermiteR(double p, const geom::Vec3& pc, int t_max) {
  QFR_ASSERT(t_max >= 0 && t_max <= kMaxOrder,
             "HermiteR order " << t_max << " outside [0, " << kMaxOrder
                               << "] (4 * kMaxAm)");
  HermiteRScratch& scratch = hermite_r_scratch();
  const double r2 = pc.norm2();
  // Auxiliary tensors R^n_{tuv}; start from Boys values and lower n.
  std::span<double> fm(scratch.boys.data(),
                       static_cast<std::size_t>(t_max) + 1);
  boys(t_max, p * r2, fm);

  // Level n >= 1 of aux[n][t][u][v] lives in the scratch tensor; level 0
  // is written straight into table_.
  const auto n1 = static_cast<std::size_t>(t_max + 1);
  if (scratch.aux.size() < n1 * n1 * n1 * n1)
    scratch.aux.resize(n1 * n1 * n1 * n1);
  double* const aux = scratch.aux.data();
  auto level = [&](int n) -> double* {
    return n == 0 ? table_.data() : aux + n * n1 * n1 * n1;
  };
  auto tu_strides = [&](int n) -> std::array<std::size_t, 2> {
    if (n == 0) return {kStride * kStride, kStride};
    return {n1 * n1, n1};
  };

  double pref = 1.0;
  for (int n = 0; n <= t_max; ++n) {
    level(n)[0] = pref * fm[n];
    pref *= -2.0 * p;
  }

  // R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + X_PC R^{n+1}_{t,u,v} etc.
  for (int n = t_max - 1; n >= 0; --n) {
    double* const dst = level(n);
    const auto [dt, du] = tu_strides(n);
    const double* const src = level(n + 1);
    auto at = [&](int t, int u, int v) {
      return src[(static_cast<std::size_t>(t) * n1 + u) * n1 + v];
    };
    const int span = t_max - n;
    for (int t = 0; t <= span; ++t)
      for (int u = 0; u + t <= span; ++u)
        for (int v = 0; v + t + u <= span; ++v) {
          if (t + u + v == 0) continue;
          double val = 0.0;
          if (t > 0) {
            val = pc.x * at(t - 1, u, v);
            if (t > 1) val += (t - 1.0) * at(t - 2, u, v);
          } else if (u > 0) {
            val = pc.y * at(t, u - 1, v);
            if (u > 1) val += (u - 1.0) * at(t, u - 2, v);
          } else {
            val = pc.z * at(t, u, v - 1);
            if (v > 1) val += (v - 1.0) * at(t, u, v - 2);
          }
          dst[t * dt + u * du + v] = val;
        }
  }
}

}  // namespace qfr::ints
