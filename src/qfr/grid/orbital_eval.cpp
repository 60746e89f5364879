#include "qfr/grid/orbital_eval.hpp"

#include <cmath>

#include "qfr/common/error.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/la/kernels.hpp"

namespace qfr::grid {

namespace {

// Cartesian monomial x^i with the convention 0^0 = 1.
double ipow(double x, int n) {
  double r = 1.0;
  for (int k = 0; k < n; ++k) r *= x;
  return r;
}

}  // namespace

BasisBatch evaluate_basis(const basis::BasisSet& bs,
                          std::span<const GridPoint> points,
                          bool with_gradient) {
  const std::size_t np = points.size();
  const std::size_t nbf = bs.n_functions();
  BasisBatch batch;
  batch.chi.resize_zero(np, nbf);
  batch.has_gradient = with_gradient;
  if (with_gradient)
    for (auto& g : batch.grad) g.resize_zero(np, nbf);

  for (const auto& sh : bs.shells()) {
    const auto powers = basis::cartesian_powers(sh.l);
    for (std::size_t p = 0; p < np; ++p) {
      const geom::Vec3 d = points[p].r - sh.center;
      const double r2 = d.norm2();
      // Radial part and its derivative factor, summed over primitives.
      double rad = 0.0, drad = 0.0;  // drad = d(rad)/d(r^2)
      for (const auto& prim : sh.prims) {
        const double e = prim.coefficient * std::exp(-prim.exponent * r2);
        rad += e;
        drad -= prim.exponent * e;
      }
      if (rad == 0.0 && drad == 0.0) continue;
      for (std::size_t f = 0; f < powers.size(); ++f) {
        const auto& q = powers[f];
        const double mono = ipow(d.x, q.i) * ipow(d.y, q.j) * ipow(d.z, q.k);
        const std::size_t mu = sh.first_bf + f;
        batch.chi(p, mu) = mono * rad;
        if (with_gradient) {
          // d/dx [x^i f(r^2)] = i x^(i-1) f + x^i * 2x * f'.
          const double gx =
              (q.i > 0 ? q.i * ipow(d.x, q.i - 1) * ipow(d.y, q.j) *
                             ipow(d.z, q.k) * rad
                       : 0.0) +
              mono * 2.0 * d.x * drad;
          const double gy =
              (q.j > 0 ? q.j * ipow(d.x, q.i) * ipow(d.y, q.j - 1) *
                             ipow(d.z, q.k) * rad
                       : 0.0) +
              mono * 2.0 * d.y * drad;
          const double gz =
              (q.k > 0 ? q.k * ipow(d.x, q.i) * ipow(d.y, q.j) *
                             ipow(d.z, q.k - 1) * rad
                       : 0.0) +
              mono * 2.0 * d.z * drad;
          batch.grad[0](p, mu) = gx;
          batch.grad[1](p, mu) = gy;
          batch.grad[2](p, mu) = gz;
        }
      }
    }
  }
  return batch;
}

la::Vector density_on_batch(const BasisBatch& batch,
                            const la::Matrix& density) {
  const std::size_t np = batch.chi.rows();
  const std::size_t nbf = batch.chi.cols();
  QFR_REQUIRE(density.rows() == nbf && density.cols() == nbf,
              "density shape mismatch");
  la::Matrix chip(np, nbf);
  la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, batch.chi, density, 0.0,
           chip);
  la::Vector rho(np, 0.0);
  for (std::size_t p = 0; p < np; ++p) {
    double acc = 0.0;
    for (std::size_t mu = 0; mu < nbf; ++mu)
      acc += chip(p, mu) * batch.chi(p, mu);
    rho[p] = acc;
  }
  return rho;
}

namespace {

// Rows of chi scaled by the quadrature weight times the potential value.
la::Matrix scale_by_potential(const BasisBatch& batch,
                              std::span<const GridPoint> points,
                              std::span<const double> v_values) {
  const std::size_t np = batch.chi.rows();
  const std::size_t nbf = batch.chi.cols();
  la::Matrix scaled = batch.chi;
  for (std::size_t p = 0; p < np; ++p) {
    const double wv = points[p].weight * v_values[p];
    for (std::size_t mu = 0; mu < nbf; ++mu) scaled(p, mu) *= wv;
  }
  return scaled;
}

}  // namespace

void accumulate_potential_matrix(const BasisBatch& batch,
                                 std::span<const GridPoint> points,
                                 std::span<const double> v_values,
                                 la::Matrix& v_matrix) {
  const std::size_t np = batch.chi.rows();
  const std::size_t nbf = batch.chi.cols();
  QFR_REQUIRE(points.size() == np && v_values.size() == np,
              "potential batch size mismatch");
  QFR_REQUIRE(v_matrix.rows() == nbf && v_matrix.cols() == nbf,
              "potential matrix shape mismatch");
  // Scale chi rows by w v and contract: V += (w v chi)^T chi. The
  // contribution is symmetric, so the symmetric-output reduction applies.
  const la::Matrix scaled = scale_by_potential(batch, points, v_values);
  la::kernels::execute_task(la::make_gemm_task(
      la::Trans::kYes, la::Trans::kNo, 1.0, scaled, batch.chi, 1.0, v_matrix,
      la::TaskSym::kSymmetricOut));
}

}  // namespace qfr::grid
