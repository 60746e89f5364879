#include "qfr/spectra/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qfr/common/error.hpp"
#include "qfr/common/units.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/la/eig.hpp"
#include "qfr/obs/session.hpp"

namespace qfr::spectra {

LanczosResult lanczos(const MatVec& op, std::span<const double> start,
                      std::size_t n, const LanczosOptions& options) {
  QFR_REQUIRE(start.size() == n, "start vector size mismatch");
  QFR_REQUIRE(options.steps >= 1, "need at least one Lanczos step");

  // A non-finite seed (one NaN dalpha row from a corrupted fragment) would
  // silently poison every alpha/beta and produce a NaN spectrum; fail
  // loudly at the door instead.
  for (const double v : start)
    if (!std::isfinite(v))
      QFR_NUMERIC_FAIL("Lanczos start vector contains non-finite entries");

  LanczosResult res;
  res.start_norm = la::nrm2(start);
  QFR_REQUIRE(res.start_norm > 0.0, "Lanczos start vector is zero");

  const int k = std::min<std::size_t>(options.steps, n);
  std::vector<la::Vector> basis;  // kept for reorthogonalization
  basis.reserve(k);

  la::Vector q(start.begin(), start.end());
  la::scal(1.0 / res.start_norm, q);
  basis.push_back(q);

  la::Vector w(n, 0.0);
  double beta_prev = 0.0;

  // Simon's estimates of the basis inner products: omega[i] ~ q_j . q_i
  // and omega_prev[i] ~ q_{j-1} . q_i, with omega[j] = 1. eps1 is the
  // rounding level of one step (a matvec sums ~n products).
  const double eps = std::numeric_limits<double>::epsilon();
  const double eps1 = eps * std::sqrt(static_cast<double>(n));
  const double threshold = std::sqrt(eps);
  std::vector<double> omega{1.0}, omega_prev, omega_next;
  bool reorthogonalize_next = false;

  for (int j = 0; j < k; ++j) {
    op(basis.back(), w);
    if (j > 0) la::axpy(-beta_prev, basis[j - 1], w);
    const double alpha = la::dot(basis.back(), w);
    if (!std::isfinite(alpha))
      QFR_NUMERIC_FAIL("Lanczos diagonal coefficient alpha["
                       << j << "] is non-finite: the operator produced "
                          "NaN/Inf (corrupted Hessian entries?)");
    la::axpy(-alpha, basis.back(), w);
    res.alpha.push_back(alpha);
    res.steps = j + 1;

    double beta = la::nrm2(w);
    if (!std::isfinite(beta))
      QFR_NUMERIC_FAIL("Lanczos off-diagonal coefficient beta["
                       << j << "] is non-finite: the operator produced "
                          "NaN/Inf (corrupted Hessian entries?)");
    // omega_next[i] ~ q_{j+1} . q_i from the three-term recurrence (Simon
    // 1984), the rounding term taken with the estimate's sign.
    // A breakdown leaves q_{j+1} unbuilt, so its estimate is moot.
    omega_next.assign(j + 2, eps1);
    omega_next[j + 1] = 1.0;
    bool lost = false;
    if (beta >= options.breakdown_tolerance) {
      const std::span<const double> a = res.alpha, b = res.beta;
      for (int i = 0; i < j; ++i) {
        double t = b[i] * omega[i + 1] + (a[i] - alpha) * omega[i] -
                   beta_prev * omega_prev[i];
        if (i > 0) t += b[i - 1] * omega[i - 1];
        t += std::copysign(eps1 * (b[i] + beta), t);
        omega_next[i] = t / beta;
        lost = lost || std::fabs(omega_next[i]) > threshold;
      }
    }
    // A step that lost orthogonality and the step after it get two
    // classical Gram-Schmidt passes against the whole basis: q_{j+2} is
    // built from q_{j+1} and q_j, so both must be clean (Simon).
    if (lost || reorthogonalize_next) {
      for (int pass = 0; pass < 2; ++pass)
        for (const auto& v : basis) la::axpy(-la::dot(v, w), v, w);
      beta = la::nrm2(w);
      std::fill(omega_next.begin(), omega_next.end() - 1, eps1);
      ++res.n_reorthogonalized;
    }
    reorthogonalize_next = lost;

    if (j + 1 == k) {
      res.final_beta = beta;
      break;
    }
    if (beta < options.breakdown_tolerance) {
      res.breakdown = true;  // invariant subspace found: measure is exact
      break;
    }
    res.beta.push_back(beta);
    beta_prev = beta;
    la::Vector next = w;
    la::scal(1.0 / beta, next);
    basis.push_back(std::move(next));
    std::swap(omega_prev, omega);
    std::swap(omega, omega_next);
  }
  if (obs::Session* s = obs::current()) {
    s->metrics().counter("spectra.lanczos.steps").add(res.steps);
    s->metrics()
        .counter("spectra.lanczos.reorthogonalized")
        .add(res.n_reorthogonalized);
  }
  return res;
}

namespace {

SpectralMeasure measure_from_tridiagonal(std::span<const double> diag,
                                         std::span<const double> sub,
                                         double start_norm) {
  const la::EigResult eig = la::eigh_tridiagonal_first_row(diag, sub);
  SpectralMeasure m;
  m.nodes = eig.values;
  m.weights.resize(eig.values.size());
  const double scale = start_norm * start_norm;
  for (std::size_t j = 0; j < eig.values.size(); ++j) {
    const double c = eig.vectors(0, j);
    m.weights[j] = scale * c * c;
  }
  return m;
}

}  // namespace

SpectralMeasure gauss_quadrature(const LanczosResult& lanczos_result) {
  return measure_from_tridiagonal(lanczos_result.alpha, lanczos_result.beta,
                                  lanczos_result.start_norm);
}

SpectralMeasure averaged_gauss_quadrature(const LanczosResult& lr) {
  const std::size_t k = lr.alpha.size();
  if (k < 2 || lr.beta.size() + 1 < k || lr.breakdown ||
      lr.final_beta <= 0.0) {
    // Breakdown or single step: the plain rule is already exact.
    return gauss_quadrature(lr);
  }
  // Spalevic's generalized averaged rule: with T_{l+1} available
  // (l + 1 = k), append the reversed T'_l coupled through beta_{l+1}:
  //   diag = (a_1, ..., a_{l+1}, a_l, ..., a_1)
  //   sub  = (b_1, ..., b_l, b_{l+1}, b_{l-1}, ..., b_1)
  // where b_{l+1} = final_beta. Degree of exactness >= 2l + 2 = 2k,
  // versus 2k - 1 for the plain k-point Gauss rule.
  const std::size_t l = k - 1;
  la::Vector diag(2 * l + 1), sub(2 * l);
  for (std::size_t i = 0; i <= l; ++i) diag[i] = lr.alpha[i];
  for (std::size_t i = 0; i < l; ++i) diag[l + 1 + i] = lr.alpha[l - 1 - i];
  for (std::size_t i = 0; i < l; ++i) sub[i] = lr.beta[i];
  sub[l] = lr.final_beta;
  for (std::size_t i = 1; i < l; ++i) sub[l + i] = lr.beta[l - 1 - i];
  return measure_from_tridiagonal(diag, sub, lr.start_norm);
}

SpectralMeasure exact_measure(const la::Matrix& a,
                              std::span<const double> d) {
  QFR_REQUIRE(a.rows() == a.cols() && d.size() == a.rows(),
              "exact_measure shape mismatch");
  const la::EigResult eig = la::eigh(a);
  SpectralMeasure m;
  m.nodes = eig.values;
  m.weights.resize(eig.values.size());
  for (std::size_t j = 0; j < eig.values.size(); ++j) {
    double c = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) c += d[i] * eig.vectors(i, j);
    m.weights[j] = c * c;
  }
  return m;
}

la::Vector broaden_to_wavenumbers(const SpectralMeasure& measure,
                                  std::span<const double> omega_cm,
                                  double sigma_cm) {
  QFR_REQUIRE(sigma_cm > 0.0, "smearing width must be positive");
  la::Vector out(omega_cm.size(), 0.0);
  const double norm = 1.0 / (std::sqrt(2.0 * units::kPi) * sigma_cm);
  for (std::size_t j = 0; j < measure.nodes.size(); ++j) {
    const double lambda = measure.nodes[j];
    const double w_cm =
        std::sqrt(std::max(lambda, 0.0)) * units::kAuFrequencyToCm;
    const double weight = measure.weights[j];
    if (weight == 0.0) continue;
    for (std::size_t i = 0; i < omega_cm.size(); ++i) {
      const double t = (omega_cm[i] - w_cm) / sigma_cm;
      if (std::fabs(t) > 8.0) continue;
      out[i] += weight * norm * std::exp(-0.5 * t * t);
    }
  }
  return out;
}

}  // namespace qfr::spectra
