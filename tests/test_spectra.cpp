#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "qfr/chem/protein.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/common/units.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/frag/assembly.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/la/eig.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/spectra/lanczos.hpp"
#include "qfr/spectra/raman.hpp"

namespace qfr::spectra {
namespace {

la::Matrix random_symmetric(std::size_t n, Rng& rng) {
  la::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  return m;
}

MatVec dense_op(const la::Matrix& a) {
  return [&a](std::span<const double> x, std::span<double> y) {
    la::gemv(la::Trans::kNo, 1.0, a, x, 0.0, y);
  };
}

// Integrate a function against a spectral measure.
double apply_measure(const SpectralMeasure& m,
                     const std::function<double(double)>& f) {
  double acc = 0.0;
  for (std::size_t i = 0; i < m.nodes.size(); ++i)
    acc += m.weights[i] * f(m.nodes[i]);
  return acc;
}

TEST(Lanczos, ZeroStartVectorThrows) {
  la::Matrix a = la::Matrix::identity(4);
  la::Vector d(4, 0.0);
  LanczosOptions opts;
  EXPECT_THROW(lanczos(dense_op(a), d, 4, opts), InvalidArgument);
}

TEST(Lanczos, NonFiniteStartVectorThrows) {
  la::Matrix a = la::Matrix::identity(4);
  la::Vector d(4, 1.0);
  d[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(lanczos(dense_op(a), d, 4, {}), NumericalError);
}

TEST(Lanczos, NonFiniteOperatorOutputThrowsInsteadOfNanSpectrum) {
  // A corrupted Hessian entry poisons the matvec from step one; the guard
  // must fail loudly instead of returning NaN alpha/beta.
  la::Matrix a = la::Matrix::identity(4);
  a(1, 1) = std::numeric_limits<double>::quiet_NaN();
  la::Vector d(4, 1.0);
  LanczosOptions opts;
  opts.steps = 4;
  EXPECT_THROW(lanczos(dense_op(a), d, 4, opts), NumericalError);
}

TEST(Lanczos, FullRunReproducesExactMeasure) {
  Rng rng(101);
  const std::size_t n = 24;
  const la::Matrix a = random_symmetric(n, rng);
  la::Vector d(n);
  for (auto& v : d) v = rng.uniform(-1.0, 1.0);

  LanczosOptions opts;
  opts.steps = static_cast<int>(n);
  const LanczosResult lr = lanczos(dense_op(a), d, n, opts);
  const SpectralMeasure gauss = gauss_quadrature(lr);
  const SpectralMeasure exact = exact_measure(a, d);

  // Moments of the two measures must agree: d^T A^p d for p = 0..6.
  for (int p = 0; p <= 6; ++p) {
    auto f = [p](double x) { return std::pow(x, p); };
    EXPECT_NEAR(apply_measure(gauss, f), apply_measure(exact, f), 1e-8)
        << "moment " << p;
  }
}

TEST(Lanczos, MomentsExactUpTo2kMinus1) {
  // A k-point Gauss rule integrates polynomials of degree <= 2k-1 exactly.
  Rng rng(103);
  const std::size_t n = 40;
  const la::Matrix a = random_symmetric(n, rng);
  la::Vector d(n);
  for (auto& v : d) v = rng.uniform(-1.0, 1.0);
  const int k = 6;
  LanczosOptions opts;
  opts.steps = k;
  const LanczosResult lr = lanczos(dense_op(a), d, n, opts);
  const SpectralMeasure gauss = gauss_quadrature(lr);
  const SpectralMeasure exact = exact_measure(a, d);
  for (int p = 0; p <= 2 * k - 1; ++p) {
    auto f = [p](double x) { return std::pow(x, p); };
    const double ref = apply_measure(exact, f);
    EXPECT_NEAR(apply_measure(gauss, f), ref,
                1e-9 * std::max(1.0, std::fabs(ref)))
        << "moment " << p;
  }
}

TEST(Lanczos, GagqMoreAccurateThanPlainGauss) {
  // For a smooth non-polynomial f, the averaged rule should beat the plain
  // k-point rule (it is exact through higher degree).
  Rng rng(107);
  const std::size_t n = 60;
  const la::Matrix a = random_symmetric(n, rng);
  la::Vector d(n);
  for (auto& v : d) v = rng.uniform(-1.0, 1.0);
  const SpectralMeasure exact = exact_measure(a, d);
  auto f = [](double x) { return std::exp(-x * x); };
  const double ref = apply_measure(exact, f);

  double err_gauss = 0.0, err_gagq = 0.0;
  for (int k : {4, 6, 8, 10}) {
    LanczosOptions opts;
    opts.steps = k;
    const LanczosResult lr = lanczos(dense_op(a), d, n, opts);
    err_gauss += std::fabs(apply_measure(gauss_quadrature(lr), f) - ref);
    err_gagq +=
        std::fabs(apply_measure(averaged_gauss_quadrature(lr), f) - ref);
  }
  EXPECT_LT(err_gagq, err_gauss);
}

TEST(Lanczos, GagqMomentsExactThroughHigherDegree) {
  // GAGQ from k steps should reproduce moments beyond degree 2k-1.
  Rng rng(109);
  const std::size_t n = 50;
  const la::Matrix a = random_symmetric(n, rng);
  la::Vector d(n);
  for (auto& v : d) v = rng.uniform(-1.0, 1.0);
  const int k = 5;
  LanczosOptions opts;
  opts.steps = k;
  const LanczosResult lr = lanczos(dense_op(a), d, n, opts);
  const SpectralMeasure plain = gauss_quadrature(lr);
  const SpectralMeasure avg = averaged_gauss_quadrature(lr);
  const SpectralMeasure exact = exact_measure(a, d);
  // Degree 2k: plain Gauss has an error; GAGQ should be much closer.
  auto f = [k](double x) { return std::pow(x, 2 * k); };
  const double ref = apply_measure(exact, f);
  const double e_plain = std::fabs(apply_measure(plain, f) - ref);
  const double e_avg = std::fabs(apply_measure(avg, f) - ref);
  EXPECT_LT(e_avg, 0.5 * e_plain + 1e-12);
}

TEST(Lanczos, BreakdownOnInvariantSubspaceGivesExactMeasure) {
  // Start vector = eigenvector: Lanczos terminates after one step and the
  // measure is a single exact delta.
  la::Matrix a{{2.0, 0.0}, {0.0, 5.0}};
  la::Vector d{1.0, 0.0};
  LanczosOptions opts;
  opts.steps = 2;
  const LanczosResult lr = lanczos(dense_op(a), d, 2, opts);
  EXPECT_TRUE(lr.breakdown);
  const SpectralMeasure m = gauss_quadrature(lr);
  ASSERT_EQ(m.nodes.size(), 1u);
  EXPECT_NEAR(m.nodes[0], 2.0, 1e-12);
  EXPECT_NEAR(m.weights[0], 1.0, 1e-12);
}

// The full-reorthogonalization Lanczos loop the library ran before it
// switched to partial reorthogonalization: two classical Gram-Schmidt
// passes against the whole basis at every step. Kept as the reference.
LanczosResult lanczos_full_gram_schmidt(const MatVec& op,
                                        std::span<const double> start,
                                        int steps) {
  const std::size_t n = start.size();
  LanczosResult res;
  res.start_norm = la::nrm2(start);
  const int k = std::min<std::size_t>(steps, n);
  std::vector<la::Vector> basis;
  la::Vector q(start.begin(), start.end());
  la::scal(1.0 / res.start_norm, q);
  basis.push_back(q);
  la::Vector w(n, 0.0);
  double beta_prev = 0.0;
  for (int j = 0; j < k; ++j) {
    op(basis.back(), w);
    if (j > 0) la::axpy(-beta_prev, basis[j - 1], w);
    const double alpha = la::dot(basis.back(), w);
    la::axpy(-alpha, basis.back(), w);
    res.alpha.push_back(alpha);
    res.steps = j + 1;
    for (int pass = 0; pass < 2; ++pass)
      for (const auto& v : basis) la::axpy(-la::dot(v, w), v, w);
    const double beta = la::nrm2(w);
    if (j + 1 == k) {
      res.final_beta = beta;
      break;
    }
    if (beta < 1e-12) {
      res.breakdown = true;
      break;
    }
    res.beta.push_back(beta);
    beta_prev = beta;
    la::Vector next = w;
    la::scal(1.0 / beta, next);
    basis.push_back(std::move(next));
  }
  return res;
}

// Mass-weighted Hessian and dalpha of an 8-residue model-engine peptide
// (3N = 426), assembled from its MFCC fragments.
frag::GlobalProperties model_peptide_properties() {
  frag::BioSystem sys;
  chem::ProteinBuildOptions popts;
  popts.n_residues = 8;
  popts.seed = 7;
  sys.chains.push_back(chem::build_synthetic_protein(popts));
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);
  const engine::ModelEngine eng;
  std::vector<engine::FragmentResult> results;
  for (const frag::Fragment& f : fr.fragments)
    results.push_back(eng.compute_with_topology(f.mol, f.bonds));
  return frag::assemble_global_properties(sys, fr.fragments, results);
}

// ||a - ref|| / ||ref|| in the 2-norm.
double relative_l2(const la::Vector& a, const la::Vector& ref) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    num += (a[i] - ref[i]) * (a[i] - ref[i]);
    den += ref[i] * ref[i];
  }
  return std::sqrt(num / den);
}

la::Vector couplings(const LanczosResult& lr) {
  la::Vector b = lr.beta;
  b.push_back(lr.final_beta);
  return b;
}

// Partial reorthogonalization must give the coefficients and spectra of
// the full-reorthogonalization loop to round-off, while sweeping the
// basis on fewer than half the steps. The coefficients are compared in
// norm, not entry by entry: at 220 steps on this 426-dimensional Hessian
// single entries are ill-conditioned (nudging one entry of the start
// vector by 1e-15 moves single alpha entries of the full-reorthogonalized
// run itself by up to ~1e-9, and the whole vector by up to ~1e-10).
TEST(Lanczos, PartialReorthogonalizationMatchesFullGramSchmidt) {
  const frag::GlobalProperties props = model_peptide_properties();
  const la::CsrMatrix& h = props.hessian_mw;
  const std::size_t n = h.rows();
  ASSERT_EQ(n, 426u);
  const MatVec op = [&h](std::span<const double> x, std::span<double> y) {
    h.matvec(1.0, x, 0.0, y);
  };
  // The seven Raman start vectors, the trace combination and the six
  // tensor rows, with their Eq. (4) weights.
  std::vector<la::Vector> starts(1, la::Vector(n, 0.0));
  for (std::size_t i = 0; i < n; ++i)
    starts[0][i] = props.dalpha_mw(0, i) + props.dalpha_mw(1, i) +
                   props.dalpha_mw(2, i);
  for (int c = 0; c < kAlphaComponents; ++c) {
    const auto row = props.dalpha_mw.row(c);
    starts.emplace_back(row.begin(), row.end());
  }
  const double weights[] = {1.5, 10.5, 10.5, 10.5, 21.0, 21.0, 21.0};
  const la::Vector axis = wavenumber_axis(0.0, 4000.0, 1200);

  for (const int steps : {150, 220}) {
    LanczosOptions opts;
    opts.steps = steps;
    std::vector<LanczosResult> reference;
    for (std::size_t c = 0; c < starts.size(); ++c) {
      reference.push_back(lanczos_full_gram_schmidt(op, starts[c], steps));
      const LanczosResult& ref = reference.back();
      const LanczosResult got = lanczos(op, starts[c], n, opts);
      ASSERT_EQ(got.steps, ref.steps);
      ASSERT_EQ(got.beta.size(), ref.beta.size());
      EXPECT_LT(relative_l2(got.alpha, ref.alpha), 1e-10)
          << steps << " steps, component " << c;
      EXPECT_LT(relative_l2(couplings(got), couplings(ref)), 1e-10)
          << steps << " steps, component " << c;
      EXPECT_GT(got.n_reorthogonalized, 0);
      EXPECT_LT(2 * got.n_reorthogonalized, got.steps)
          << steps << " steps, component " << c;
    }
    for (const double sigma : {5.0, 25.0}) {
      la::Vector expected(axis.size(), 0.0);
      for (std::size_t c = 0; c < starts.size(); ++c)
        la::axpy(weights[c],
                 broaden_to_wavenumbers(
                     averaged_gauss_quadrature(reference[c]), axis, sigma),
                 expected);
      const RamanSpectrum got = raman_spectrum_lanczos(
          op, n, props.dalpha_mw, axis, sigma, opts, /*use_gagq=*/true);
      EXPECT_LT(relative_l2(got.intensity, expected), 1e-8)
          << steps << " steps, sigma " << sigma;
    }
  }
}

TEST(Lanczos, GagqFirstComponentQuadratureIsBitwiseTheFullEigensolve) {
  // The 299-point averaged matrix of a 150-step run, built as
  // averaged_gauss_quadrature documents it.
  Rng rng(137);
  const std::size_t n = 400;
  const la::Matrix a = random_symmetric(n, rng);
  la::Vector d(n);
  for (auto& v : d) v = rng.uniform(-1.0, 1.0);
  LanczosOptions opts;
  opts.steps = 150;
  const LanczosResult lr = lanczos(dense_op(a), d, n, opts);
  ASSERT_EQ(lr.steps, 150);
  const std::size_t l = 149;
  la::Vector diag(lr.alpha), sub(lr.beta);
  for (std::size_t i = 0; i < l; ++i) diag.push_back(lr.alpha[l - 1 - i]);
  sub.push_back(lr.final_beta);
  for (std::size_t i = 1; i < l; ++i) sub.push_back(lr.beta[l - 1 - i]);
  ASSERT_EQ(diag.size(), 299u);

  const la::EigResult full = la::eigh_tridiagonal(diag, sub);
  const la::EigResult first = la::eigh_tridiagonal_first_row(diag, sub);
  const SpectralMeasure m = averaged_gauss_quadrature(lr);
  ASSERT_EQ(m.nodes.size(), 299u);
  const double scale = lr.start_norm * lr.start_norm;
  for (std::size_t j = 0; j < 299; ++j) {
    EXPECT_EQ(first.values[j], full.values[j]);
    EXPECT_EQ(first.vectors(0, j), full.vectors(0, j));
    EXPECT_EQ(m.nodes[j], full.values[j]);
    const double c = full.vectors(0, j);
    EXPECT_EQ(m.weights[j], scale * c * c);
  }
}

TEST(Lanczos, AmbientSessionCountsStepsAndReorthogonalizations) {
  Rng rng(131);
  const std::size_t n = 120;
  const la::Matrix a = random_symmetric(n, rng);
  la::Vector d(n);
  for (auto& v : d) v = rng.uniform(-1.0, 1.0);
  LanczosOptions opts;
  opts.steps = 60;
  obs::Session session;
  LanczosResult first, second;
  {
    obs::ScopedSession ambient(&session);
    first = lanczos(dense_op(a), d, n, opts);
    second = lanczos(dense_op(a), d, n, opts);
  }
  lanczos(dense_op(a), d, n, opts);  // no session: not counted
  const obs::MetricsRegistry& m = session.metrics();
  EXPECT_EQ(m.counter_value("spectra.lanczos.steps"), 120);
  EXPECT_EQ(m.counter_value("spectra.lanczos.reorthogonalized"),
            first.n_reorthogonalized + second.n_reorthogonalized);
  EXPECT_GT(first.n_reorthogonalized, 0);
}

TEST(Broadening, AreaEqualsTotalWeight) {
  SpectralMeasure m;
  const double w_au = 1500.0 / units::kAuFrequencyToCm;
  m.nodes = {w_au * w_au};  // eigenvalue lambda = omega^2
  m.weights = {3.5};
  const la::Vector axis = wavenumber_axis(500.0, 2500.0, 4001);
  const la::Vector spec = broaden_to_wavenumbers(m, axis, 20.0);
  double area = 0.0;
  const double d_omega = axis[1] - axis[0];
  for (double v : spec) area += v * d_omega;
  EXPECT_NEAR(area, 3.5, 1e-3);
  // Peak at 1500 cm^-1.
  std::size_t imax = 0;
  for (std::size_t i = 0; i < spec.size(); ++i)
    if (spec[i] > spec[imax]) imax = i;
  EXPECT_NEAR(axis[imax], 1500.0, 1.0);
}

TEST(Raman, LanczosMatchesExactForFullRank) {
  Rng rng(113);
  const std::size_t n = 18;
  // Positive-definite "Hessian".
  la::Matrix h = random_symmetric(n, rng);
  la::Matrix h2(n, n);
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1e-6, h, h, 0.0, h2);
  la::Matrix dalpha(kAlphaComponents, n);
  for (std::size_t c = 0; c < kAlphaComponents; ++c)
    for (std::size_t i = 0; i < n; ++i) dalpha(c, i) = rng.uniform(-1, 1);

  const la::Vector axis = wavenumber_axis(0.0, 1000.0, 301);
  const RamanSpectrum exact = raman_spectrum_exact(h2, dalpha, axis, 15.0);
  LanczosOptions opts;
  opts.steps = static_cast<int>(n);
  const MatVec op = dense_op(h2);
  const RamanSpectrum lz =
      raman_spectrum_lanczos(op, n, dalpha, axis, 15.0, opts, false);
  for (std::size_t i = 0; i < axis.size(); ++i)
    EXPECT_NEAR(lz.intensity[i], exact.intensity[i],
                1e-6 * (1.0 + exact.intensity[i]))
        << "at " << axis[i];
}

TEST(Raman, IntensityNonNegative) {
  Rng rng(127);
  const std::size_t n = 12;
  la::Matrix h = random_symmetric(n, rng);
  la::Matrix h2(n, n);
  la::gemm(la::Trans::kNo, la::Trans::kYes, 1e-6, h, h, 0.0, h2);
  la::Matrix dalpha(kAlphaComponents, n);
  for (std::size_t c = 0; c < kAlphaComponents; ++c)
    for (std::size_t i = 0; i < n; ++i) dalpha(c, i) = rng.uniform(-1, 1);
  const la::Vector axis = wavenumber_axis(0.0, 2000.0, 101);
  const RamanSpectrum s = raman_spectrum_exact(h2, dalpha, axis, 10.0);
  for (double v : s.intensity) EXPECT_GE(v, 0.0);
}

TEST(Raman, DiatomicFrequencyPlacedCorrectly) {
  // 1D two-mass toy: H = k (x1 - x2)^2 / 2 in mass-weighted coordinates
  // gives omega = sqrt(k (1/m1 + 1/m2)).
  const double k = 0.3, m1 = 2.0 * units::kAmuToMe, m2 = 3.0 * units::kAmuToMe;
  la::Matrix h{{k / m1, -k / std::sqrt(m1 * m2)},
               {-k / std::sqrt(m1 * m2), k / m2}};
  const la::Vector freqs = vibrational_frequencies_cm(h);
  const double omega_ref =
      std::sqrt(k * (1.0 / m1 + 1.0 / m2)) * units::kAuFrequencyToCm;
  EXPECT_NEAR(freqs[0], 0.0, 1e-6);  // translation
  EXPECT_NEAR(freqs[1], omega_ref, 1e-6);
}

TEST(Raman, WavenumberAxisEndpoints) {
  const la::Vector axis = wavenumber_axis(100.0, 200.0, 11);
  EXPECT_DOUBLE_EQ(axis.front(), 100.0);
  EXPECT_DOUBLE_EQ(axis.back(), 200.0);
  EXPECT_NEAR(axis[5], 150.0, 1e-12);
  EXPECT_THROW(wavenumber_axis(5.0, 1.0, 10), InvalidArgument);
}

TEST(Raman, BadDalphaShapeThrows) {
  la::Matrix h = la::Matrix::identity(6);
  la::Matrix dalpha(3, 6);  // wrong row count
  const la::Vector axis = wavenumber_axis(0.0, 100.0, 5);
  EXPECT_THROW(raman_spectrum_exact(h, dalpha, axis, 5.0), InvalidArgument);
}

}  // namespace
}  // namespace qfr::spectra
