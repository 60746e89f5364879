#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "qfr/chem/molecule.hpp"
#include "qfr/dfpt/response.hpp"
#include "qfr/la/batched_executor.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/la/eig.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/scf/scf.hpp"

namespace qfr::dfpt {
namespace {

using chem::Element;
using chem::Molecule;

struct QmState {
  std::shared_ptr<scf::ScfContext> ctx;
  scf::ScfResult scf_res;
};

QmState converge(const Molecule& m, scf::XcModel xc) {
  QmState s;
  s.ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(m));
  scf::ScfOptions opts;
  opts.xc = xc;
  s.scf_res = scf::ScfSolver(s.ctx, opts).solve();
  return s;
}

// Finite-field polarizability column d: alpha_cd = d mu_c / d F_d with
// mu_c = -Tr[P D_c] (electronic dipole; nuclear part is field independent).
la::Vector finite_field_alpha_column(const Molecule& m, scf::XcModel xc,
                                     int d, double h = 2e-3) {
  auto ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(m));
  scf::ScfOptions plus, minus;
  plus.xc = minus.xc = xc;
  plus.external_field[d] = h;
  minus.external_field[d] = -h;
  plus.energy_tolerance = minus.energy_tolerance = 1e-11;
  plus.commutator_tolerance = minus.commutator_tolerance = 1e-8;
  const auto rp = scf::ScfSolver(ctx, plus).solve();
  const auto rm = scf::ScfSolver(ctx, minus).solve();
  la::Vector col(3);
  for (int cidx = 0; cidx < 3; ++cidx) {
    const double mu_p = -la::trace_product(rp.density, ctx->dip[cidx]);
    const double mu_m = -la::trace_product(rm.density, ctx->dip[cidx]);
    col[cidx] = (mu_p - mu_m) / (2.0 * h);
  }
  return col;
}

Molecule h2() {
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  m.add(Element::H, {0, 0, 1.4});
  return m;
}

class DfptVsFiniteField
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DfptVsFiniteField, WaterPolarizabilityColumnMatches) {
  const int d = std::get<0>(GetParam());
  const bool lda = std::get<1>(GetParam());
  const auto xc = lda ? scf::XcModel::kLda : scf::XcModel::kHartreeFock;
  const Molecule w = chem::make_water({0, 0, 0});

  QmState s = converge(w, xc);
  ResponseEngine engine(s.ctx, s.scf_res, xc);
  const ResponseResult r = engine.solve(s.ctx->dip[d]);

  const la::Vector ff = finite_field_alpha_column(w, xc, d);
  for (int cidx = 0; cidx < 3; ++cidx) {
    const double analytic = -la::trace_product(r.p1, s.ctx->dip[cidx]);
    EXPECT_NEAR(analytic, ff[cidx], 5e-4)
        << "component (" << cidx << ", " << d << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DirectionsAndModels, DfptVsFiniteField,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(false, true)));

TEST(Dfpt, PolarizabilityTensorSymmetricAndPositive) {
  const Molecule w = chem::make_water({0, 0, 0});
  QmState s = converge(w, scf::XcModel::kHartreeFock);
  ResponseEngine engine(s.ctx, s.scf_res);
  const PolarizabilityResult res = engine.polarizability();
  EXPECT_LT(la::max_abs_diff(res.alpha, res.alpha.transposed()), 1e-5);
  for (int c = 0; c < 3; ++c) EXPECT_GT(res.alpha(c, c), 0.0);
}

TEST(Dfpt, WaterSto3gPolarizabilityMagnitude) {
  // RHF/STO-3G water polarizability is severely underestimated vs
  // experiment (~9.6 a.u.) — minimal-basis values are a few a.u. Isotropic
  // average must land in that well-known window.
  const Molecule w = chem::make_water({0, 0, 0});
  QmState s = converge(w, scf::XcModel::kHartreeFock);
  ResponseEngine engine(s.ctx, s.scf_res);
  const PolarizabilityResult res = engine.polarizability();
  const double iso =
      (res.alpha(0, 0) + res.alpha(1, 1) + res.alpha(2, 2)) / 3.0;
  EXPECT_GT(iso, 0.3);
  EXPECT_LT(iso, 6.0);
}

TEST(Dfpt, H2AnisotropyParallelExceedsPerpendicular) {
  // For H2 along z the parallel polarizability exceeds the perpendicular.
  QmState s = converge(h2(), scf::XcModel::kHartreeFock);
  ResponseEngine engine(s.ctx, s.scf_res);
  const PolarizabilityResult res = engine.polarizability();
  EXPECT_GT(res.alpha(2, 2), res.alpha(0, 0));
  EXPECT_NEAR(res.alpha(0, 0), res.alpha(1, 1), 1e-6);
}

TEST(Dfpt, PhaseTimersAccumulate) {
  const Molecule w = chem::make_water({0, 0, 0});
  QmState s = converge(w, scf::XcModel::kLda);
  ResponseEngine engine(s.ctx, s.scf_res, scf::XcModel::kLda);
  (void)engine.polarizability();
  const PhaseTimes& t = engine.phase_times();
  EXPECT_GT(t.total(), 0.0);
  EXPECT_GT(t.p1, 0.0);
  EXPECT_GT(t.n1, 0.0);  // LDA path exercises the grid kernels
  EXPECT_GT(t.h1, 0.0);
  EXPECT_GT(engine.gemm_flops(), 0);
}

TEST(Dfpt, RequiresConvergedScf) {
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(w));
  scf::ScfResult fake;  // converged = false
  EXPECT_THROW(ResponseEngine(ctx, fake), InvalidArgument);
}

TEST(Dfpt, ExhaustedBudgetThrowsWithResidualAndTolerance) {
  // One iteration cannot converge water; the diagnostic names the
  // residual and the tolerance so the failure is actionable.
  const QmState s = converge(chem::make_water({0, 0, 0}),
                             scf::XcModel::kHartreeFock);
  DfptOptions opts;
  opts.max_iterations = 1;
  ResponseEngine engine(s.ctx, s.scf_res, scf::XcModel::kHartreeFock, opts);
  try {
    engine.solve(s.ctx->dip[0]);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("|dP1|"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tolerance"), std::string::npos) << msg;
  }

  // The default budget converges the same solve.
  ResponseEngine plain(s.ctx, s.scf_res, scf::XcModel::kHartreeFock);
  EXPECT_NO_THROW(plain.solve(s.ctx->dip[0]));
}

// Oracle for the Krylov solve: the HF amplitude matrix
//   A_ai,bj = (eps_a - eps_i) delta + [C^T G(P(e_bj)) C]_ai,
// G(P) = J(P) - K(P)/2, P(x) = 2 (C_virt x C_occ^T + transpose), built
// column by column from unit amplitudes and solved directly.
TEST(Dfpt, KrylovMatchesDenseAmplitudeSolve) {
  const Molecule w = chem::make_water({0, 0, 0});
  for (const scf::BasisKind basis :
       {scf::BasisKind::kSto3g, scf::BasisKind::kB631g}) {
    SCOPED_TRACE("basis=" + std::to_string(static_cast<int>(basis)));
    auto ctx =
        std::make_shared<scf::ScfContext>(scf::ScfContext::build(w, basis));
    const scf::ScfResult scf_res = scf::ScfSolver(ctx).solve();
    const la::Matrix& c = scf_res.mo_coefficients;
    const std::size_t n = ctx->bs.n_functions();
    const auto n_occ = static_cast<std::size_t>(scf_res.n_occupied);
    const std::size_t n_virt = n - n_occ;
    const std::size_t dim = n_virt * n_occ;
    auto mo = [&](const la::Matrix& f, std::size_t a, std::size_t i) {
      double v = 0.0;
      for (std::size_t mu = 0; mu < n; ++mu)
        for (std::size_t nu = 0; nu < n; ++nu)
          v += c(mu, n_occ + a) * f(mu, nu) * c(nu, i);
      return v;
    };
    auto density = [&](const la::Vector& x) {
      la::Matrix p(n, n);
      for (std::size_t a = 0; a < n_virt; ++a)
        for (std::size_t i = 0; i < n_occ; ++i)
          for (std::size_t mu = 0; mu < n; ++mu)
            for (std::size_t nu = 0; nu < n; ++nu)
              p(mu, nu) += 2.0 * x[a * n_occ + i] *
                           (c(mu, n_occ + a) * c(nu, i) +
                            c(mu, i) * c(nu, n_occ + a));
      return p;
    };

    la::Matrix amat(dim, dim);
    for (std::size_t col = 0; col < dim; ++col) {
      la::Vector unit(dim, 0.0);
      unit[col] = 1.0;
      const la::Matrix p = density(unit);
      la::Matrix g = ctx->eri.coulomb(p);
      const la::Matrix k = ctx->eri.exchange(p);
      for (std::size_t e = 0; e < g.size(); ++e)
        g.data()[e] -= 0.5 * k.data()[e];
      for (std::size_t a = 0; a < n_virt; ++a)
        for (std::size_t i = 0; i < n_occ; ++i)
          amat(a * n_occ + i, col) = mo(g, a, i);
      const std::size_t b = col / n_occ, j = col % n_occ;
      amat(col, col) +=
          scf_res.mo_energies[n_occ + b] - scf_res.mo_energies[j];
    }

    la::Matrix alpha_dense(3, 3);
    for (int d = 0; d < 3; ++d) {
      la::Vector rhs(dim);
      for (std::size_t a = 0; a < n_virt; ++a)
        for (std::size_t i = 0; i < n_occ; ++i)
          rhs[a * n_occ + i] = -mo(ctx->dip[d], a, i);
      const la::Matrix p1 = density(la::spd_solve(amat, rhs));
      for (int cidx = 0; cidx < 3; ++cidx)
        alpha_dense(cidx, d) = -la::trace_product(p1, ctx->dip[cidx]);
    }

    DfptOptions opts;
    opts.tolerance = 1e-10;
    const PolarizabilityResult pol =
        ResponseEngine(ctx, scf_res, scf::XcModel::kHartreeFock, opts)
            .polarizability();
    double scale = 0.0;
    for (std::size_t e = 0; e < alpha_dense.size(); ++e)
      scale = std::max(scale, std::fabs(alpha_dense.data()[e]));
    EXPECT_LT(la::max_abs_diff(pol.alpha, alpha_dense), 1e-10 * scale)
        << "alpha_zz " << pol.alpha(2, 2) << " vs " << alpha_dense(2, 2);
  }
}

// Preconditioned CG on an SPD system of dimension n_occ * n_virt ends in
// at most that many steps after the residual of the start, up to rounding.
TEST(Dfpt, KrylovTerminatesWithinAmplitudeDimension) {
  const Molecule w = chem::make_water({0, 0, 0});
  for (const scf::XcModel xc :
       {scf::XcModel::kHartreeFock, scf::XcModel::kLda}) {
    SCOPED_TRACE("xc=" + std::to_string(static_cast<int>(xc)));
    QmState s = converge(w, xc);
    const std::size_t n = s.ctx->bs.n_functions();
    const auto n_occ = static_cast<std::size_t>(s.scf_res.n_occupied);
    const auto bound = static_cast<int>(n_occ * (n - n_occ) + 1);
    DfptOptions opts;
    opts.tolerance = 1e-10;
    ResponseEngine engine(s.ctx, s.scf_res, xc, opts);
    for (int d = 0; d < 3; ++d)
      EXPECT_LE(engine.solve(s.ctx->dip[d]).iterations, bound)
          << "direction " << d;
  }
}

// 6-31G LDA water at the reference geometry: the linear-mixing solve
// stalled on one direction at |dP1| ~ 0.035 and needed a second pass at
// halved mixing. CG converges every direction in one pass, within the
// amplitude dimension, to that solve's tightly converged alpha.
TEST(Dfpt, SplitValenceLdaWaterConvergesInOnePass) {
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<scf::ScfContext>(
      scf::ScfContext::build(w, scf::BasisKind::kB631g));
  scf::ScfOptions sopts;
  sopts.xc = scf::XcModel::kLda;
  sopts.energy_tolerance = 1e-12;
  sopts.commutator_tolerance = 1e-9;
  const scf::ScfResult scf_res = scf::ScfSolver(ctx, sopts).solve();
  const std::size_t n = ctx->bs.n_functions();
  const auto n_occ = static_cast<std::size_t>(scf_res.n_occupied);
  DfptOptions opts;
  opts.tolerance = 1e-10;
  opts.max_iterations = static_cast<int>(n_occ * (n - n_occ) + 1);
  ResponseEngine engine(ctx, scf_res, scf::XcModel::kLda, opts);
  const PolarizabilityResult pol = engine.polarizability();
  // Diagonal of the mixing solve's alpha at tolerance 1e-10.
  const double reference[3] = {7.1594727864288306, 1.5446964564975083,
                               5.0927872659194575};
  for (int c = 0; c < 3; ++c)
    EXPECT_NEAR(pol.alpha(c, c), reference[c], 1e-8 * reference[c]);
}

TEST(Dfpt, SplitValencePolarizabilityLargerAndFiniteFieldConsistent) {
  // 6-31G water: alpha grows toward the basis-set limit and DFPT still
  // matches finite field.
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx_small = std::make_shared<scf::ScfContext>(scf::ScfContext::build(w));
  auto ctx_big = std::make_shared<scf::ScfContext>(
      scf::ScfContext::build(w, scf::BasisKind::kB631g));
  const auto r_small = scf::ScfSolver(ctx_small).solve();
  const auto r_big = scf::ScfSolver(ctx_big).solve();
  ResponseEngine e_small(ctx_small, r_small);
  ResponseEngine e_big(ctx_big, r_big);
  const auto a_small = e_small.polarizability();
  const auto a_big = e_big.polarizability();
  double iso_small = 0.0, iso_big = 0.0;
  for (int c = 0; c < 3; ++c) {
    iso_small += a_small.alpha(c, c) / 3.0;
    iso_big += a_big.alpha(c, c) / 3.0;
  }
  EXPECT_GT(iso_big, 1.5 * iso_small);

  // Finite-field cross check on the zz component.
  const double h = 2e-3;
  scf::ScfOptions plus, minus;
  plus.external_field.z = h;
  minus.external_field.z = -h;
  const auto rp = scf::ScfSolver(ctx_big, plus).solve();
  const auto rm = scf::ScfSolver(ctx_big, minus).solve();
  const double mu_p = -la::trace_product(rp.density, ctx_big->dip[2]);
  const double mu_m = -la::trace_product(rm.density, ctx_big->dip[2]);
  EXPECT_NEAR(a_big.alpha(2, 2), (mu_p - mu_m) / (2.0 * h), 1e-3);
}

TEST(Dfpt, ResponseDensityTracelessInOverlapMetric) {
  // Tr[P1 S] = 0: the perturbation does not change the electron count.
  const Molecule w = chem::make_water({0, 0, 0});
  QmState s = converge(w, scf::XcModel::kHartreeFock);
  ResponseEngine engine(s.ctx, s.scf_res);
  const ResponseResult r = engine.solve(s.ctx->dip[2]);
  EXPECT_NEAR(la::trace_product(r.p1, s.ctx->s), 0.0, 1e-8);
}

// Refactor seam: routing the P1 GEMMs through the batched executor must be
// a pure scheduling change — every polarizability entry agrees with the
// eager per-product path to numerical identity territory.
TEST(Dfpt, BatchedAndEagerExecutionAgree) {
  const Molecule w = chem::make_water({0, 0, 0});
  for (const scf::XcModel xc :
       {scf::XcModel::kHartreeFock, scf::XcModel::kLda}) {
    QmState s = converge(w, xc);
    la::BatchedExecutor eager_exec(la::BatchedExecutor::Policy::kEager);
    la::BatchedExecutor batched_exec(la::BatchedExecutor::Policy::kBatched);
    DfptOptions eager;
    eager.batch = &eager_exec;
    DfptOptions batched;
    batched.batch = &batched_exec;
    const PolarizabilityResult a_eager =
        ResponseEngine(s.ctx, s.scf_res, xc, eager).polarizability();
    const PolarizabilityResult a_batched =
        ResponseEngine(s.ctx, s.scf_res, xc, batched).polarizability();
    EXPECT_LT(la::max_abs_diff(a_eager.alpha, a_batched.alpha), 1e-10)
        << "xc=" << static_cast<int>(xc);
    // Each engine ran its P1 work on the executor it was handed.
    EXPECT_GT(eager_exec.stats().tasks, 0);
    EXPECT_GT(batched_exec.stats().tasks, 0);
  }
}

// Refactor seam: the four-phase timing decomposition must still reconcile
// with the whole-solve histogram after the batching refactor — the phases
// wrap everything the solve loop does, batched flushes included.
TEST(Dfpt, PhaseSumTracksSolveHistogramWithTracingOn) {
  obs::Session session;
  obs::ScopedSession scope(&session);
  const Molecule w = chem::make_water({0, 0, 0});
  QmState s = converge(w, scf::XcModel::kLda);
  ResponseEngine engine(s.ctx, s.scf_res, scf::XcModel::kLda);
  const PolarizabilityResult res = engine.polarizability();

  const obs::MetricsSnapshot snap = session.metrics().snapshot();
  auto hist_sum = [&](const std::string& name) {
    for (const auto& [hname, h] : snap.histograms)
      if (hname == name) return h.sum;
    ADD_FAILURE() << "histogram " << name << " not recorded";
    return 0.0;
  };
  const double phase_sum =
      hist_sum("dfpt.phase.p1.seconds") + hist_sum("dfpt.phase.n1.seconds") +
      hist_sum("dfpt.phase.v1.seconds") + hist_sum("dfpt.phase.h1.seconds");
  const double solve = hist_sum("cpscf.solve.seconds");
  EXPECT_GT(solve, 0.0);
  // ~2% of the solve, with a small absolute floor so scheduler jitter on a
  // sub-millisecond water solve cannot flake the assertion.
  EXPECT_NEAR(phase_sum, solve, std::max(0.02 * solve, 2e-3));
  // The executor's batch accounting reached the session too.
  std::int64_t batch_tasks = 0;
  for (const auto& [cname, v] : snap.counters)
    if (cname == "la.batch.tasks") batch_tasks = v;
  EXPECT_GT(batch_tasks, 0);
}

// polarizability() is three independent solves, one per field direction:
// column d of alpha is bitwise -Tr[P1^(d) D_c] from a fresh engine's
// solve(D_d), for HF and for the LDA four-phase cycle alike.
TEST(Dfpt, PolarizabilityColumnsAreIndependentSolvesBitwise) {
  const Molecule w = chem::make_water({0, 0, 0});
  for (const scf::XcModel xc :
       {scf::XcModel::kHartreeFock, scf::XcModel::kLda}) {
    SCOPED_TRACE("xc=" + std::to_string(static_cast<int>(xc)));
    QmState s = converge(w, xc);
    const PolarizabilityResult pol =
        ResponseEngine(s.ctx, s.scf_res, xc).polarizability();
    int iterations = 0;
    for (int d = 0; d < 3; ++d) {
      ResponseEngine single(s.ctx, s.scf_res, xc);
      const ResponseResult r = single.solve(s.ctx->dip[d]);
      iterations += r.iterations;
      for (int cidx = 0; cidx < 3; ++cidx) {
        const double ref = -la::trace_product(r.p1, s.ctx->dip[cidx]);
        const double got = pol.alpha(cidx, d);
        EXPECT_EQ(std::memcmp(&got, &ref, sizeof(double)), 0)
            << "alpha(" << cidx << ", " << d << ") = " << got << " vs "
            << ref;
      }
    }
    EXPECT_EQ(pol.total_iterations, iterations);
  }
}

}  // namespace
}  // namespace qfr::dfpt
