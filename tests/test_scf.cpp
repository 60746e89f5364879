#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "qfr/chem/molecule.hpp"
#include "qfr/common/error.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/obs/trace.hpp"
#include "qfr/scf/scf.hpp"

namespace qfr::scf {
namespace {

using chem::Element;
using chem::Molecule;

Molecule h2(double r = 1.4) {
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  m.add(Element::H, {0, 0, r});
  return m;
}

ScfResult run(const Molecule& m, XcModel xc = XcModel::kHartreeFock) {
  auto ctx = std::make_shared<ScfContext>(ScfContext::build(m));
  ScfOptions opts;
  opts.xc = xc;
  ScfSolver solver(ctx, opts);
  return solver.solve();
}

TEST(ScfContext, BuildRecordsIntegralSpanAndHistogram) {
  obs::Session session;
  obs::ScopedSession ambient(&session);
  const auto ctx = ScfContext::build(chem::make_water({0, 0, 0}));
  const auto snap =
      session.metrics().histogram("scf.context.seconds").snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_GT(snap.sum, 0.0);
  std::size_t spans = 0;
  for (const auto& ev : session.tracer().events())
    if (std::string(ev.name) == "scf.context") {
      ++spans;
      EXPECT_EQ(std::string(ev.cat), "integrals");
    }
  EXPECT_EQ(spans, 1u);
}

TEST(ScfHf, H2EnergyMatchesSzabo) {
  // RHF/STO-3G for H2 at R = 1.4 bohr: E = -1.1167 hartree
  // (Szabo & Ostlund, Sec. 3.5.2).
  const ScfResult res = run(h2());
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.energy, -1.1167, 5e-4);
}

TEST(ScfHf, WaterEnergyMatchesLiterature) {
  // RHF/STO-3G for water at the experimental geometry is about
  // -74.963 hartree (standard reference value, geometry dependent).
  const ScfResult res = run(chem::make_water({0, 0, 0}));
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.energy, -74.963, 5e-3);
}

TEST(ScfHf, DensityTraceCountsElectrons) {
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<ScfContext>(ScfContext::build(w));
  ScfSolver solver(ctx);
  const ScfResult res = solver.solve();
  // Tr[P S] = number of electrons.
  EXPECT_NEAR(la::trace_product(res.density, ctx->s), 10.0, 1e-8);
}

TEST(ScfHf, DensityIdempotentInOverlapMetric) {
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<ScfContext>(ScfContext::build(w));
  ScfSolver solver(ctx);
  const ScfResult res = solver.solve();
  // (P S P) = 2 P for a converged closed-shell density.
  const std::size_t n = ctx->s.rows();
  la::Matrix ps(n, n), psp(n, n);
  la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, res.density, ctx->s, 0.0, ps);
  la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, ps, res.density, 0.0, psp);
  la::Matrix two_p = res.density;
  two_p *= 2.0;
  EXPECT_LT(la::max_abs_diff(psp, two_p), 1e-6);
}

TEST(ScfHf, EnergyInvariantUnderTranslation) {
  const ScfResult a = run(chem::make_water({0, 0, 0}));
  const ScfResult b = run(chem::make_water({5.0, -3.0, 2.0}));
  EXPECT_NEAR(a.energy, b.energy, 1e-8);
}

TEST(ScfHf, EnergyInvariantUnderOrientation) {
  const ScfResult a = run(chem::make_water({0, 0, 0}, 0.0));
  const ScfResult b = run(chem::make_water({0, 0, 0}, 1.1));
  EXPECT_NEAR(a.energy, b.energy, 1e-8);
}

TEST(ScfHf, WarmStartConvergesFaster) {
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<ScfContext>(ScfContext::build(w));
  ScfSolver solver(ctx);
  const ScfResult cold = solver.solve();
  const ScfResult warm = solver.solve(&cold.density);
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_NEAR(warm.energy, cold.energy, 1e-8);
}

TEST(ScfHf, MoEnergiesOrderedAndGapPositive) {
  const ScfResult res = run(chem::make_water({0, 0, 0}));
  for (std::size_t i = 1; i < res.mo_energies.size(); ++i)
    EXPECT_LE(res.mo_energies[i - 1], res.mo_energies[i] + 1e-12);
  // HOMO below LUMO.
  EXPECT_LT(res.mo_energies[res.n_occupied - 1],
            res.mo_energies[res.n_occupied]);
}

TEST(ScfHf, OddElectronCountRejected) {
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  auto ctx = std::make_shared<ScfContext>(ScfContext::build(m));
  EXPECT_THROW(ScfSolver solver(ctx), InvalidArgument);
}

TEST(ScfHf, DissociationCurveHasMinimumNearEquilibrium) {
  // E(1.2) > E(1.4) < E(1.8): STO-3G H2 equilibrium is ~1.35 bohr.
  const double e12 = run(h2(1.2)).energy;
  const double e14 = run(h2(1.4)).energy;
  const double e18 = run(h2(1.8)).energy;
  EXPECT_GT(e12, e14);
  EXPECT_GT(e18, e14);
}

TEST(ScfHf, LevelShiftAndDampingConvergeToSameEnergy) {
  // The stabilizers must not bias the fixed point: the shift is applied
  // only inside the iteration and the converged density is shift-free.
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<ScfContext>(ScfContext::build(w));
  const ScfResult plain = ScfSolver(ctx).solve();
  ScfOptions opts;
  opts.level_shift = 0.3;
  opts.density_damping = 0.2;
  const ScfResult stabilized = ScfSolver(ctx, opts).solve();
  EXPECT_TRUE(stabilized.converged);
  EXPECT_FALSE(stabilized.escalated);
  EXPECT_NEAR(stabilized.energy, plain.energy, 1e-7);
}

TEST(ScfHf, EscalationRetriesBeforeThrowing) {
  // Two iterations cannot converge water; the escalated retry (stronger
  // shift + damping) also gets two, so the solve still fails — but the
  // diagnostic must carry the iteration budget and the last residual.
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<ScfContext>(ScfContext::build(w));
  ScfOptions opts;
  opts.max_iterations = 2;
  try {
    ScfSolver(ctx, opts).solve();
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 iterations"), std::string::npos) << msg;
    EXPECT_NE(msg.find("residual"), std::string::npos) << msg;
    EXPECT_NE(msg.find("escalated retry included"), std::string::npos) << msg;
  }

  // With escalation disabled the message must say the retry never ran.
  opts.escalate_on_nonconvergence = false;
  try {
    ScfSolver(ctx, opts).solve();
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_EQ(std::string(e.what()).find("escalated retry included"),
              std::string::npos);
  }
}

TEST(Scf631g, WaterEnergyMatchesLiterature) {
  // HF/6-31G water at the experimental geometry: about -75.984 hartree.
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<ScfContext>(
      ScfContext::build(w, BasisKind::kB631g));
  EXPECT_EQ(ctx->bs.n_functions(), 13u);
  const ScfResult res = ScfSolver(ctx).solve();
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.energy, -75.984, 5e-3);
}

TEST(Scf631g, LowerVariationalEnergyThanMinimalBasis) {
  // The bigger basis must lower the variational HF energy.
  const Molecule w = chem::make_water({0, 0, 0});
  auto small = std::make_shared<ScfContext>(ScfContext::build(w));
  auto big = std::make_shared<ScfContext>(
      ScfContext::build(w, BasisKind::kB631g));
  const double e_small = ScfSolver(small).solve().energy;
  const double e_big = ScfSolver(big).solve().energy;
  EXPECT_LT(e_big, e_small - 0.5);
}

TEST(Scf631g, H2Energy) {
  // HF/6-31G H2 near equilibrium: about -1.1268 hartree at 1.38-1.40 a0.
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  m.add(Element::H, {0, 0, 1.4});
  auto ctx = std::make_shared<ScfContext>(
      ScfContext::build(m, BasisKind::kB631g));
  const ScfResult res = ScfSolver(ctx).solve();
  EXPECT_NEAR(res.energy, -1.1268, 5e-3);
}

TEST(Scf631g, SulfurRejected) {
  Molecule m;
  m.add(Element::S, {0, 0, 0});
  m.add(Element::H, {0, 0, 2.5});
  m.add(Element::H, {2.4, 0, -0.6});
  EXPECT_THROW(ScfContext::build(m, BasisKind::kB631g), InvalidArgument);
}

TEST(ScfLda, WaterConvergesAndIsBoundish) {
  const ScfResult res = run(chem::make_water({0, 0, 0}), XcModel::kLda);
  EXPECT_TRUE(res.converged);
  // Exchange-only LDA on a coarse grid: sanity window around the HF value.
  EXPECT_LT(res.energy, -70.0);
  EXPECT_GT(res.energy, -80.0);
  EXPECT_LT(res.energy_xc, 0.0);
}

TEST(ScfLda, H2Converges) {
  const ScfResult res = run(h2(), XcModel::kLda);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.energy, -0.9);
  EXPECT_GT(res.energy, -1.3);
}

TEST(ScfLda, DensityTraceStillCountsElectrons) {
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<ScfContext>(ScfContext::build(w));
  ScfOptions opts;
  opts.xc = XcModel::kLda;
  ScfSolver solver(ctx, opts);
  const ScfResult res = solver.solve();
  EXPECT_NEAR(la::trace_product(res.density, ctx->s), 10.0, 1e-8);
}

}  // namespace
}  // namespace qfr::scf
