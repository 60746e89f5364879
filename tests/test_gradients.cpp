#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>
#include <latch>
#include <span>
#include <vector>

#include "qfr/chem/molecule.hpp"
#include "qfr/common/thread_pool.hpp"
#include "qfr/integrals/eri.hpp"
#include "qfr/integrals/gradients.hpp"
#include "qfr/scf/scf.hpp"

namespace qfr::ints {
namespace {

using chem::Element;
using chem::Molecule;

scf::ScfOptions tight_options(scf::XcModel xc) {
  scf::ScfOptions opts;
  opts.xc = xc;
  opts.energy_tolerance = 1e-12;
  opts.commutator_tolerance = 1e-9;
  return opts;
}

la::Vector analytic(const Molecule& m,
                    scf::XcModel xc = scf::XcModel::kHartreeFock,
                    scf::BasisKind basis = scf::BasisKind::kSto3g) {
  auto ctx =
      std::make_shared<scf::ScfContext>(scf::ScfContext::build(m, basis));
  const scf::ScfOptions opts = tight_options(xc);
  const auto res = scf::ScfSolver(ctx, opts).solve();
  return xc == scf::XcModel::kLda
             ? lda_gradient(*ctx, res, opts.grid_radial_points)
             : rhf_gradient(*ctx, res);
}

double energy(const Molecule& m, scf::XcModel xc, scf::BasisKind basis) {
  auto ctx =
      std::make_shared<scf::ScfContext>(scf::ScfContext::build(m, basis));
  return scf::ScfSolver(ctx, tight_options(xc)).solve().energy;
}

la::Vector finite_difference(const Molecule& m, scf::XcModel xc,
                             scf::BasisKind basis, double h = 2e-4) {
  la::Vector g(3 * m.size());
  for (std::size_t c = 0; c < g.size(); ++c) {
    geom::Vec3 d;
    d[static_cast<int>(c % 3)] = h;
    const double ep = energy(m.displaced(c / 3, d), xc, basis);
    d[static_cast<int>(c % 3)] = -h;
    const double em = energy(m.displaced(c / 3, d), xc, basis);
    g[c] = (ep - em) / (2.0 * h);
  }
  return g;
}

void expect_match(const Molecule& m, double tol,
                  scf::XcModel xc = scf::XcModel::kHartreeFock,
                  scf::BasisKind basis = scf::BasisKind::kSto3g) {
  const la::Vector ana = analytic(m, xc, basis);
  const la::Vector fd = finite_difference(m, xc, basis);
  ASSERT_EQ(ana.size(), fd.size());
  for (std::size_t c = 0; c < ana.size(); ++c)
    EXPECT_NEAR(ana[c], fd[c], tol) << "coordinate " << c;
}

void expect_translational_sum_rule(const la::Vector& g) {
  for (int c = 0; c < 3; ++c) {
    double sum = 0.0;
    for (std::size_t a = 0; 3 * a < g.size(); ++a) sum += g[3 * a + c];
    EXPECT_NEAR(sum, 0.0, 1e-9) << "component " << c;
  }
}

// Bent H2S off every axis (S-H ~2.5 bohr, ~89 degrees): the third-row
// shells of the basis.
Molecule hydrogen_sulfide() {
  Molecule m;
  m.add(Element::S, {0.1, -0.05, 0.2});
  m.add(Element::H, {2.6, 0.1, 0.45});
  m.add(Element::H, {0.05, 2.45, -0.35});
  return m;
}

TEST(RhfGradient, H2MatchesFiniteDifference) {
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  m.add(Element::H, {0, 0, 1.4});
  expect_match(m, 1e-6);
}

TEST(RhfGradient, H2OffAxisOrientation) {
  Molecule m;
  m.add(Element::H, {0.1, -0.2, 0.05});
  m.add(Element::H, {0.9, 0.6, 1.1});
  expect_match(m, 1e-6);
}

TEST(RhfGradient, WaterMatchesFiniteDifference) {
  // Exercises s and p shells, all derivative classes, and the
  // Hellmann-Feynman term on a polyatomic.
  expect_match(chem::make_water({0, 0, 0}), 5e-6);
}

TEST(RhfGradient, RotatedWater) {
  expect_match(chem::make_water({0.5, -0.3, 0.2}, 0.9), 5e-6);
}

TEST(RhfGradient, TranslationalSumRuleExact) {
  // Sum of gradient over atoms vanishes component-wise (analytic
  // translational invariance, no FD noise involved).
  expect_translational_sum_rule(analytic(chem::make_water({0, 0, 0}, 0.3)));
}

TEST(RhfGradient, NearZeroAtEquilibriumBondLength) {
  // H2 near the STO-3G minimum (~1.346 bohr): tiny gradient that flips
  // sign across the minimum.
  Molecule at_min;
  at_min.add(Element::H, {0, 0, 0});
  at_min.add(Element::H, {0, 0, 1.346});
  const la::Vector g = analytic(at_min);
  EXPECT_LT(std::fabs(g[5]), 5e-3);

  Molecule stretched;
  stretched.add(Element::H, {0, 0, 0});
  stretched.add(Element::H, {0, 0, 1.8});
  const la::Vector gs = analytic(stretched);
  EXPECT_GT(gs[5], 0.02);  // pulled back toward the minimum? No: dE/dz > 0
  Molecule squeezed;
  squeezed.add(Element::H, {0, 0, 0});
  squeezed.add(Element::H, {0, 0, 1.0});
  const la::Vector gq = analytic(squeezed);
  EXPECT_LT(gq[5], -0.02);
}

TEST(RhfGradient, SplitValenceBasisMatchesFiniteDifference) {
  // The derivative machinery is basis-agnostic: validate in 6-31G too.
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  m.add(Element::H, {0, 0, 1.5});
  auto ctx = std::make_shared<scf::ScfContext>(
      scf::ScfContext::build(m, scf::BasisKind::kB631g));
  scf::ScfOptions opts;
  opts.energy_tolerance = 1e-12;
  opts.commutator_tolerance = 1e-9;
  const auto res = scf::ScfSolver(ctx, opts).solve();
  const la::Vector ana = rhf_gradient(*ctx, res);

  const double h = 2e-4;
  auto energy_at = [&](double dz) {
    Molecule d = m.displaced(1, {0, 0, dz});
    auto c = std::make_shared<scf::ScfContext>(
        scf::ScfContext::build(d, scf::BasisKind::kB631g));
    return scf::ScfSolver(c, opts).solve().energy;
  };
  const double fd = (energy_at(+h) - energy_at(-h)) / (2.0 * h);
  EXPECT_NEAR(ana[5], fd, 1e-6);
}

// The LDA gradient is the exact derivative of the grid energy the LDA SCF
// minimises: its basis-function, point-moving and Becke-weight terms
// included, it matches central differences of that energy.
TEST(LdaGradient, OffAxisRotatedWaterMatchesFiniteDifference) {
  expect_match(chem::make_water({0.5, -0.3, 0.2}, 0.9), 1e-6,
               scf::XcModel::kLda);
}

TEST(LdaGradient, SplitValenceWaterMatchesFiniteDifference) {
  expect_match(chem::make_water({0.2, 0.1, -0.3}, 0.4), 1e-6,
               scf::XcModel::kLda, scf::BasisKind::kB631g);
}

TEST(LdaGradient, HydrogenSulfideMatchesFiniteDifference) {
  expect_match(hydrogen_sulfide(), 1e-6, scf::XcModel::kLda);
}

TEST(LdaGradient, TranslationalSumRuleExact) {
  expect_translational_sum_rule(
      analytic(chem::make_water({0, 0, 0}, 0.3), scf::XcModel::kLda));
  expect_translational_sum_rule(
      analytic(hydrogen_sulfide(), scf::XcModel::kLda));
}

// Every value of an ERI tensor and the HF and LDA gradients, as raw bytes.
struct IntegralBytes {
  std::vector<double> eri;
  la::Vector grad;
  la::Vector lda_grad;
};

IntegralBytes integral_bytes(const scf::ScfContext& ctx,
                             const scf::ScfResult& res,
                             const scf::ScfResult& lda_res) {
  IntegralBytes out;
  const EriTensor eri(ctx.bs);
  const std::size_t n = eri.n_functions();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t l = 0; l < n; ++l)
          out.eri.push_back(eri(i, j, k, l));
  out.grad = rhf_gradient(ctx, res);
  out.lda_grad = lda_gradient(ctx, lda_res, scf::ScfOptions{}.grid_radial_points);
  return out;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(RhfGradient, ConcurrentBuildsMatchSerialBitwise) {
  // The Hermite kernels keep per-thread scratch; builds running at once on
  // every thread of a pool must not disturb each other.
  const Molecule w = chem::make_water({0.1, -0.2, 0.3}, 0.7);
  auto ctx = std::make_shared<scf::ScfContext>(
      scf::ScfContext::build(w, scf::BasisKind::kB631g));
  const auto res = scf::ScfSolver(ctx).solve();
  scf::ScfOptions lda_opts;
  lda_opts.xc = scf::XcModel::kLda;
  const auto lda_res = scf::ScfSolver(ctx, lda_opts).solve();
  const IntegralBytes serial = integral_bytes(*ctx, res, lda_res);

  constexpr std::size_t kThreads = 4;
  ThreadPool pool(kThreads);
  // Each task holds its helper until all are running, so the four builds
  // overlap on four distinct threads.
  std::latch all_started(kThreads);
  std::vector<std::future<IntegralBytes>> futures;
  for (std::size_t t = 0; t < kThreads; ++t)
    futures.push_back(pool.submit([&] {
      all_started.arrive_and_wait();
      return integral_bytes(*ctx, res, lda_res);
    }));
  for (std::size_t t = 0; t < kThreads; ++t) {
    const IntegralBytes got = futures[t].get();
    EXPECT_TRUE(bitwise_equal(got.eri, serial.eri)) << "thread task " << t;
    EXPECT_TRUE(bitwise_equal(got.grad, serial.grad)) << "thread task " << t;
    EXPECT_TRUE(bitwise_equal(got.lda_grad, serial.lda_grad))
        << "thread task " << t;
  }
}

TEST(RhfGradient, RequiresConvergedScf) {
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(w));
  scf::ScfResult fake;
  EXPECT_THROW(rhf_gradient(*ctx, fake), InvalidArgument);
  EXPECT_THROW(lda_gradient(*ctx, fake, 40), InvalidArgument);
}

}  // namespace
}  // namespace qfr::ints
