#include <gtest/gtest.h>

#include <cmath>

#include "qfr/chem/molecule.hpp"
#include "qfr/common/units.hpp"
#include "qfr/grid/molgrid.hpp"
#include "qfr/grid/orbital_eval.hpp"
#include "qfr/scf/scf.hpp"

namespace qfr {
namespace {

using chem::Element;
using chem::Molecule;

TEST(AngularRule, WeightsSumToOne) {
  const auto& rule = grid::angular_rule_26();
  ASSERT_EQ(rule.directions.size(), 26u);
  double sum = 0.0;
  for (double w : rule.weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-14);
  for (const auto& d : rule.directions) EXPECT_NEAR(d.norm(), 1.0, 1e-14);
}

TEST(AngularRule, IntegratesLowOrderPolynomialsExactly) {
  // <x^2> over the unit sphere = 1/3; <x^4> = 1/5; <x^2 y^2> = 1/15.
  const auto& rule = grid::angular_rule_26();
  double x2 = 0.0, x4 = 0.0, x2y2 = 0.0, x1 = 0.0;
  for (std::size_t k = 0; k < rule.directions.size(); ++k) {
    const auto& d = rule.directions[k];
    const double w = rule.weights[k];
    x1 += w * d.x;
    x2 += w * d.x * d.x;
    x4 += w * d.x * d.x * d.x * d.x;
    x2y2 += w * d.x * d.x * d.y * d.y;
  }
  EXPECT_NEAR(x1, 0.0, 1e-14);
  EXPECT_NEAR(x2, 1.0 / 3.0, 1e-13);
  EXPECT_NEAR(x4, 1.0 / 5.0, 1e-13);
  EXPECT_NEAR(x2y2, 1.0 / 15.0, 1e-13);
}

TEST(MolGrid, IntegratesGaussianExactly) {
  // int exp(-a r^2) d3r = (pi/a)^(3/2) around a single center.
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  grid::MolGrid g(m, 60);
  const double a = 0.8;
  const double val = g.integrate([&](std::size_t i) {
    return std::exp(-a * g.points()[i].r.norm2());
  });
  EXPECT_NEAR(val, std::pow(units::kPi / a, 1.5), 1e-6);
}

TEST(MolGrid, BeckeWeightsPartitionUnity) {
  // Integrating 1 * gaussian centered between two atoms must equal the
  // single-center result: partition of unity.
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  m.add(Element::H, {0, 0, 1.4});
  grid::MolGrid g(m, 60, /*n_theta=*/8);
  const geom::Vec3 c{0, 0, 0.7};
  const double a = 1.1;
  const double val = g.integrate([&](std::size_t i) {
    return std::exp(-a * (g.points()[i].r - c).norm2());
  });
  // The smoothed Becke partition limits multi-center accuracy to ~1e-5
  // relative even with an exact angular rule.
  EXPECT_NEAR(val, std::pow(units::kPi / a, 1.5), 5e-4);
}

TEST(MolGrid, ScfDensityIntegratesToElectronCount) {
  const Molecule w = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(w));
  const auto res = scf::ScfSolver(ctx).solve();
  grid::MolGrid g(w, 50, /*n_theta=*/8);
  const auto batch = grid::evaluate_basis(ctx->bs, g.points(), false);
  const la::Vector rho = grid::density_on_batch(batch, res.density);
  double n = 0.0;
  for (std::size_t i = 0; i < rho.size(); ++i)
    n += g.points()[i].weight * rho[i];
  EXPECT_NEAR(n, 10.0, 5e-3);
}

TEST(OrbitalEval, GradientMatchesFiniteDifference) {
  const Molecule w = chem::make_water({0, 0, 0});
  const auto bs = basis::BasisSet::sto3g(w);
  const double h = 1e-5;
  grid::GridPoint base;
  base.r = {0.31, -0.22, 0.57};
  for (int c = 0; c < 3; ++c) {
    grid::GridPoint plus = base, minus = base;
    plus.r[c] += h;
    minus.r[c] -= h;
    const grid::GridPoint pts_arr[3] = {base, plus, minus};
    const auto batch =
        grid::evaluate_basis(bs, std::span<const grid::GridPoint>(pts_arr, 3),
                             /*with_gradient=*/true);
    for (std::size_t mu = 0; mu < bs.n_functions(); ++mu) {
      const double fd = (batch.chi(1, mu) - batch.chi(2, mu)) / (2.0 * h);
      EXPECT_NEAR(batch.grad[c](0, mu), fd, 1e-6)
          << "component " << c << " bf " << mu;
    }
  }
}

}  // namespace
}  // namespace qfr
