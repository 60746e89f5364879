#include "qfr/poisson/multipole_poisson.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "qfr/common/error.hpp"
#include "qfr/common/units.hpp"
#include "qfr/poisson/spherical_harmonics.hpp"

namespace qfr::poisson {

MultipolePoisson::MultipolePoisson(const grid::MolGrid& grid, int lmax)
    : grid_(grid), lmax_(lmax) {
  QFR_REQUIRE(lmax >= 0 && lmax <= 6, "lmax out of supported range");
  const auto& ang = grid.angular();
  ylm_ang_.resize(ang.directions.size());
  for (std::size_t k = 0; k < ang.directions.size(); ++k)
    real_spherical_harmonics(ang.directions[k], lmax_, ylm_ang_[k]);

  // Ascending radial ordering per atom (the Chebyshev map emits descending
  // radii).
  const std::size_t n_atoms = grid_.n_atoms();
  shell_order_.resize(n_atoms);
  shell_radius_.resize(n_atoms);
  shell_wradial_.resize(n_atoms);
  for (std::size_t a = 0; a < n_atoms; ++a) {
    const auto nodes = grid_.radial_nodes(a);
    std::vector<std::size_t> order(nodes.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return nodes[x] < nodes[y];
    });
    shell_order_[a] = order;
    shell_radius_[a].reserve(order.size());
    for (std::size_t s : order) shell_radius_[a].push_back(nodes[s]);
  }

  // Radial weights per (atom, shell): every angular point of a shell shares
  // the same w_radial, so take it from the first point seen.
  std::vector<std::vector<double>> wr(n_atoms);
  for (std::size_t a = 0; a < n_atoms; ++a)
    wr[a].assign(grid_.radial_nodes(a).size(), 0.0);
  for (const auto& gp : grid_.points())
    wr[gp.atom][gp.radial_shell] = gp.w_radial;
  for (std::size_t a = 0; a < n_atoms; ++a) {
    shell_wradial_[a].reserve(shell_order_[a].size());
    for (std::size_t s : shell_order_[a])
      shell_wradial_[a].push_back(wr[a][s]);
  }
}

MultipolePoisson::RadialSolution MultipolePoisson::solve_moments(
    std::span<const double> rho) const {
  QFR_REQUIRE(rho.size() == grid_.size(), "density size mismatch");
  const std::size_t n_atoms = grid_.n_atoms();
  const std::size_t n_lm = n_harmonics(lmax_);

  // rho_lm per (atom, original shell index).
  std::vector<la::Matrix> rho_lm(n_atoms);
  for (std::size_t a = 0; a < n_atoms; ++a)
    rho_lm[a].resize_zero(n_lm, grid_.radial_nodes(a).size());

  const auto points = grid_.points();
  for (std::size_t p = 0; p < points.size(); ++p) {
    const auto& gp = points[p];
    const double rho_part = rho[p] * gp.becke;
    if (rho_part == 0.0) continue;
    const auto& ylm = ylm_ang_[gp.angular_index];
    auto& m = rho_lm[gp.atom];
    for (std::size_t lm = 0; lm < n_lm; ++lm)
      m(lm, gp.radial_shell) += gp.w_angular * ylm[lm] * rho_part;
  }

  RadialSolution sol;
  sol.lower_prefix.resize(n_atoms);
  sol.upper_suffix.resize(n_atoms);
  for (std::size_t a = 0; a < n_atoms; ++a) {
    const auto& order = shell_order_[a];
    const auto& radius = shell_radius_[a];
    const auto& w = shell_wradial_[a];
    const std::size_t ns = order.size();
    sol.lower_prefix[a].resize_zero(n_lm, ns);
    sol.upper_suffix[a].resize_zero(n_lm, ns);
    for (int l = 0; l <= lmax_; ++l)
      for (int m = -l; m <= l; ++m) {
        const std::size_t lm = lm_index(l, m);
        // lower_prefix[i] = sum_{j<=i} w_j rho_lm(s_j) s_j^l.
        double acc = 0.0;
        for (std::size_t i = 0; i < ns; ++i) {
          acc += w[i] * rho_lm[a](lm, order[i]) *
                 std::pow(radius[i], static_cast<double>(l));
          sol.lower_prefix[a](lm, i) = acc;
        }
        // upper_suffix[i] = sum_{j>=i} w_j rho_lm(s_j) s_j^(-l-1).
        acc = 0.0;
        for (std::size_t i = ns; i-- > 0;) {
          acc += w[i] * rho_lm[a](lm, order[i]) *
                 std::pow(radius[i], static_cast<double>(-l - 1));
          sol.upper_suffix[a](lm, i) = acc;
        }
      }
  }
  return sol;
}

double MultipolePoisson::evaluate(const RadialSolution& sol,
                                  const geom::Vec3& r) const {
  double v = 0.0;
  std::vector<double> ylm;
  for (std::size_t a = 0; a < grid_.n_atoms(); ++a) {
    const geom::Vec3 d = r - grid_.atom_center(a);
    const double dist = std::max(d.norm(), 1e-10);
    real_spherical_harmonics(d, lmax_, ylm);
    const auto& radius = shell_radius_[a];
    // Number of shells with s_i <= dist.
    const auto it = std::upper_bound(radius.begin(), radius.end(), dist);
    const auto below = static_cast<std::size_t>(it - radius.begin());
    const std::size_t ns = radius.size();
    for (int l = 0; l <= lmax_; ++l) {
      const double pref = 4.0 * units::kPi / (2.0 * l + 1.0);
      const double rl = std::pow(dist, static_cast<double>(l));
      const double rinv = std::pow(dist, static_cast<double>(-l - 1));
      for (int m = -l; m <= l; ++m) {
        const std::size_t lm = lm_index(l, m);
        const double lower =
            (below > 0) ? sol.lower_prefix[a](lm, below - 1) : 0.0;
        const double upper =
            (below < ns) ? sol.upper_suffix[a](lm, below) : 0.0;
        v += pref * (rinv * lower + rl * upper) * ylm[lm];
      }
    }
  }
  return v;
}

la::Vector MultipolePoisson::solve(std::span<const double> rho) const {
  const RadialSolution sol = solve_moments(rho);
  const auto points = grid_.points();
  la::Vector v(points.size(), 0.0);
  for (std::size_t p = 0; p < points.size(); ++p)
    v[p] = evaluate(sol, points[p].r);
  return v;
}

}  // namespace qfr::poisson
