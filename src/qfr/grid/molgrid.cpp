#include "qfr/grid/molgrid.hpp"

#include <cmath>
#include <vector>

#include "qfr/common/error.hpp"
#include "qfr/common/units.hpp"

namespace qfr::grid {

namespace {

// Becke radial map scale per element (bohr), roughly half the covalent
// radius heuristic used by standard grid generators.
double radial_scale(chem::Element e) {
  switch (e) {
    case chem::Element::H: return 0.8;
    case chem::Element::C: return 1.4;
    case chem::Element::N: return 1.3;
    case chem::Element::O: return 1.2;
    case chem::Element::S: return 1.8;
  }
  return 1.0;
}

// Becke's smoothing polynomial and its derivative.
double becke_poly(double x) { return 1.5 * x - 0.5 * x * x * x; }
double becke_poly_derivative(double x) { return 1.5 - 1.5 * x * x; }

// Becke's smoothing polynomial applied three times.
double becke_step(double mu) { return becke_poly(becke_poly(becke_poly(mu))); }

// d becke_step / d mu by the chain rule through the three applications.
double becke_step_derivative(double mu) {
  const double f1 = becke_poly(mu);
  const double f2 = becke_poly(f1);
  return becke_poly_derivative(f2) * becke_poly_derivative(f1) *
         becke_poly_derivative(mu);
}

}  // namespace

const AngularRule& angular_rule_26() {
  static const AngularRule rule = [] {
    AngularRule r;
    const double w1 = 1.0 / 21.0;        // 6 vertices
    const double w2 = 4.0 / 105.0;       // 12 edge midpoints
    const double w3 = 27.0 / 840.0;      // 8 face centers
    const double s2 = 1.0 / std::sqrt(2.0);
    const double s3 = 1.0 / std::sqrt(3.0);
    for (int sgn = -1; sgn <= 1; sgn += 2)
      for (int axis = 0; axis < 3; ++axis) {
        geom::Vec3 v;
        v[axis] = sgn;
        r.directions.push_back(v);
        r.weights.push_back(w1);
      }
    for (int a = 0; a < 3; ++a)
      for (int sa = -1; sa <= 1; sa += 2)
        for (int sb = -1; sb <= 1; sb += 2) {
          geom::Vec3 v;
          v[a] = 0.0;
          v[(a + 1) % 3] = sa * s2;
          v[(a + 2) % 3] = sb * s2;
          r.directions.push_back(v);
          r.weights.push_back(w2);
        }
    for (int sx = -1; sx <= 1; sx += 2)
      for (int sy = -1; sy <= 1; sy += 2)
        for (int sz = -1; sz <= 1; sz += 2) {
          r.directions.push_back({sx * s3, sy * s3, sz * s3});
          r.weights.push_back(w3);
        }
    return r;
  }();
  return rule;
}

AngularRule angular_rule_product(int n_theta) {
  QFR_REQUIRE(n_theta >= 2, "product angular rule needs n_theta >= 2");
  AngularRule rule;
  // Gauss-Legendre nodes/weights on (-1, 1) by Newton iteration on P_n.
  const int n = n_theta;
  std::vector<double> x(n), w(n);
  for (int i = 0; i < n; ++i) {
    double xi = std::cos(units::kPi * (i + 0.75) / (n + 0.5));
    for (int it = 0; it < 100; ++it) {
      // Legendre P_n(xi) and derivative via recurrence.
      double p0 = 1.0, p1 = xi;
      for (int k = 2; k <= n; ++k) {
        const double p2 = ((2.0 * k - 1.0) * xi * p1 - (k - 1.0) * p0) / k;
        p0 = p1;
        p1 = p2;
      }
      const double dp = n * (xi * p1 - p0) / (xi * xi - 1.0);
      const double dx = p1 / dp;
      xi -= dx;
      if (std::fabs(dx) < 1e-15) break;
    }
    double p0 = 1.0, p1 = xi;
    for (int k = 2; k <= n; ++k) {
      const double p2 = ((2.0 * k - 1.0) * xi * p1 - (k - 1.0) * p0) / k;
      p0 = p1;
      p1 = p2;
    }
    const double dp = n * (xi * p1 - p0) / (xi * xi - 1.0);
    x[i] = xi;
    w[i] = 2.0 / ((1.0 - xi * xi) * dp * dp);
  }
  const int n_phi = 2 * n_theta;
  for (int i = 0; i < n; ++i) {
    const double ct = x[i];
    const double st = std::sqrt(std::max(0.0, 1.0 - ct * ct));
    for (int j = 0; j < n_phi; ++j) {
      const double phi = 2.0 * units::kPi * (j + 0.5) / n_phi;
      rule.directions.push_back(
          {st * std::cos(phi), st * std::sin(phi), ct});
      // Total weights sum to 1: GL weight (sums to 2) / 2 / n_phi.
      rule.weights.push_back(w[i] * 0.5 / n_phi);
    }
  }
  return rule;
}

MolGrid::MolGrid(const chem::Molecule& mol, int n_radial, int n_theta)
    : n_atoms_(mol.size()), n_radial_(n_radial) {
  QFR_REQUIRE(n_radial >= 4, "need at least 4 radial points");
  QFR_REQUIRE(!mol.empty(), "cannot build a grid for an empty molecule");
  angular_ = (n_theta == 0) ? angular_rule_26() : angular_rule_product(n_theta);
  const auto& ang = angular_;

  centers_.reserve(mol.size());
  for (const auto& a : mol.atoms()) centers_.push_back(a.position);
  radial_nodes_.resize(mol.size());
  points_.reserve(mol.size() * static_cast<std::size_t>(n_radial) *
                  ang.directions.size());

  for (std::size_t a = 0; a < mol.size(); ++a) {
    const double rm = radial_scale(mol.atom(a).element);
    radial_nodes_[a].reserve(n_radial);
    for (int i = 1; i <= n_radial; ++i) {
      // Gauss-Chebyshev 2nd kind on (-1, 1): x_i = cos(i pi / (n+1)),
      // w_i = pi/(n+1) sin^2(i pi/(n+1)); Becke map r = rm (1+x)/(1-x).
      const double t = static_cast<double>(i) * units::kPi /
                       (static_cast<double>(n_radial) + 1.0);
      const double x = std::cos(t);
      const double wch = units::kPi / (static_cast<double>(n_radial) + 1.0) *
                         std::sin(t) * std::sin(t);
      const double r = rm * (1.0 + x) / (1.0 - x);
      // dr/dx = 2 rm / (1-x)^2; Chebyshev weight includes the
      // 1/sqrt(1-x^2) measure compensation: w(x) = wch / sqrt(1-x^2).
      const double drdx = 2.0 * rm / ((1.0 - x) * (1.0 - x));
      const double wr = wch / std::sqrt(1.0 - x * x) * drdx * r * r;
      radial_nodes_[a].push_back(r);

      for (std::size_t k = 0; k < ang.directions.size(); ++k) {
        GridPoint gp;
        gp.r = mol.atom(a).position + ang.directions[k] * r;
        gp.w_radial = wr;
        gp.w_angular = 4.0 * units::kPi * ang.weights[k];
        gp.weight = gp.w_radial * gp.w_angular;
        gp.atom = a;
        gp.radial_shell = static_cast<std::size_t>(i - 1);
        gp.angular_index = k;
        points_.push_back(gp);
      }
    }
  }

  // Becke partition weights.
  if (mol.size() > 1) {
    for (auto& gp : points_) {
      double num = 0.0, den = 0.0;
      for (std::size_t a = 0; a < mol.size(); ++a) {
        double pa = 1.0;
        for (std::size_t b = 0; b < mol.size(); ++b) {
          if (a == b) continue;
          const double ra = geom::distance(gp.r, mol.atom(a).position);
          const double rb = geom::distance(gp.r, mol.atom(b).position);
          const double rab =
              geom::distance(mol.atom(a).position, mol.atom(b).position);
          const double mu = (ra - rb) / rab;
          pa *= 0.5 * (1.0 - becke_step(mu));
        }
        den += pa;
        if (a == gp.atom) num = pa;
      }
      gp.becke = (den > 0.0) ? num / den : 0.0;
      gp.weight *= gp.becke;
    }
  }
}

void MolGrid::accumulate_weight_gradient(std::span<const double> f,
                                         std::span<double> grad) const {
  QFR_REQUIRE(f.size() == points_.size(),
              "weight gradient needs one value per point, got "
                  << f.size() << " for " << points_.size() << " points");
  QFR_REQUIRE(grad.size() == 3 * n_atoms_,
              "weight gradient needs 3 entries per atom, got " << grad.size());
  const std::size_t n = n_atoms_;
  if (n < 2) return;

  // Per-point scratch: distances and unit vectors from every atom, the
  // cell factors s(mu_ab) and their derivatives ds/dmu, the cell
  // functions P_a = prod_b s(mu_ab).
  std::vector<double> dist(n), s(n * n), ds(n * n), cell(n);
  std::vector<geom::Vec3> unit(n);
  // Inter-atomic distances R_ab and unit vectors e_ab = (R_a - R_b)/R_ab.
  std::vector<double> rab(n * n, 0.0);
  std::vector<geom::Vec3> eab(n * n);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const geom::Vec3 d = centers_[a] - centers_[b];
      rab[a * n + b] = d.norm();
      eab[a * n + b] = d / rab[a * n + b];
    }
  // P_a without its factor s(mu_ab).
  auto cell_without = [&](std::size_t a, std::size_t b) {
    double prod = 1.0;
    for (std::size_t c = 0; c < n; ++c)
      if (c != a && c != b) prod *= s[a * n + c];
    return prod;
  };
  // Explicit partials of mu_ab = (|r - R_a| - |r - R_b|) / R_ab at fixed r.
  auto dmu_da = [&](std::size_t a, std::size_t b) {
    const double mu = (dist[a] - dist[b]) / rab[a * n + b];
    return (unit[a] + eab[a * n + b] * mu) * (-1.0 / rab[a * n + b]);
  };
  auto dmu_db = [&](std::size_t a, std::size_t b) {
    const double mu = (dist[a] - dist[b]) / rab[a * n + b];
    return (unit[b] + eab[a * n + b] * mu) / rab[a * n + b];
  };

  for (std::size_t i = 0; i < points_.size(); ++i) {
    const GridPoint& gp = points_[i];
    const double scale = gp.w_radial * gp.w_angular * f[i];
    if (scale == 0.0) continue;
    for (std::size_t a = 0; a < n; ++a) {
      const geom::Vec3 d = gp.r - centers_[a];
      dist[a] = d.norm();
      unit[a] = dist[a] > 0.0 ? d / dist[a] : geom::Vec3{};
    }
    double den = 0.0;
    for (std::size_t a = 0; a < n; ++a) {
      cell[a] = 1.0;
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        const double mu = (dist[a] - dist[b]) / rab[a * n + b];
        s[a * n + b] = 0.5 * (1.0 - becke_step(mu));
        ds[a * n + b] = -0.5 * becke_step_derivative(mu);
        cell[a] *= s[a * n + b];
      }
      den += cell[a];
    }
    if (den <= 0.0) continue;

    // The point's factor is Z = P_g / sum_b P_b for its owner g. For every
    // other atom A the point stays put, so dZ/dR_A is the explicit
    // partial; the owner takes minus their sum (translational invariance).
    const std::size_t g = gp.atom;
    for (std::size_t atom = 0; atom < n; ++atom) {
      if (atom == g) continue;
      geom::Vec3 d_cell_g, d_den;
      for (std::size_t b = 0; b < n; ++b) {
        geom::Vec3 d_cell;
        if (b == atom) {
          for (std::size_t c = 0; c < n; ++c)
            if (c != atom)
              d_cell += dmu_da(atom, c) *
                        (cell_without(atom, c) * ds[atom * n + c]);
        } else {
          d_cell = dmu_db(b, atom) *
                   (cell_without(b, atom) * ds[b * n + atom]);
        }
        d_den += d_cell;
        if (b == g) d_cell_g = d_cell;
      }
      const geom::Vec3 dz =
          (d_cell_g * den - d_den * cell[g]) * (scale / (den * den));
      for (int c = 0; c < 3; ++c) {
        grad[3 * atom + c] += dz[c];
        grad[3 * g + c] -= dz[c];
      }
    }
  }
}

std::span<const double> MolGrid::radial_nodes(std::size_t atom) const {
  QFR_REQUIRE(atom < radial_nodes_.size(), "atom index out of range");
  return radial_nodes_[atom];
}

}  // namespace qfr::grid
