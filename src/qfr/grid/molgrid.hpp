#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "qfr/chem/molecule.hpp"
#include "qfr/geom/vec3.hpp"

namespace qfr::grid {

/// One integration point with its Becke-partitioned quadrature weight.
struct GridPoint {
  geom::Vec3 r;        ///< bohr
  double weight = 0.0; ///< includes radial, angular and partition weights
  std::size_t atom = 0;      ///< owning center
  std::size_t radial_shell = 0;  ///< index of the radial shell on that center
  std::size_t angular_index = 0; ///< index into the angular rule
  double w_radial = 0.0;   ///< radial quadrature weight incl. r^2 (bohr^3)
  double w_angular = 0.0;  ///< angular weight times 4*pi
  double becke = 1.0;      ///< Becke partition factor of the owning atom
};

/// An angular quadrature rule on the unit sphere: unit directions and
/// weights (weights sum to 1; multiply by 4*pi for the spherical measure).
struct AngularRule {
  std::vector<geom::Vec3> directions;
  std::vector<double> weights;
};

/// The 26-point octahedral rule (exact through l = 7).
const AngularRule& angular_rule_26();

/// Product rule: n_theta Gauss-Legendre nodes in cos(theta) times
/// 2*n_theta uniform phi nodes; exact through l = 2*n_theta - 1.
AngularRule angular_rule_product(int n_theta);

/// Atom-centered molecular integration grid (Becke partitioning).
///
/// Radial: Gauss-Chebyshev (2nd kind) mapped onto (0, inf) with the Becke
/// transformation r = rm (1+x)/(1-x). Angular: selectable (see the
/// constructor). This mirrors the all-electron real-space machinery of
/// FHI-aims that QF-RAMAN builds on: densities and potentials live on
/// these points, and the hot kernels are dense GEMMs over batches of them.
class MolGrid {
 public:
  /// n_radial points per atom. n_theta selects the angular rule:
  /// 0 (default) = the 26-point octahedral rule (cheap; the workhorse for
  /// SCF/DFPT where internal consistency matters more than absolute
  /// accuracy); n_theta >= 2 = the product rule with 2*n_theta^2 points.
  MolGrid(const chem::Molecule& mol, int n_radial, int n_theta = 0);

  std::size_t size() const { return points_.size(); }
  std::span<const GridPoint> points() const { return points_; }

  std::size_t n_atoms() const { return n_atoms_; }
  int n_radial() const { return n_radial_; }
  std::size_t n_angular() const { return angular_.directions.size(); }

  /// The angular rule used on every radial shell.
  const AngularRule& angular() const { return angular_; }

  /// Radial node positions for one atom (bohr), shared across atoms of the
  /// same element scaling; indexed by radial_shell.
  std::span<const double> radial_nodes(std::size_t atom) const;

  /// Position of atom a (bohr).
  const geom::Vec3& atom_center(std::size_t atom) const {
    return centers_[atom];
  }

  /// Integrate a per-point function f(point_index) over the grid.
  template <typename F>
  double integrate(const F& f) const {
    double acc = 0.0;
    for (std::size_t i = 0; i < points_.size(); ++i)
      acc += points_[i].weight * f(i);
    return acc;
  }

  /// Adds sum_p f_p dw_p/dR_A to `grad` (3 n_atoms, atom-major): the
  /// derivative of the grid integral sum_p w_p f_p through the Becke
  /// partition factors (Johnson, Gill & Pople, J. Chem. Phys. 98, 5612
  /// (1993)), with every point moving rigidly with its owning atom. The
  /// radial and angular weights do not depend on the geometry. The owner's
  /// derivative is minus the sum of the others', so the result obeys the
  /// translational sum rule exactly.
  void accumulate_weight_gradient(std::span<const double> f,
                                  std::span<double> grad) const;

 private:
  std::vector<GridPoint> points_;
  std::vector<geom::Vec3> centers_;
  std::vector<std::vector<double>> radial_nodes_;  // per atom
  std::size_t n_atoms_ = 0;
  int n_radial_ = 0;
  AngularRule angular_;
};

}  // namespace qfr::grid
