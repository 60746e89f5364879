#pragma once

#include <array>
#include <memory>
#include <optional>

#include "qfr/basis/basis.hpp"
#include "qfr/chem/molecule.hpp"
#include "qfr/common/cancel.hpp"
#include "qfr/integrals/eri.hpp"
#include "qfr/la/batched_executor.hpp"
#include "qfr/la/matrix.hpp"

namespace qfr::grid {
class MolGrid;  // forward: used by the LDA path
}

namespace qfr::scf {

/// Electronic-structure model for the two-electron part.
enum class XcModel {
  kHartreeFock,  ///< exact exchange (the validation reference path)
  kLda,          ///< local density approximation on the real-space grid
};

/// SCF convergence controls.
struct ScfOptions {
  XcModel xc = XcModel::kHartreeFock;
  int max_iterations = 128;
  double energy_tolerance = 1e-9;
  double commutator_tolerance = 1e-6;  ///< max |FPS - SPF|
  int diis_depth = 8;
  /// Grid quality for the LDA path (radial points per atom).
  int grid_radial_points = 40;
  /// Uniform external electric field (a.u.); the finite-field reference
  /// for validating the DFPT polarizabilities.
  geom::Vec3 external_field{};
  /// Virtual-orbital level shift (hartree): F' = F + shift (S - S(P/2)S)
  /// raises the virtual space, damping occupied/virtual mixing for
  /// near-degenerate systems. 0 disables.
  double level_shift = 0.0;
  /// Density damping d in p <- (1-d) p_new + d p_old; 0 disables.
  double density_damping = 0.0;
  /// When the first pass hits max_iterations, retry once with the
  /// escalated level shift/damping below before throwing NumericalError —
  /// the standard rescue for oscillating SCF on stretched geometries.
  bool escalate_on_nonconvergence = true;
  double escalation_level_shift = 0.5;
  double escalation_damping = 0.5;
  /// Cooperative cancellation: polled once per SCF iteration; a cancelled
  /// token aborts the solve with CancelledError (the runtime revoked this
  /// fragment's lease). Default token is null — never cancelled, no cost.
  common::CancelToken cancel;
  /// Executor for the solver's GEMM-shaped work (DIIS commutators,
  /// level-shift projector, density builds), externally owned and shared
  /// across solves (one per displacement worker; its policy picks batched
  /// or eager execution); must outlive every solve() call. Null makes
  /// each solve use a private kBatched executor.
  la::BatchedExecutor* batch = nullptr;
};

/// Which built-in basis set a context is constructed with.
enum class BasisKind {
  kSto3g,  ///< minimal basis (H, C, N, O, S) — the default
  kB631g,  ///< split-valence 6-31G (H, C, N, O)
};

/// Immutable per-molecule integral workspace shared by SCF and DFPT.
///
/// Building it once per fragment and reusing it across the displacement
/// loop's response solves is the single biggest cost saver; the paper's
/// per-fragment DFPT cycle has the same structure.
struct ScfContext {
  chem::Molecule mol;
  basis::BasisSet bs;
  la::Matrix s;          ///< overlap
  la::Matrix hcore;      ///< kinetic + nuclear attraction
  ints::EriTensor eri;
  std::array<la::Matrix, 3> dip;  ///< dipole integrals at charge center

  static ScfContext build(const chem::Molecule& mol,
                          BasisKind basis = BasisKind::kSto3g);
};

/// Total dipole moment (a.u.) about the coordinate origin for a given
/// total AO density: mu = sum_A Z_A R_A - Tr[P D] - c_charge * N_el,
/// where the stored dipole integrals are taken about the nuclear charge
/// center. Using a fixed global origin keeps finite-difference dipole
/// derivatives consistent across displaced geometries.
geom::Vec3 dipole_moment(const ScfContext& ctx, const la::Matrix& density);

/// Converged SCF state.
struct ScfResult {
  bool converged = false;
  /// The first pass failed and the escalated (shift + damping) retry
  /// delivered this result.
  bool escalated = false;
  int iterations = 0;
  double energy = 0.0;        ///< total energy incl. nuclear repulsion
  double energy_nuclear = 0.0;
  double energy_one = 0.0;    ///< Tr[P Hcore]
  double energy_two = 0.0;    ///< Coulomb (+ exchange for HF)
  double energy_xc = 0.0;     ///< LDA only
  int n_occupied = 0;
  la::Matrix density;         ///< total (spin-summed) AO density
  la::Matrix mo_coefficients; ///< columns are MOs
  la::Vector mo_energies;
  la::Matrix fock;            ///< converged Fock matrix
};

/// Restricted closed-shell SCF driver with DIIS acceleration.
class ScfSolver {
 public:
  ScfSolver(std::shared_ptr<const ScfContext> ctx, ScfOptions options = {});

  /// Runs to convergence; throws NumericalError if max_iterations is hit.
  /// `initial_density` (total density) seeds the iteration when provided —
  /// used by the displacement loops to warm-start neighboring geometries.
  ScfResult solve(const la::Matrix* initial_density = nullptr) const;

  const ScfContext& context() const { return *ctx_; }
  const ScfOptions& options() const { return options_; }

 private:
  std::shared_ptr<const ScfContext> ctx_;
  ScfOptions options_;
  std::shared_ptr<grid::MolGrid> grid_;  // LDA only
};

}  // namespace qfr::scf
