#pragma once

#include <memory>

#include "qfr/common/cancel.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/grid/molgrid.hpp"
#include "qfr/grid/orbital_eval.hpp"
#include "qfr/la/batched_executor.hpp"
#include "qfr/la/matrix.hpp"
#include "qfr/scf/scf.hpp"

namespace qfr::obs {
class Histogram;
}  // namespace qfr::obs

namespace qfr::dfpt {

/// Controls for the coupled-perturbed SCF solve.
struct DfptOptions {
  int max_iterations = 100;  ///< CG iterations (one induced_fock each)
  /// Converged when max|P(D^-1 r)| — the P1 change one unmixed
  /// fixed-point step would make from the current iterate — falls below.
  double tolerance = 1e-8;
  /// Cooperative cancellation: polled once per CPSCF iteration; a
  /// cancelled token aborts the solve with CancelledError (the runtime
  /// revoked this fragment's lease). Default token is null.
  common::CancelToken cancel;
  /// Executor for the P1 phase's GEMMs, externally owned (a displacement
  /// worker shares one across its SCF + DFPT solves, and its policy picks
  /// batched or eager execution); must outlive the engine. Null makes the
  /// engine own a private kBatched executor.
  la::BatchedExecutor* batch = nullptr;
};

/// Wall-clock seconds accumulated in the four phases of a DFPT cycle
/// (the quantities the paper times and reports in Table I / Fig. 9):
///   p1 — response density-matrix update        (paper: P^(1))
///   n1 — response density on the grid          (paper: n^(1)(r))
///   v1 — response Hartree potential J(P1)     (paper: Poisson solve)
///   h1 — response Hamiltonian assembly         (paper: H^(1))
struct PhaseTimes {
  double p1 = 0.0;
  double n1 = 0.0;
  double v1 = 0.0;
  double h1 = 0.0;
  double total() const { return p1 + n1 + v1 + h1; }
  PhaseTimes& operator+=(const PhaseTimes& o) {
    p1 += o.p1;
    n1 += o.n1;
    v1 += o.v1;
    h1 += o.h1;
    return *this;
  }
};

/// Result of one response solve (one perturbation direction).
struct ResponseResult {
  la::Matrix p1;      ///< first-order AO density matrix
  int iterations = 0;
};

/// Full polarizability tensor with diagnostics.
struct PolarizabilityResult {
  la::Matrix alpha;   ///< 3x3, symmetric, positive definite for bound systems
  PhaseTimes times;
  int total_iterations = 0;
};

/// Coupled-perturbed SCF engine for homogeneous electric-field
/// perturbations on a converged SCF state.
///
/// For XcModel::kHartreeFock the induced two-electron response is
/// J(P1) - K(P1)/2; for kLda it is J(P1) + f_xc * n1 integrated on the
/// grid — the latter follows the paper's four-phase cycle, with the
/// response Hartree potential from analytic ERIs instead of a grid Poisson
/// solve. Each perturbation is solved on its own (one CPSCF loop per field
/// direction), as in the paper's per-perturbation DFPT step.
class ResponseEngine {
 public:
  ResponseEngine(std::shared_ptr<const scf::ScfContext> ctx,
                 const scf::ScfResult& scf_state,
                 scf::XcModel xc = scf::XcModel::kHartreeFock,
                 DfptOptions options = {});

  /// Solve the CPSCF equations for an arbitrary perturbation matrix h1 by
  /// conjugate gradients on the occupied-virtual amplitudes, preconditioned
  /// with the orbital gaps: the four phases P1 -> n1 -> v1 -> H1 once per
  /// iteration and the cancel token polled every iteration. Non-positive
  /// curvature, a non-finite value or an exhausted max_iterations throws
  /// NumericalError.
  ResponseResult solve(const la::Matrix& h1);

  /// Polarizability via three response solves (one per field direction):
  /// alpha_cd = -Tr[P1^(d) D_c].
  PolarizabilityResult polarizability();

  /// Accumulated phase timings over all solves so far. The timers behind
  /// this accessor are registry-backed when an obs::Session is ambient at
  /// construction: every phase interval is also recorded into the
  /// dfpt.phase.{p1,n1,v1,h1}.seconds histograms, so run reports see the
  /// same decomposition without touching this engine-local mirror.
  const PhaseTimes& phase_times() const { return times_; }

  /// FLOPs executed in GEMM-shaped kernels so far (performance accounting
  /// for the Table I bench).
  std::int64_t gemm_flops() const { return flops_; }

 private:
  /// Induced two-electron response of one response density (phases
  /// n1/v1/h1 inside).
  la::Matrix induced_fock(const la::Matrix& p1);
  /// Close one phase: the lap of phase_clock_ since the previous phase
  /// closed goes into the local mirror and, when the engine was built
  /// under an ambient session, the registry histogram.
  void record_phase(double PhaseTimes::*field, obs::Histogram* hist);

  std::shared_ptr<const scf::ScfContext> ctx_;
  const scf::ScfResult scf_;
  scf::XcModel xc_;
  DfptOptions options_;
  PhaseTimes times_;
  /// Lap clock of the four phases, restarted at each solve: the
  /// phases tile the iterations, so the bookkeeping between them (timer
  /// reads, histogram updates, the cancel poll) is counted in a phase and
  /// the four-phase sum tracks cpscf.solve.seconds.
  WallTimer phase_clock_;
  std::int64_t flops_ = 0;

  // GEMM execution: borrowed from options_.batch or privately owned.
  std::unique_ptr<la::BatchedExecutor> owned_exec_;
  la::BatchedExecutor* exec_ = nullptr;

  // Registry handles resolved once at construction from the ambient
  // session (stable pointers; null = observability off).
  obs::Histogram* h_p1_ = nullptr;
  obs::Histogram* h_n1_ = nullptr;
  obs::Histogram* h_v1_ = nullptr;
  obs::Histogram* h_h1_ = nullptr;
  obs::Histogram* h_solve_ = nullptr;
  obs::Histogram* h_iters_ = nullptr;

  // LDA grid workspace.
  std::shared_ptr<grid::MolGrid> grid_;
  std::unique_ptr<grid::BasisBatch> batch_;
  la::Vector fxc_;  ///< f_xc(rho0) at each grid point
};

}  // namespace qfr::dfpt
