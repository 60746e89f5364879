#pragma once

#include <memory>

#include "qfr/cache/store.hpp"
#include "qfr/engine/fallback_chain.hpp"
#include "qfr/engine/fragment_engine.hpp"
#include "qfr/fault/validator.hpp"
#include "qfr/frag/assembly.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/obs/export.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/spectra/raman.hpp"

namespace qfr::obs {
class Session;
}  // namespace qfr::obs

namespace qfr::qframan {

/// Which per-fragment engine drives the sweep.
enum class EngineKind {
  kModel,   ///< classical polarizable surrogate (any size)
  kScfHf,   ///< ab initio RHF + CPHF (small fragments)
  kScfLda,  ///< ab initio LDA + DFPT through the grid kernels
};

/// Which spectral solver turns the global Hessian into a spectrum.
enum class SolverKind {
  kAuto,        ///< exact below 3N = 600, Lanczos+GAGQ above
  kExact,       ///< dense diagonalization (the conventional baseline)
  kLanczosGagq, ///< matrix-free Lanczos + averaged Gauss quadrature
  kLanczos,     ///< plain Lanczos (GAGQ ablation)
};

/// End-to-end configuration of a QF-RAMAN run.
struct WorkflowOptions {
  frag::FragmentationOptions fragmentation;
  EngineKind engine = EngineKind::kModel;
  /// Route the SCF engines' GEMM work through per-job BatchedExecutors
  /// (same-shape batching + SIMD microkernels). false forces eager
  /// per-product execution — the baseline side of parity tests and the
  /// fig09 real-vs-modeled bench. Ignored by the model engine.
  bool batched_gemm = true;
  /// Leaders of the in-process hierarchy (threads).
  std::size_t n_leaders = 2;
  /// Compute threads per leader (runtime::RuntimeOptions).
  std::size_t workers_per_leader = 1;
  /// Spectrum axis (cm^-1) and Gaussian smearing; the paper uses
  /// sigma = 5 cm^-1 for the gas-phase protein and 20 cm^-1 solvated.
  double omega_min_cm = 0.0;
  double omega_max_cm = 4000.0;
  std::size_t omega_points = 2000;
  double sigma_cm = 5.0;
  SolverKind solver = SolverKind::kAuto;
  int lanczos_steps = 150;
  frag::AssemblyOptions assembly;
  /// Also compute the infrared spectrum (the engines already provide the
  /// atomic polar tensor, so this costs three extra matrix functionals).
  bool compute_ir = false;
  /// Incremental checkpoint file for the fragment sweep; empty disables.
  /// Every completed fragment streams to this file as the sweep runs, so
  /// a killed run loses at most one fragment's work.
  std::string checkpoint_path;
  /// Seed the sweep with the fragments already present in
  /// checkpoint_path: only missing fragments are recomputed.
  bool resume = false;
  /// Fault tolerance of the sweep (see runtime::RuntimeOptions).
  double straggler_timeout = 600.0;
  std::size_t max_retries = 2;
  /// Run every delivered fragment result through the integrity validator
  /// (all-finite, Hessian symmetry, sum rules) before acceptance; a
  /// rejected result is retried like a thrown error.
  bool validate_results = true;
  fault::ValidatorOptions validator;
  /// Degrade fragments that exhaust their retries down an engine ladder
  /// (make_fallback_chain) instead of failing the run outright.
  bool enable_fallback = false;
  /// Tolerate fragments that failed even the last fallback engine: drop
  /// them from the assembly — their Eq. (1) terms go missing, which the
  /// SweepSummary reports honestly — instead of aborting the workflow.
  bool allow_dropped_fragments = false;
  /// Content-addressed fragment-result cache (set cache.enabled): a
  /// fragment geometry seen before — under any rigid motion or atom
  /// relabeling, at cache.tolerance — is served from the cache and
  /// back-rotated into its lab frame instead of being recomputed. With
  /// validate_results set, the sweep validator also gates cache inserts,
  /// so an invalid result is never remembered. cache.store_path persists
  /// entries across runs.
  cache::CacheOptions cache;
  /// Externally owned result cache shared across runs (e.g. one cache for
  /// every frame of a trajectory). Takes precedence over `cache.enabled`
  /// (no private cache is created); the owner configures insert filters
  /// and persistence. Not owned; may be null.
  cache::ResultCache* shared_cache = nullptr;
  /// How the leader slots are realized: kThread runs them as threads in
  /// this process, kProcess forks one OS process per slot and drives it
  /// over the CRC-framed wire protocol, so a leader crash (even SIGKILL)
  /// cannot take the master down (see runtime::TransportKind).
  runtime::TransportKind transport = runtime::TransportKind::kThread;
  /// Supervise the leader threads: heartbeats, revocation of dead/hung
  /// leaders' leases, respawn (see runtime::SupervisionOptions).
  bool supervise = false;
  double heartbeat_timeout = 1.0;
  /// Observability session for the run (metrics + trace). Not owned; when
  /// null but trace_path or report_path is set, the workflow creates a
  /// private session for the duration of run().
  obs::Session* obs = nullptr;
  /// Chrome trace_event JSON written after the run (open in
  /// chrome://tracing or https://ui.perfetto.dev). Empty disables.
  std::string trace_path;
  /// Structured run-report JSON (schema qfr.run_report.v1): the DFPT
  /// phase decomposition, SCF/CPSCF histograms, scheduler counters, and
  /// per-leader utilization. Empty disables. Setting it also dumps the
  /// per-fragment outcome CSV next to the checkpoint (or next to the
  /// report when no checkpoint is configured).
  std::string report_path;
  /// Inserted into trace_path/report_path/checkpoint_path right before
  /// the extension (e.g. ".frame3" turns "run.json" into
  /// "run.frame3.json"). One options object reused across trajectory
  /// frames would otherwise silently overwrite its artifacts each frame;
  /// TrajectoryRunner sets this per frame. Empty leaves paths untouched.
  std::string artifact_suffix;
};

/// Insert `suffix` into `path` immediately before its extension (after
/// the last '.' past the last path separator); appended when the basename
/// has no extension. Empty suffix or path returns `path` unchanged.
std::string decorate_artifact_path(const std::string& path,
                                   const std::string& suffix);

/// Sweep-level scheduling/fault-tolerance diagnostics surfaced to the
/// caller (a condensed runtime::RunReport; see summarize_sweep).
struct SweepSummary {
  std::size_t n_fragments = 0;
  std::size_t n_tasks = 0;
  std::size_t n_requeued = 0;  ///< straggler re-queue events
  std::size_t n_retries = 0;   ///< failure-driven re-dispatches (total)
  /// Retries split by cause: crash/timeout/convergence failures (bad
  /// hardware) vs validator rejections (bad physics).
  std::size_t n_fault_retries = 0;
  std::size_t n_reject_retries = 0;
  /// Results rejected by the integrity validator.
  std::size_t n_rejected = 0;
  std::size_t n_resumed = 0;   ///< fragments restored from the checkpoint
  /// Fragments completed by a fallback engine instead of the primary
  /// (graceful degradation; the outcome names the accepting engine).
  std::size_t n_degraded = 0;
  /// Fragments with no accepted result. The workflow drops them from the
  /// assembly (only non-zero when allow_dropped_fragments let the run
  /// proceed); a served request with any of them fails.
  std::size_t n_failed = 0;
  /// Checkpoint records skipped on resume: corrupt, or shaped for another
  /// fragment than the one their id names in this fragmentation.
  std::size_t n_corrupt_records = 0;
  /// Fragments whose accepted result came from the result cache (zero
  /// unless WorkflowOptions::cache.enabled).
  std::size_t n_cache_hits = 0;
  /// Completed fragments by reuse tier (trajectory streaming): exact
  /// cache transports and perturbative refreshes. n_reuse_exact mirrors
  /// n_cache_hits; kComputed fragments are the remainder.
  std::size_t n_reuse_exact = 0;
  std::size_t n_reuse_refresh = 0;
  // Supervision counters (zero unless supervise was set).
  std::size_t n_leader_crashes = 0;  ///< leader deaths detected + respawned
  std::size_t n_leader_hangs = 0;    ///< heartbeat-timeout episodes
  std::size_t n_leases_revoked = 0;  ///< in-flight leases revoked
  std::size_t n_cancelled = 0;       ///< computes stopped via cancellation
  /// Terminal per-fragment records, indexed by fragment id (all completed
  /// on a successful run — a permanent failure aborts the workflow after
  /// the checkpoint is flushed, so the completed prefix is resumable).
  std::vector<runtime::FragmentOutcome> outcomes;
};

/// The SweepSummary of one sweep report, for every entry point (the
/// workflow's WorkflowResult::sweep and each serve RequestReport).
/// n_corrupt_records is left 0: only a checkpoint resume knows it.
SweepSummary summarize_sweep(const runtime::RunReport& report);

/// Everything a run produces.
struct WorkflowResult {
  frag::FragmentationStats fragmentation_stats;
  spectra::RamanSpectrum spectrum;
  spectra::RamanSpectrum ir_spectrum;  ///< filled when compute_ir is set
  frag::GlobalProperties properties;
  double engine_seconds = 0.0;   ///< fragment sweep wall time
  double solver_seconds = 0.0;   ///< spectral solve wall time
  std::size_t n_tasks = 0;
  bool used_lanczos = false;
  SweepSummary sweep;
};

/// The QF-RAMAN pipeline: fragmentation -> parallel per-fragment DFT/DFPT
/// -> Eq. (1) assembly -> matrix-function Raman solver. This is the
/// library's main entry point; see examples/quickstart.cpp.
class RamanWorkflow {
 public:
  explicit RamanWorkflow(WorkflowOptions options = {});

  WorkflowResult run(const frag::BioSystem& system) const;

  /// Run with a caller-supplied engine instead of options().engine —
  /// custom surrogates, instrumented engines in tests, etc.
  WorkflowResult run(const frag::BioSystem& system,
                     const engine::FragmentEngine& eng) const;

  const WorkflowOptions& options() const { return options_; }

 private:
  WorkflowOptions options_;
};

/// Spectra of one solve.
struct SolvedSpectra {
  spectra::RamanSpectrum raman;
  spectra::RamanSpectrum ir;  ///< filled when compute_ir is set
  bool used_lanczos = false;
};

/// The spectral solve of every entry point: kAuto takes the dense exact
/// solver up to 3N = 600 and Lanczos+GAGQ above; the Lanczos kinds run
/// `lanczos_steps` steps. Also solves the IR spectrum when `compute_ir`.
SolvedSpectra solve_spectra(const frag::GlobalProperties& props,
                            const la::Vector& axis, double sigma_cm,
                            SolverKind solver, int lanczos_steps,
                            bool compute_ir);

/// One system's pass through fragmentation, sweep, assembly and solve, as
/// both entry points hold it: RamanWorkflow::run, and each serve request.
/// They differ only in how the sweep is driven (MasterRuntime's leader
/// transport, or the server's shared leader pool).
struct PipelineRun {
  frag::Fragmentation fragmentation;
  runtime::RunReport sweep;
  std::string engine;            ///< primary engine name
  double engine_seconds = 0.0;   ///< fragment sweep wall time
  double solver_seconds = 0.0;   ///< spectral solve wall time
  frag::GlobalProperties properties;
  SolvedSpectra spectra;

  /// The run and fragmentation sections of the run report.
  obs::RunContext context() const;
};

/// Step 1, the master's decomposition: fragment `system` with the policy
/// selected in `options` (MFCC or graph partition) inside the
/// workflow.fragmentation span, and set the qfr.part.* gauges on
/// `session` (may be null).
frag::Fragmentation decompose(const frag::BioSystem& system,
                              const frag::FragmentationOptions& options,
                              obs::Session* session);

/// Steps 3-4: Eq. (1) assembly of `run.sweep`'s results into
/// `run.properties`, then the spectral solve into `run.spectra`, in the
/// workflow.assembly and workflow.solve spans of `session` (may be null,
/// else installed as the ambient session); `run.solver_seconds` times the
/// solve.
void assemble_and_solve(PipelineRun& run, const frag::BioSystem& system,
                        const frag::AssemblyOptions& assembly,
                        const la::Vector& axis, double sigma_cm,
                        SolverKind solver, int lanczos_steps, bool compute_ir,
                        obs::Session* session);

/// Factory for the engine selected by `kind` (shared by the workflow and
/// the benches). Both SCF kinds build their Hessian from analytic
/// gradients (HessianMode::kGradientFd) and differ only in the XC model.
/// `batched_gemm` is forwarded to the SCF engines.
std::unique_ptr<engine::FragmentEngine> make_engine(EngineKind kind,
                                                    bool batched_gemm = true);

/// Degradation ladder below the primary engine `kind`: an SCF kind falls
/// back to energy-only finite differences at the same XC model, and
/// everything bottoms out at the classical model surrogate (always
/// available, always convergent). Used by the workflow when
/// enable_fallback is set.
engine::EngineFallbackChain make_fallback_chain(EngineKind kind,
                                                bool batched_gemm = true);

}  // namespace qfr::qframan
