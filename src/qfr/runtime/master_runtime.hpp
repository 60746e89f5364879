#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qfr/balance/packing.hpp"
#include "qfr/common/cancel.hpp"
#include "qfr/engine/fallback_chain.hpp"
#include "qfr/engine/fragment_engine.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/runtime/leader_transport.hpp"
#include "qfr/runtime/result_sink.hpp"
#include "qfr/runtime/sweep_scheduler.hpp"

namespace qfr::cache {
class ResultCache;
}  // namespace qfr::cache

namespace qfr::fault {
class FaultInjector;
}  // namespace qfr::fault

namespace qfr::obs {
class Session;
}  // namespace qfr::obs

namespace qfr::runtime {

/// Leader supervision knobs (heartbeat failure detection + respawn).
struct SupervisionOptions {
  /// Run the supervisor: leaders heartbeat, dead/hung leaders have their
  /// leases revoked and (when dead) are respawned, and straggler deadline
  /// scans fire on the supervisor's clock instead of piggybacking on
  /// acquire(). Off by default: a fault-free sweep needs none of it.
  bool enabled = false;
  /// A leader silent for longer than this is declared hung.
  double heartbeat_timeout = 1.0;
  /// Supervisor scan period.
  double poll_interval = 0.02;
};

/// Configuration of the in-process master/leader/worker hierarchy.
struct RuntimeOptions {
  std::size_t n_leaders = 2;
  /// Compute threads per leader: the leader thread plus a pool of
  /// workers_per_leader - 1 helpers. They share the fragments of a task
  /// and the displacement jobs of each fragment.
  std::size_t workers_per_leader = 1;
  /// Leader execution substrate. kThread (default) runs leaders as
  /// threads of the master process; kProcess forks one OS process per
  /// leader slot, connected by a socketpair speaking the CRC32-framed
  /// wire protocol — a leader can then genuinely die (kill -9) and the
  /// sweep recovers through the same scheduler/supervisor machinery.
  TransportKind transport = TransportKind::kThread;
  /// Leaders request their next task while the current one is still being
  /// worked on (paper Fig. 4(d)/(e)).
  bool prefetch = true;
  /// Policy factory; null -> size-sensitive default. A factory rather
  /// than an instance so the runtime is reusable: every run() builds a
  /// fresh policy instead of consuming a one-shot object.
  std::function<std::unique_ptr<balance::PackingPolicy>()> policy_factory;
  balance::CostModel cost_model;
  /// Fragments processing longer than this (wall seconds) are re-queued
  /// to another leader; the revoked copy's completion is fenced out.
  double straggler_timeout = 600.0;
  /// Failure retries per fragment beyond the first attempt.
  std::size_t max_retries = 2;
  /// Jittered exponential backoff before a failed fragment is re-queued
  /// (see SweepOptions::retry_backoff_*). 0 keeps the historical
  /// immediate re-queue.
  double retry_backoff_base = 0.0;
  double retry_backoff_max = 30.0;
  double retry_backoff_jitter = 0.5;
  /// Run-level cancellation: when this token fires (request deadline,
  /// client cancel, server shutdown) the sweep cancels every pending
  /// fragment, cooperatively stops in-flight computes on every transport,
  /// and run() returns with the completed prefix. Null (default) = never.
  common::CancelToken cancel_token;
  /// Throw NumericalError when fragments remain failed after retries
  /// (legacy behaviour). When false the sweep completes the surviving
  /// fragments and reports failures in RunReport::outcomes.
  bool abort_on_failure = true;
  /// Streams each accepted fragment result as it completes (checkpoint
  /// writer, live consumers); calls are serialized. Not owned.
  ResultSink* sink = nullptr;
  /// Fragment ids already completed by a previous run (checkpoint
  /// resume). They are never dispatched; their RunReport::results slots
  /// stay default-constructed and must be filled by the caller from the
  /// checkpoint.
  std::vector<std::size_t> completed_ids;
  /// Optional result-integrity gate: every delivered result is validated
  /// before acceptance, and a rejected result is retried (then degraded)
  /// like a thrown error. Not owned; may be null.
  const fault::FragmentResultValidator* validator = nullptr;
  /// Optional degradation ladder consulted once a fragment's retries at
  /// the primary engine are exhausted: level 1 is chain engine 0, and so
  /// on. Not owned; may be null (fragments then fail permanently as
  /// before).
  const engine::EngineFallbackChain* fallback_chain = nullptr;
  /// Engine name recorded for level-0 completions when running through a
  /// bare FragmentCompute callable (the engine overload supplies its own
  /// name automatically).
  std::string primary_engine_name = "primary";
  /// Leader supervision (heartbeats, lease revocation, respawn).
  SupervisionOptions supervision;
  /// Observability session recording this sweep (metrics, trace spans).
  /// The runtime installs it as the ambient session on every leader and
  /// worker thread, so engines instrument themselves without plumbing.
  /// Not owned; null disables all recording (the zero-cost default).
  obs::Session* obs = nullptr;
  /// Optional fault source consulted at FaultSite::kLeader once per
  /// dispatched task (keyed on the leader id): kLeaderKill exits the
  /// leader thread mid-sweep, kLeaderHang silences its heartbeat. Only
  /// meaningful with supervision enabled. Not owned; may be null.
  fault::FaultInjector* fault_injector = nullptr;
  /// Optional content-addressed result cache consulted around every
  /// compute (primary and fallback levels alike). Keys are namespaced by
  /// the engine name of the level being run, so a cached fallback result
  /// is never served to a primary-level request. Not owned; may be null.
  cache::ResultCache* cache = nullptr;
};

/// Per-leader execution accounting (accumulated across respawned
/// incarnations of the same leader slot).
struct LeaderStats {
  double busy_seconds = 0.0;
  std::size_t tasks = 0;
  std::size_t fragments = 0;
};

/// Outcome of a fragment sweep.
struct RunReport {
  std::vector<engine::FragmentResult> results;  ///< indexed by fragment id
  std::vector<LeaderStats> leaders;
  double makespan_seconds = 0.0;
  std::size_t n_tasks = 0;
  std::size_t n_requeued = 0;  ///< straggler re-queue events
  std::size_t n_retries = 0;   ///< failure-driven re-dispatches (total)
  std::size_t n_fault_retries = 0;   ///< ... after crash/timeout/convergence
  std::size_t n_reject_retries = 0;  ///< ... after validator rejections
  std::size_t n_rejected = 0;  ///< results rejected by the validator
  std::size_t n_resumed = 0;   ///< fragments skipped via checkpoint resume
  /// The sweep was cancelled (RuntimeOptions::cancel_token fired): the
  /// non-completed outcomes carry FailureReason::kCancelled and
  /// abort_on_failure does not throw for them.
  bool cancelled = false;
  // Supervision counters (all zero without a supervisor).
  std::size_t n_leader_crashes = 0;  ///< leader deaths detected + respawned
  std::size_t n_leader_hangs = 0;    ///< heartbeat-timeout episodes
  std::size_t n_leases_revoked = 0;  ///< leases revoked by the supervisor
  std::size_t n_cancelled = 0;       ///< computes stopped via CancelToken
  /// Terminal per-fragment records, indexed by fragment id.
  std::vector<FragmentOutcome> outcomes;
  /// Wall seconds of the accepted compute attempt, indexed by fragment id
  /// (0 for resumed or failed fragments) — the per-fragment cost column of
  /// the outcome CSV and the load-balance denominator of the run report.
  std::vector<double> fragment_seconds;
  /// Fragment ids of every dispatched task in dispatch order (the
  /// scheduler's task log; shared with the DES for parity checks).
  std::vector<std::vector<std::size_t>> task_log;

  /// Fragments with no accepted result (dropped from assembly).
  std::size_t n_failed() const;
  /// Fragments completed by a fallback engine instead of the primary.
  std::size_t n_degraded() const;
  /// Fragments whose accepted result was served by the result cache.
  std::size_t n_cache_hits() const;
  /// Completed fragments by reuse tier (trajectory streaming provenance):
  /// exact cache transports and perturbative refreshes.
  std::size_t n_reuse_exact() const;
  std::size_t n_reuse_refresh() const;
};

/// Copy `scheduler`'s dispatch counters (n_tasks through
/// n_leases_revoked, cancelled), outcomes and task log into `report`.
/// Every sweep report, the serving layer's included, is filled here.
void record_sweep(const SweepScheduler& scheduler, RunReport& report);

/// "fragment N [reason]: error" for the first outcome without an accepted
/// result; empty when every fragment completed.
std::string first_failure(const std::vector<FragmentOutcome>& outcomes);

/// In-process realization of the paper's three-level hierarchy (Fig. 3):
/// the caller is the master (runs the packing policy), leaders are
/// threads pulling tasks, and each leader fans its task's fragments out to
/// its own worker threads. Leaders advance a shared SweepScheduler with
/// wall-clock time; cluster::simulate_cluster advances the identical
/// state machine with simulated time for node counts we do not have.
///
/// With supervision enabled the leaders also publish heartbeats to a
/// runtime::Supervisor, which revokes the leases of dead/hung leaders
/// (re-queueing their fragments), cancels the orphaned computations, and
/// respawns dead leader slots — the sweep survives leader loss with
/// exactly-once result acceptance guaranteed by lease fencing.
class MasterRuntime {
 public:
  /// Worker function computing one fragment. Must be thread-compatible.
  /// Long-running computes should poll common::current_cancel_token() (or
  /// the solver options' token) so revoked fragments stop promptly.
  using FragmentCompute =
      std::function<engine::FragmentResult(const frag::Fragment&)>;

  explicit MasterRuntime(RuntimeOptions options);

  /// Process every fragment through `compute`; results are returned
  /// indexed by fragment id. Failing fragments are retried up to
  /// max_retries times, then either abort the run (abort_on_failure,
  /// default) or are reported in RunReport::outcomes. Reusable: each call
  /// is an independent sweep with a fresh policy.
  RunReport run(std::span<const frag::Fragment> fragments,
                const FragmentCompute& compute) const;

  /// Convenience: run with a FragmentEngine (topology-aware when the
  /// engine is the classical model).
  RunReport run(std::span<const frag::Fragment> fragments,
                const engine::FragmentEngine& eng) const;

 private:
  RunReport run_impl(std::span<const frag::Fragment> fragments,
                     const EngineLadder& ladder) const;

  RuntimeOptions options_;
};

}  // namespace qfr::runtime
