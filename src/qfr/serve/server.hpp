#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "qfr/cache/store.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/fault/fault_injector.hpp"
#include "qfr/fault/validator.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/qframan/workflow.hpp"
#include "qfr/serve/admission.hpp"
#include "qfr/spectra/raman.hpp"

namespace qfr::serve {

/// Admission verdict carried by every RequestHandle. Anything but
/// kAccepted is a typed rejection: the handle is already terminal and
/// outcome().error says why.
enum class ServeStatus {
  kAccepted,       ///< admitted (possibly shed; see RequestReport::shed)
  kOverloaded,     ///< the bounded request queue is full
  kQuotaExceeded,  ///< the tenant's token-bucket quota ran dry
  kShuttingDown,   ///< the server no longer admits work
};

const char* to_string(ServeStatus status);

/// Lifecycle of one admitted request.
enum class RequestState {
  kQueued = 0,       ///< admitted, waiting for a leader
  kRunning,          ///< fragments in flight
  kCompleted,        ///< spectrum delivered
  kFailed,           ///< sweep/solve failed permanently
  kCancelled,        ///< client cancel or non-drain shutdown
  kDeadlineExpired,  ///< the per-request deadline fired
  kRejected,         ///< never admitted (see ServeStatus)
};

const char* to_string(RequestState state);

/// True for the states a request can never leave.
bool is_terminal(RequestState state);

/// One spectroscopy job: a biosystem plus the solver axis, carrying the
/// multi-tenant envelope (tenant, priority, deadline). A subset of
/// qframan::WorkflowOptions — sweep fault-tolerance knobs live on the
/// server, which owns the shared leader pool.
struct SpectrumRequest {
  std::string tenant = "default";
  /// Higher runs first; requests at or below the admission controller's
  /// shed_priority_ceiling may be shed under overload.
  int priority = 0;
  /// Wall-clock budget from admission to completion; past it the request
  /// is cancelled (in-flight SCF/CPSCF included) and reported
  /// kDeadlineExpired. 0 = none.
  double deadline_seconds = 0.0;
  frag::BioSystem system;
  frag::FragmentationOptions fragmentation;
  qframan::EngineKind engine = qframan::EngineKind::kModel;
  double omega_min_cm = 0.0;
  double omega_max_cm = 4000.0;
  std::size_t omega_points = 2000;
  double sigma_cm = 5.0;
  qframan::SolverKind solver = qframan::SolverKind::kAuto;
  int lanczos_steps = 150;
};

/// Per-request provenance and diagnostics: the request's envelope and
/// timeline on top of the sweep summary every entry point reports
/// (qframan::summarize_sweep; zero for a request that never started).
struct RequestReport : qframan::SweepSummary {
  std::size_t id = 0;
  std::string tenant;
  int priority = 0;
  ServeStatus admit_status = ServeStatus::kAccepted;
  /// The request was admitted under overload shedding: it STARTED at
  /// fallback level `engine_level_start` instead of the primary engine.
  bool shed = false;
  std::size_t engine_level_start = 0;
  /// Primary engine the request asked for.
  std::string engine;
  // Server-clock timeline (seconds on the server's steady clock).
  double submitted_at = 0.0;
  double started_at = -1.0;  ///< -1 = never started
  double finished_at = 0.0;
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  double total_seconds = 0.0;
  /// Structured per-request run report (schema qfr.run_report.v1) built
  /// from the request's private obs::Session, partition provenance
  /// included. Empty for rejected or never-started requests.
  std::string run_report_json;
};

/// Terminal result of one request.
struct RequestOutcome {
  RequestState state = RequestState::kQueued;
  std::string error;  ///< empty on kCompleted
  spectra::RamanSpectrum spectrum;
  bool used_lanczos = false;
  RequestReport report;
};

namespace detail {
struct RequestCtx;
struct EngineBundle;
}  // namespace detail

class Server;

/// Client-side view of one submitted request: poll state(), block on
/// wait()/wait_for(), or cancel(). Handles are cheap shared references;
/// they must not outlive the Server.
class RequestHandle {
 public:
  RequestHandle();
  ~RequestHandle();
  RequestHandle(const RequestHandle&);
  RequestHandle& operator=(const RequestHandle&);
  RequestHandle(RequestHandle&&) noexcept;
  RequestHandle& operator=(RequestHandle&&) noexcept;

  bool valid() const { return ctx_ != nullptr; }
  std::size_t id() const;
  ServeStatus admit_status() const;
  /// True the moment the server admitted the request (sugar for
  /// admit_status() == kAccepted).
  bool admitted() const;
  RequestState state() const;
  bool done() const;

  /// Block until the request is terminal; returns the outcome.
  const RequestOutcome& wait() const;
  /// Block up to `seconds`; true when terminal.
  bool wait_for(double seconds) const;
  /// Terminal outcome; requires done().
  const RequestOutcome& outcome() const;

  /// Ask the server to cancel the request: in-flight computes stop
  /// cooperatively, pending fragments are dropped, and the request goes
  /// terminal kCancelled. Returns false when it was already terminal (or
  /// another terminal transition won the race).
  bool cancel();

 private:
  friend class Server;
  explicit RequestHandle(std::shared_ptr<detail::RequestCtx> ctx);
  std::shared_ptr<detail::RequestCtx> ctx_;
};

/// Configuration of the serving layer.
struct ServerOptions {
  /// Leader threads shared by ALL requests (the one pool the issue's
  /// multiplexing rides on).
  std::size_t n_leaders = 2;
  AdmissionOptions admission;
  // Per-request sweep fault tolerance (see runtime::RuntimeOptions).
  double straggler_timeout = 600.0;
  std::size_t max_retries = 2;
  double retry_backoff_base = 0.0;
  double retry_backoff_max = 30.0;
  double retry_backoff_jitter = 0.5;
  /// Build the qframan fallback chain under each primary engine; it backs
  /// both per-fragment degradation and overload shedding (a shed request
  /// starts one level down the chain).
  bool enable_fallback = true;
  bool batched_gemm = true;
  /// Validate every delivered result before acceptance (and gate cache
  /// inserts with the same validator).
  bool validate_results = true;
  fault::ValidatorOptions validator;
  /// Shared cross-tenant result cache (set cache.enabled); one request's
  /// fragments can be served from another tenant's completed work, and
  /// cache.store_path persists results across server restarts.
  cache::CacheOptions cache;
  /// Leader-site chaos drills (FaultSite::kLeader, keyed by pool slot):
  /// kLeaderKill makes the slot drop a just-acquired task and revoke its
  /// leases, exercising crash recovery inside the serving loop. Not owned.
  fault::FaultInjector* fault_injector = nullptr;
  /// Deadline/cancel scan period of the reaper thread.
  double reaper_interval = 0.005;
};

/// Server-wide counters (monotone over the server's lifetime).
struct ServerStats {
  std::size_t submitted = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t rejected_overload = 0;
  std::size_t rejected_quota = 0;
  std::size_t rejected_shutdown = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t deadline_expired = 0;
  /// kLeaderKill drills taken by the pool (leases revoked + recovered).
  std::size_t leader_crash_drills = 0;
  std::size_t active = 0;  ///< admitted and not yet terminal (gauge)
};

/// qfr::serve — the overload-safe multi-request spectroscopy service.
///
/// One long-lived leader pool multiplexes every admitted request at task
/// granularity: each request owns a private SweepScheduler (its fragments,
/// retries, backoff, fallback levels), and the pool repeatedly picks the
/// next request by (priority, then least-served tenant) and pulls ONE task
/// from it, so a big sweep cannot convoy small ones and tenants share the
/// pool fairly. The robustness spine:
///   - admission control: bounded queue + per-tenant token buckets, with
///     typed rejections (kOverloaded / kQuotaExceeded / kShuttingDown);
///   - graceful shedding: under soft overload, low-priority requests are
///     admitted at a degraded fallback-chain level (provenance in the
///     report) strictly before anything is rejected;
///   - deadlines: a reaper cancels expired requests through the request's
///     CancelSource + SweepScheduler::cancel_pending, so in-flight
///     SCF/CPSCF iterations stop cooperatively instead of being abandoned;
///   - shared state: one cross-tenant ResultCache (with optional
///     persistent store) and a per-request obs::Session whose
///     qfr.run_report.v1 JSON rides on the RequestReport.
///
/// Thread safe. Destruction drains: ~Server() == shutdown(true).
class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit or reject `request`. Always returns a valid handle: a rejected
  /// request's handle is already terminal (kRejected) with the typed
  /// ServeStatus and never blocks.
  RequestHandle submit(SpectrumRequest request);

  /// Stop admitting (further submits are kShuttingDown rejections), then
  /// either drain every active request (drain = true) or cancel them all,
  /// and join the pool. Idempotent.
  void shutdown(bool drain = true);

  ServerStats stats() const;
  const ServerOptions& options() const { return options_; }
  /// Shared result cache; null when options().cache.enabled is false.
  const cache::ResultCache* result_cache() const { return cache_.get(); }
  /// Seconds on the server's steady clock (the timeline of the reports).
  double now() const;

 private:
  friend class RequestHandle;
  using CtxPtr = std::shared_ptr<detail::RequestCtx>;

  detail::EngineBundle& bundle_locked(qframan::EngineKind kind);
  void leader_main(std::size_t leader);
  void reaper_main();
  /// Active requests ordered by (priority desc, tenant service asc, id).
  std::vector<CtxPtr> ordered_active();
  void ensure_started(const CtxPtr& ctx);
  bool process(std::size_t leader, const CtxPtr& ctx);
  /// First-wins terminal transition for cancel/deadline/shutdown; fires
  /// the request CancelSource and cancels the scheduler.
  bool request_cancel(const CtxPtr& ctx, RequestState terminal,
                      const std::string& why);
  /// Re-issue scheduler cancellation for a terminal-intent request (covers
  /// the start/cancel race) and finalize it when its sweep has settled.
  void reap_terminal(const CtxPtr& ctx);
  void maybe_finalize(const CtxPtr& ctx);

  ServerOptions options_;
  WallTimer clock_;
  std::unique_ptr<cache::ResultCache> cache_;
  std::unique_ptr<fault::FragmentResultValidator> validator_;
  /// The sweep settings of every request; a request's copy adds only its
  /// cancel token.
  runtime::RuntimeOptions runtime_options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  AdmissionController admission_;
  std::map<qframan::EngineKind, std::unique_ptr<detail::EngineBundle>>
      bundles_;
  std::vector<CtxPtr> active_;
  /// Cost served per tenant (fair-share denominator of the pick order).
  std::map<std::string, double> tenant_service_;
  ServerStats stats_;
  std::size_t next_id_ = 0;
  bool stopping_ = false;
  bool joined_ = false;

  std::vector<std::thread> leaders_;
  std::thread reaper_;
};

}  // namespace qfr::serve
