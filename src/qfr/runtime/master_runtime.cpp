#include "qfr/runtime/master_runtime.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "qfr/cache/store.hpp"
#include "qfr/common/cancel.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/log.hpp"
#include "qfr/common/thread_pool.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/fault/fault_injector.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/runtime/supervisor.hpp"

namespace qfr::runtime {

std::size_t RunReport::n_failed() const {
  std::size_t n = 0;
  for (const auto& o : outcomes)
    if (!o.completed) ++n;
  return n;
}

std::size_t RunReport::n_degraded() const {
  std::size_t n = 0;
  for (const auto& o : outcomes)
    if (o.degraded()) ++n;
  return n;
}

std::size_t RunReport::n_cache_hits() const {
  std::size_t n = 0;
  for (const auto& o : outcomes)
    if (o.completed && o.cache_hit) ++n;
  return n;
}

std::size_t RunReport::n_reuse_exact() const {
  std::size_t n = 0;
  for (const auto& o : outcomes)
    if (o.completed && o.reuse_tier == engine::ReuseTier::kExact) ++n;
  return n;
}

std::size_t RunReport::n_reuse_refresh() const {
  std::size_t n = 0;
  for (const auto& o : outcomes)
    if (o.completed && o.reuse_tier == engine::ReuseTier::kRefresh) ++n;
  return n;
}

MasterRuntime::MasterRuntime(RuntimeOptions options)
    : options_(std::move(options)) {
  QFR_REQUIRE(options_.n_leaders >= 1, "need at least one leader");
  QFR_REQUIRE(options_.workers_per_leader >= 1,
              "need at least one worker per leader");
}

std::unique_ptr<SweepScheduler> start_sweep(
    const RuntimeOptions& options, std::span<const frag::Fragment> fragments,
    std::size_t n_engine_levels, std::size_t initial_engine_level,
    RunReport& report) {
  // A fresh per-run policy keeps the runtime reusable.
  std::unique_ptr<balance::PackingPolicy> policy =
      options.policy_factory ? options.policy_factory()
                             : balance::make_size_sensitive_policy();
  QFR_REQUIRE(policy != nullptr, "policy factory returned null");
  const balance::CostModel cost;
  std::vector<balance::WorkItem> items;
  items.reserve(fragments.size());
  for (const auto& f : fragments)
    items.push_back({f.id, f.n_atoms(), cost.evaluate(f.n_atoms())});

  SweepOptions sopts;
  sopts.straggler_timeout = options.straggler_timeout;
  sopts.max_retries = options.max_retries;
  sopts.completed_ids = options.completed_ids;
  sopts.n_engine_levels = n_engine_levels;
  sopts.initial_engine_level = initial_engine_level;
  sopts.validator = options.validator;
  sopts.retry_backoff_base = options.retry_backoff_base;
  sopts.retry_backoff_max = options.retry_backoff_max;
  sopts.retry_backoff_jitter = options.retry_backoff_jitter;
  report.results.resize(fragments.size());
  report.fragment_seconds.assign(fragments.size(), 0.0);
  report.leaders.resize(options.n_leaders);
  return std::make_unique<SweepScheduler>(std::move(items), std::move(policy),
                                          std::move(sopts));
}

void finish_sweep(const SweepScheduler& scheduler, std::size_t n_cancelled,
                  double makespan_seconds, obs::Session* obs,
                  RunReport& report) {
  report.n_tasks = scheduler.n_tasks();
  report.n_requeued = scheduler.n_requeued();
  report.n_retries = scheduler.n_retries();
  report.n_fault_retries = scheduler.n_fault_retries();
  report.n_reject_retries = scheduler.n_reject_retries();
  report.n_rejected = scheduler.n_rejected();
  report.n_resumed = scheduler.n_resumed();
  report.cancelled = scheduler.cancelled();
  report.n_leases_revoked = scheduler.n_revoked();
  report.outcomes = scheduler.outcomes();
  report.task_log = scheduler.task_log();
  report.n_cancelled = n_cancelled;
  report.makespan_seconds = makespan_seconds;
  if (obs == nullptr) return;
  // The sweep-wide dispatch counters, mirrored into the registry so the
  // run report carries them even when the RunReport object is dropped.
  obs::MetricsRegistry& m = obs->metrics();
  m.counter("sched.tasks").add(report.n_tasks);
  m.counter("sched.requeued").add(report.n_requeued);
  m.counter("sched.retries").add(report.n_retries);
  m.counter("sched.fault_retries").add(report.n_fault_retries);
  m.counter("sched.reject_retries").add(report.n_reject_retries);
  m.counter("sched.rejected").add(report.n_rejected);
  m.counter("sched.resumed").add(report.n_resumed);
  m.counter("sched.leases_revoked").add(report.n_leases_revoked);
  m.counter("sched.cancelled").add(report.n_cancelled);
  m.counter("sched.leader_crashes").add(report.n_leader_crashes);
  m.counter("sched.leader_hangs").add(report.n_leader_hangs);
  m.counter("sched.failed").add(report.n_failed());
  m.counter("sched.degraded").add(report.n_degraded());
  m.counter("sched.cache_hits").add(report.n_cache_hits());
  m.counter("sched.reuse_exact").add(report.n_reuse_exact());
  m.counter("sched.reuse_refresh").add(report.n_reuse_refresh());
  m.gauge("sched.makespan_seconds").set(report.makespan_seconds);
}

std::string first_failure(const std::vector<FragmentOutcome>& outcomes) {
  for (const FragmentOutcome& o : outcomes)
    if (!o.completed) {
      std::ostringstream os;
      os << "fragment " << o.fragment_id << " [" << to_string(o.reason)
         << "]: " << o.error;
      return os.str();
    }
  return {};
}

RunReport MasterRuntime::run(std::span<const frag::Fragment> fragments,
                             const engine::FragmentEngine& eng) const {
  return run_impl(fragments, EngineLadder(eng, options_.fallback_chain,
                                          options_.cache));
}

RunReport MasterRuntime::run(std::span<const frag::Fragment> fragments,
                             const FragmentCompute& compute) const {
  return run_impl(fragments,
                  EngineLadder(compute, options_.primary_engine_name,
                               options_.fallback_chain, options_.cache));
}

RunReport MasterRuntime::run_impl(std::span<const frag::Fragment> fragments,
                                  const EngineLadder& ladder) const {
  RunReport report;
  obs::Session* const obs = options_.obs;

  // Master side: one scheduler instance shared by all leaders.
  const std::unique_ptr<SweepScheduler> scheduler =
      start_sweep(options_, fragments, ladder.n_levels(), 0, report);

  const bool supervised = options_.supervision.enabled;
  std::optional<Supervisor> supervisor;

  std::atomic<std::size_t> n_cancelled{0};
  std::atomic<std::size_t> n_transport_crashes{0};
  std::mutex sink_mutex;
  WallTimer wall;

  if (supervised) {
    SupervisorOptions so;
    so.heartbeat_timeout = options_.supervision.heartbeat_timeout;
    so.poll_interval = options_.supervision.poll_interval;
    so.obs = obs;
    supervisor.emplace(*scheduler, so);
  }

  // Hand the sweep to the configured leader transport (threads in this
  // process, or forked leader processes over the wire protocol). The
  // transport starts/stops the supervisor, runs the leaders, and blocks
  // until every fragment is terminal and every leader slot is joined.
  SweepDrive drive{.options = options_,
                   .fragments = fragments,
                   .scheduler = *scheduler};
  drive.supervisor = supervisor ? &*supervisor : nullptr;
  drive.obs = obs;
  drive.wall = &wall;
  drive.ladder = &ladder;
  drive.report = &report;
  drive.sink_mutex = &sink_mutex;
  drive.n_cancelled = &n_cancelled;
  drive.n_transport_crashes = &n_transport_crashes;

  std::unique_ptr<LeaderTransport> transport =
      make_leader_transport(options_.transport);
  transport->run(drive);

  const double makespan = wall.seconds();
  if (supervisor) {
    report.n_leader_crashes = supervisor->n_leader_crashes();
    report.n_leader_hangs = supervisor->n_leader_hangs();
  }
  // Leader deaths the transport recovered on its own (unsupervised
  // process mode detects pipe EOF locally); supervised crashes are
  // already counted above, never both for the same death.
  report.n_leader_crashes += n_transport_crashes.load();
  finish_sweep(*scheduler, n_cancelled.load(), makespan, obs, report);

  if (report.n_leader_crashes + report.n_leader_hangs > 0) {
    QFR_LOG_WARN("sweep survived ", report.n_leader_crashes,
                 " leader crash(es) and ", report.n_leader_hangs,
                 " hang(s): ", report.n_leases_revoked,
                 " lease(s) revoked, ", report.n_cancelled,
                 " compute(s) cancelled");
  }
  if (report.n_degraded() > 0) {
    for (const auto& o : report.outcomes)
      if (o.degraded())
        QFR_LOG_WARN("fragment ", o.fragment_id, " degraded to engine '",
                     o.engine, "' (level ", o.engine_level,
                     ") after: ", o.error);
  }
  if (scheduler->n_failed() > 0) {
    const std::size_t n_bad = report.n_failed();
    const std::string first_error = first_failure(report.outcomes);
    QFR_LOG_WARN("sweep finished with ", n_bad, " failed fragment(s): ",
                 first_error);
    // A cancelled sweep is an intentional early exit, not a failure:
    // return the completed prefix and let the caller decide.
    if (options_.abort_on_failure && !report.cancelled) {
      QFR_NUMERIC_FAIL("fragment computation failed for "
                       << n_bad << " fragment(s) after retries: "
                       << first_error);
    }
  }
  return report;
}

}  // namespace qfr::runtime
