#include "qfr/runtime/leader_transport.hpp"

#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "qfr/cache/store.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/thread_pool.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/runtime/supervisor.hpp"

namespace qfr::runtime {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kThread: return "thread";
    case TransportKind::kProcess: return "process";
  }
  return "unknown";
}

// Defined by thread_transport.cpp / process_transport.cpp.
std::unique_ptr<LeaderTransport> make_thread_transport();
std::unique_ptr<LeaderTransport> make_process_transport();

std::unique_ptr<LeaderTransport> make_leader_transport(TransportKind kind) {
  switch (kind) {
    case TransportKind::kThread: return make_thread_transport();
    case TransportKind::kProcess: return make_process_transport();
  }
  QFR_REQUIRE(false, "unknown transport kind");
  return nullptr;
}

engine::FragmentResult EngineLadder::compute(const frag::Fragment& f,
                                             std::size_t level) const {
  auto raw = [&]() -> engine::FragmentResult {
    if (level == 0) return primary_(f);
    return chain_->engine(level - 1).compute(f.id, f.mol, f.bonds);
  };
  if (cache_ == nullptr) return raw();
  return cache_->get_or_compute(name(level), f.mol, raw);
}

Attempt run_attempt(const common::CancelToken& token,
                    const std::function<engine::FragmentResult()>& compute) {
  Attempt a;
  WallTimer timer;
  try {
    // Cancellation-aware engines (SCF/CPSCF iterations) poll the ambient
    // token and bail out mid-solve.
    token.throw_if_cancelled();
    common::CancelScope scope(token);
    a.result = compute();
    a.seconds = timer.seconds();
  } catch (const CancelledError&) {
    a.reason = FailureReason::kCancelled;
  } catch (const TimeoutError& e) {
    a.reason = FailureReason::kTimeout;
    a.error = e.what();
  } catch (const NumericalError& e) {
    a.reason = FailureReason::kNonConvergence;
    a.error = e.what();
  } catch (const std::exception& e) {
    a.reason = FailureReason::kEngineError;
    a.error = e.what();
  } catch (...) {
    a.reason = FailureReason::kEngineError;
    a.error = "unknown error";
  }
  return a;
}

namespace {

/// Deliver one accepted-by-the-leader result through the scheduler's
/// epoch gate and, when accepted, into the report and the sink.
void deliver_result(SweepDrive& drive, const Lease& lease, std::size_t level,
                    engine::FragmentResult&& result, double seconds) {
  const std::size_t fid = lease.fragment_id;
  // The integrity gate: a rejected or stale result re-enters the
  // retry/degradation path and never reaches the results array or the
  // sink — an injected NaN Hessian cannot leak into assembly, and a
  // revoked lease cannot deliver twice.
  if (drive.scheduler.on_completion(lease, result, drive.ladder->name(level)) !=
      Completion::kAccepted)
    return;
  RunReport& report = *drive.report;
  report.results[fid] = std::move(result);
  report.fragment_seconds[fid] = seconds;
  if (drive.obs != nullptr) {
    drive.obs->metrics().histogram("fragment.compute.seconds")
        .observe(seconds);
    if (level > 0)
      drive.obs->metrics().counter("sched.fallback_completions").add(1);
  }
  if (drive.options.sink) {
    std::lock_guard<std::mutex> lock(*drive.sink_mutex);
    drive.options.sink->on_result(fid, report.results[fid]);
  }
}

}  // namespace

void compute_attempts(
    std::span<const frag::Fragment> fragments, const EngineLadder& ladder,
    obs::Session* obs, std::size_t leader, std::span<const ComputeItem> items,
    std::span<const common::CancelToken> tokens, ThreadPool& pool,
    const std::function<void(std::size_t, Attempt&&)>& done) {
  QFR_REQUIRE(tokens.size() == items.size(),
              "one cancel token per item: " << tokens.size() << " tokens for "
                                            << items.size() << " items");
  pool.parallel_for(items.size(), [&](std::size_t k) {
    const frag::Fragment& f = fragments[items[k].fragment_id];
    // Pool threads do not inherit the leader's thread-locals.
    obs::ScopedSession worker_scope(obs);
    obs::SpanGuard span(obs, "fragment.compute", "runtime");
    span.arg("fragment", static_cast<double>(items[k].fragment_id))
        .arg("level", static_cast<double>(items[k].level))
        .arg("leader", static_cast<double>(leader))
        .arg("n_atoms", static_cast<double>(f.n_atoms()));
    done(k, run_attempt(tokens[k],
                        [&] { return ladder.compute(f, items[k].level); }));
  });
}

void deliver_attempt(SweepDrive& drive, std::size_t leader,
                     const Lease& lease, std::size_t level, Attempt&& attempt) {
  if (attempt.reason == FailureReason::kNone)
    deliver_result(drive, lease, level, std::move(attempt.result),
                   attempt.seconds);
  else if (attempt.reason == FailureReason::kCancelled)
    // Revoked mid-compute: the fragment is owned elsewhere already.
    // Nothing to deliver, no retry consumed.
    drive.n_cancelled->fetch_add(1, std::memory_order_relaxed);
  else
    drive.scheduler.fail(lease, attempt.error, attempt.reason);
  if (drive.supervisor != nullptr)
    drive.supervisor->release_attempt(leader, lease);
}

void execute_leased(SweepDrive& drive, std::size_t leader,
                    const LeasedTask& task,
                    std::span<const common::CancelToken> tokens,
                    ThreadPool& pool) {
  obs::ScopedSession scope(drive.obs);
  WallTimer busy;
  const std::size_t n = task.size();
  std::vector<ComputeItem> items(n);
  std::vector<common::CancelToken> linked(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t fid = task.items[k].fragment_id;
    // Degraded fragments run on their fallback engine from here on.
    items[k] = {fid, drive.scheduler.engine_level(fid)};
    // The attempt token (supervisor revocation) is linked with the
    // run-level token so a cancelled sweep stops in-flight computes.
    linked[k] = common::CancelToken::linked(
        k < tokens.size() ? tokens[k] : common::CancelToken{},
        drive.options.cancel_token);
  }
  std::vector<Attempt> attempts(n);
  compute_attempts(drive.fragments, *drive.ladder, drive.obs, leader, items,
                   linked, pool, [&](std::size_t k, Attempt&& a) {
                     attempts[k] = std::move(a);
                   });
  for (std::size_t k = 0; k < n; ++k)
    deliver_attempt(drive, leader, task.leases[k], items[k].level,
                    std::move(attempts[k]));
  // Only slot `leader` writes here; a join or serve's inflight fence
  // orders it before the report is read.
  LeaderStats& stats = drive.report->leaders[leader];
  stats.busy_seconds += busy.seconds();
  stats.tasks++;
  stats.fragments += n;
}

void run_leader_slots(SweepDrive& drive,
                      const std::function<void(std::size_t)>& slot_main,
                      const std::function<void(std::size_t)>& before_respawn) {
  const std::size_t n_leaders = drive.options.n_leaders;
  std::vector<std::thread> threads(n_leaders);
  // Guards the thread objects: a leader killed on its very first task can
  // have the supervisor respawning its slot while this thread is still
  // starting the others.
  std::mutex threads_mutex;
  if (drive.supervisor != nullptr)
    drive.supervisor->start(
        n_leaders, [&drive] { return drive.wall->seconds(); },
        [&](std::size_t l) {
          // Supervisor thread, no supervisor lock held. The dead
          // incarnation has already returned, so the join is brief.
          std::lock_guard<std::mutex> lock(threads_mutex);
          if (threads[l].joinable()) threads[l].join();
          if (before_respawn) before_respawn(l);
          threads[l] = std::thread(slot_main, l);
        });
  {
    std::lock_guard<std::mutex> lock(threads_mutex);
    for (std::size_t l = 0; l < n_leaders; ++l)
      threads[l] = std::thread(slot_main, l);
  }
  if (drive.supervisor != nullptr) {
    // Wait on sweep completion, not on the first threads: slots may be
    // respawned meanwhile. Stopping the supervisor first guarantees no
    // further respawns race the joins.
    while (!drive.scheduler.finished())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    drive.supervisor->stop();
  }
  for (std::thread& t : threads)
    if (t.joinable()) t.join();
}

}  // namespace qfr::runtime
