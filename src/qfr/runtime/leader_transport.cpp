#include "qfr/runtime/leader_transport.hpp"

#include <mutex>
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

void execute_leased(SweepDrive& drive, std::size_t leader,
                    const LeasedTask& task,
                    std::span<const common::CancelToken> tokens,
                    ThreadPool& pool) {
  obs::ScopedSession scope(drive.obs);
  WallTimer busy;
  std::vector<Attempt> attempts(task.size());
  std::vector<std::size_t> levels(task.size(), 0);
  pool.parallel_for(task.size(), [&](std::size_t k) {
    const std::size_t fid = task.items[k].fragment_id;
    const frag::Fragment& f = drive.fragments[fid];
    // Degraded fragments run on their fallback engine from here on.
    levels[k] = drive.scheduler.engine_level(fid);
    // Pool threads do not inherit the leader's thread-locals.
    obs::ScopedSession worker_scope(drive.obs);
    obs::SpanGuard span(drive.obs, "fragment.compute", "runtime");
    span.arg("fragment", static_cast<double>(fid))
        .arg("level", static_cast<double>(levels[k]))
        .arg("leader", static_cast<double>(leader))
        .arg("n_atoms", static_cast<double>(f.n_atoms()));
    // The attempt token (supervisor revocation) is linked with the
    // run-level token so a cancelled sweep stops in-flight computes.
    const common::CancelToken token = common::CancelToken::linked(
        k < tokens.size() ? tokens[k] : common::CancelToken{},
        drive.options.cancel_token);
    attempts[k] = run_attempt(
        token, [&] { return drive.ladder->compute(f, levels[k]); });
  });
  for (std::size_t k = 0; k < task.size(); ++k) {
    const Lease& lease = task.leases[k];
    Attempt& a = attempts[k];
    if (a.reason == FailureReason::kNone)
      detail::deliver_result(drive, lease, levels[k], std::move(a.result),
                             a.seconds);
    else if (a.reason == FailureReason::kCancelled)
      // Revoked mid-compute: the fragment is owned elsewhere already.
      // Nothing to deliver, no retry consumed.
      drive.n_cancelled->fetch_add(1, std::memory_order_relaxed);
    else
      drive.scheduler.fail(lease, a.error, a.reason);
    if (drive.supervisor != nullptr)
      drive.supervisor->release_attempt(leader, lease);
  }
  // Only slot `leader` writes here; a join or serve's inflight fence
  // orders it before the report is read.
  LeaderStats& stats = drive.report->leaders[leader];
  stats.busy_seconds += busy.seconds();
  stats.tasks++;
  stats.fragments += task.size();
}

namespace detail {

bool deliver_result(SweepDrive& drive, const Lease& lease, std::size_t level,
                    engine::FragmentResult&& result, double seconds) {
  const std::size_t fid = lease.fragment_id;
  // The integrity gate: a rejected or stale result re-enters the
  // retry/degradation path and never reaches the results array or the
  // sink — an injected NaN Hessian cannot leak into assembly, and a
  // revoked lease cannot deliver twice.
  if (drive.scheduler.on_completion(lease, result, drive.ladder->name(level)) !=
      Completion::kAccepted)
    return false;
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
  return true;
}

}  // namespace detail

}  // namespace qfr::runtime
