#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "qfr/common/cancel.hpp"
#include "qfr/common/thread_pool.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/fault/fault_injector.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/runtime/leader_transport.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/runtime/supervisor.hpp"

namespace qfr::runtime {
namespace {

/// A dispatched task plus the supervisor's cancel token for each fragment
/// (none when unsupervised).
struct ActiveTask {
  LeasedTask task;
  std::vector<common::CancelToken> tokens;
};

/// One leader incarnation: the original in-process leader loop, pulling
/// tasks straight from the shared scheduler and fanning fragments out to a
/// private worker pool.
void leader_main(SweepDrive& drive, std::size_t l) {
  const RuntimeOptions& options = drive.options;
  SweepScheduler& scheduler = drive.scheduler;
  Supervisor* const supervisor = drive.supervisor;
  const bool supervised = supervisor != nullptr;
  obs::Session* const obs = drive.obs;
  RunReport& report = *drive.report;

  // Leader threads are created fresh per incarnation and never inherit
  // thread-locals: install the ambient session here so everything the
  // leader calls directly records into it.
  obs::ScopedSession obs_scope(obs);
  WallTimer busy;
  double busy_acc = 0.0;
  // Each leader owns a private worker pool (paper: statically assigned
  // worker processes per leader). The leader thread computes too, so the
  // pool adds workers_per_leader - 1 helpers; fragments of a task and the
  // displacement jobs inside each fragment share all of them.
  ThreadPool workers(options.workers_per_leader - 1);

  // Acquire a task and register its leases with the supervisor, so a
  // leader death between acquisition and delivery is recoverable.
  auto fetch = [&]() -> ActiveTask {
    ActiveTask at;
    at.task = scheduler.acquire(0, drive.wall->seconds());
    if (supervised)
      for (const Lease& lease : at.task.leases)
        at.tokens.push_back(supervisor->register_attempt(l, lease));
    return at;
  };

  ActiveTask next;  // prefetched
  bool have_next = false;
  for (;;) {
    // Run-level cancellation (request deadline, client cancel, shutdown):
    // flip every pending fragment terminal so the sweep drains. In-flight
    // computes see the linked token and stop on their own.
    if (options.cancel_token.cancelled())
      scheduler.cancel_pending("sweep cancelled by caller");
    ActiveTask current;
    if (have_next) {
      current = std::move(next);
      have_next = false;
    } else {
      current = fetch();
    }
    if (current.task.empty()) {
      if (scheduler.finished()) break;
      // In-flight fragments on other leaders may still fail or straggle;
      // idle briefly instead of retiring.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    if (supervised) {
      supervisor->beat(l);
      if (options.fault_injector != nullptr) {
        const fault::Fault fl =
            options.fault_injector->draw(l, fault::FaultSite::kLeader);
        if (fl.kind == fault::FaultKind::kLeaderKill) {
          // Die holding the leases: the supervisor revokes them, re-queues
          // the fragments, and respawns this slot.
          report.leaders[l].busy_seconds += busy_acc;
          supervisor->leader_exited(l);
          return;
        }
        if (fl.kind == fault::FaultKind::kLeaderHang) {
          // Go silent past the heartbeat timeout; the supervisor revokes
          // the held leases and this incarnation rejoins with every late
          // delivery fenced out.
          std::this_thread::sleep_for(
              std::chrono::duration<double>(fl.delay_seconds));
        }
      }
    }
    // Prefetch: request the next task before working the current one, so
    // the master round-trip overlaps with computation. execute_leased
    // never throws for a fragment, so the prefetched task cannot be
    // dropped.
    if (options.prefetch) {
      next = fetch();
      have_next = true;
    }
    busy.reset();
    {
      obs::SpanGuard task_span(obs, "leader.task", "runtime");
      task_span.arg("leader", static_cast<double>(l))
          .arg("n_fragments", static_cast<double>(current.task.size()));
      // Failures are routed back through the scheduler (bounded retry)
      // instead of aborting the sweep, and deliveries under a revoked
      // lease are fenced out.
      execute_leased(drive, l, current.task, current.tokens, workers);
    }
    busy_acc += busy.seconds();
    report.leaders[l].tasks++;
    report.leaders[l].fragments += current.task.size();
    if (supervised) supervisor->beat(l);
  }
  report.leaders[l].busy_seconds += busy_acc;
  if (supervised) supervisor->leader_retired(l);
}

class ThreadTransport final : public LeaderTransport {
 public:
  const char* name() const override { return "thread"; }

  void run(SweepDrive& drive) override {
    const std::size_t n_leaders = drive.options.n_leaders;
    std::vector<std::thread> threads(n_leaders);
    // Guards the thread objects: a leader killed on its very first task
    // can have the supervisor respawning its slot while the main thread
    // is still move-assigning the original std::thread into it.
    std::mutex threads_mutex;
    if (drive.supervisor != nullptr) {
      drive.supervisor->start(
          n_leaders, [&drive] { return drive.wall->seconds(); },
          [&](std::size_t l) {
            // Runs on the supervisor thread with no supervisor lock held;
            // the dead incarnation has already returned (join is brief).
            std::lock_guard<std::mutex> lock(threads_mutex);
            if (threads[l].joinable()) threads[l].join();
            threads[l] = std::thread([&drive, l] { leader_main(drive, l); });
          });
      {
        std::lock_guard<std::mutex> lock(threads_mutex);
        for (std::size_t l = 0; l < n_leaders; ++l)
          threads[l] = std::thread([&drive, l] { leader_main(drive, l); });
      }
      // The master waits on sweep completion, not on the original leader
      // threads: slots may be respawned while we wait. Stopping the
      // supervisor first guarantees no further respawns race the joins.
      while (!drive.scheduler.finished())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      drive.supervisor->stop();
      for (auto& t : threads)
        if (t.joinable()) t.join();
    } else {
      for (std::size_t l = 0; l < n_leaders; ++l)
        threads[l] = std::thread([&drive, l] { leader_main(drive, l); });
      for (auto& t : threads)
        if (t.joinable()) t.join();
    }
  }
};

}  // namespace

std::unique_ptr<LeaderTransport> make_thread_transport() {
  return std::make_unique<ThreadTransport>();
}

}  // namespace qfr::runtime
