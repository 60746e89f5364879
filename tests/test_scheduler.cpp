#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <source_location>
#include <stdexcept>

#include "qfr/chem/protein.hpp"
#include "qfr/cluster/des.hpp"
#include "qfr/common/cancel.hpp"
#include "qfr/common/error.hpp"
#include "qfr/fault/validator.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/runtime/sweep_scheduler.hpp"

namespace qfr::runtime {
namespace {

using balance::WorkItem;

std::vector<WorkItem> simple_items(std::size_t n) {
  std::vector<WorkItem> items;
  balance::CostModel cm;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t atoms = 9 + 7 * (i % 9);
    items.push_back({i, atoms, cm.evaluate(atoms)});
  }
  return items;
}

/// Deliver an empty (valid) result under the task's k-th lease.
Completion deliver(SweepScheduler& sched, const LeasedTask& task,
                   std::size_t k, std::string_view engine = {}) {
  return sched.on_completion(task.leases[k], engine::FragmentResult{}, engine);
}

TEST(Attempt, ClassifiesEveryThrow) {
  const common::CancelToken none;
  auto throwing = [&](auto thrown) {
    return run_attempt(none, [&]() -> engine::FragmentResult {
      throw thrown;
    });
  };
  const auto here = std::source_location::current();
  EXPECT_EQ(throwing(CancelledError("revoked", here)).reason,
            FailureReason::kCancelled);
  const TimeoutError watchdog("watchdog", here);
  const Attempt timeout = throwing(watchdog);
  EXPECT_EQ(timeout.reason, FailureReason::kTimeout);
  EXPECT_EQ(timeout.error, watchdog.what());
  const NumericalError diverged("scf diverged", here);
  const Attempt nonconv = throwing(diverged);
  EXPECT_EQ(nonconv.reason, FailureReason::kNonConvergence);
  EXPECT_EQ(nonconv.error, diverged.what());
  const Attempt crashed = throwing(std::runtime_error("segfault proxy"));
  EXPECT_EQ(crashed.reason, FailureReason::kEngineError);
  EXPECT_EQ(crashed.error, "segfault proxy");
  const Attempt foreign = throwing(42);
  EXPECT_EQ(foreign.reason, FailureReason::kEngineError);
  EXPECT_EQ(foreign.error, "unknown error");

  // A completed attempt carries its result and wall time; a token that
  // fired before the start cancels without running the compute.
  engine::FragmentResult r;
  r.energy = -76.0;
  const Attempt done = run_attempt(none, [&] { return r; });
  EXPECT_EQ(done.reason, FailureReason::kNone);
  EXPECT_EQ(done.result.energy, -76.0);
  EXPECT_GE(done.seconds, 0.0);
  common::CancelSource source;
  source.cancel();
  bool ran = false;
  const Attempt early = run_attempt(source.token(), [&] {
    ran = true;
    return r;
  });
  EXPECT_EQ(early.reason, FailureReason::kCancelled);
  EXPECT_FALSE(ran);
}

TEST(SweepScheduler, DrainsEveryFragmentExactlyOnce) {
  auto policy = balance::make_fifo_policy(3);
  SweepScheduler sched(simple_items(10), std::move(policy));
  std::set<std::size_t> seen;
  double now = 0.0;
  while (!sched.finished()) {
    LeasedTask t = sched.acquire(0, now);
    ASSERT_FALSE(t.empty());
    ASSERT_EQ(t.items.size(), t.leases.size());
    for (std::size_t k = 0; k < t.size(); ++k) {
      EXPECT_EQ(t.items[k].fragment_id, t.leases[k].fragment_id);
      EXPECT_TRUE(seen.insert(t.leases[k].fragment_id).second);
      EXPECT_EQ(deliver(sched, t, k), Completion::kAccepted);
    }
    now += 1.0;
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(sched.n_completed(), 10u);
  EXPECT_EQ(sched.n_failed(), 0u);
  EXPECT_EQ(sched.n_tasks(), 4u);  // fifo pack 3 over 10 items
  for (const auto& o : sched.outcomes()) {
    EXPECT_TRUE(o.completed);
    EXPECT_EQ(o.attempts, 1u);
    EXPECT_TRUE(o.error.empty());
  }
}

TEST(SweepScheduler, FailureRetriedThenCompletes) {
  auto policy = balance::make_fifo_policy(1);
  SweepOptions opts;
  opts.max_retries = 2;
  SweepScheduler sched(simple_items(2), std::move(policy), opts);

  LeasedTask t = sched.acquire(0, 0.0);
  ASSERT_EQ(t.size(), 1u);
  const std::size_t first = t.leases[0].fragment_id;
  sched.fail(t.leases[0], "transient");
  EXPECT_EQ(sched.n_retries(), 1u);
  EXPECT_FALSE(sched.finished());

  // The retry is served before fresh queue pops, under a fresh lease.
  LeasedTask retry = sched.acquire(0, 1.0);
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry.leases[0].fragment_id, first);
  EXPECT_GT(retry.leases[0].epoch, t.leases[0].epoch);
  EXPECT_EQ(deliver(sched, retry, 0), Completion::kAccepted);

  LeasedTask rest = sched.acquire(0, 2.0);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(deliver(sched, rest, 0), Completion::kAccepted);
  EXPECT_TRUE(sched.finished());
  EXPECT_EQ(sched.outcomes()[first].attempts, 2u);
  EXPECT_TRUE(sched.outcomes()[first].error.empty());
}

TEST(SweepScheduler, RetriesExhaustedReportsOutcomeInsteadOfLoopingForever) {
  auto policy = balance::make_fifo_policy(1);
  SweepOptions opts;
  opts.max_retries = 1;
  SweepScheduler sched(simple_items(3), std::move(policy), opts);
  std::size_t dispatches_of_0 = 0;
  double now = 0.0;
  while (!sched.finished()) {
    LeasedTask t = sched.acquire(0, now);
    ASSERT_FALSE(t.empty()) << "scheduler must stay dispatchable";
    for (std::size_t k = 0; k < t.size(); ++k) {
      if (t.leases[k].fragment_id == 0) {
        ++dispatches_of_0;
        sched.fail(t.leases[k], "persistent failure");
      } else {
        EXPECT_EQ(deliver(sched, t, k), Completion::kAccepted);
      }
    }
    now += 1.0;
  }
  EXPECT_EQ(dispatches_of_0, 2u);  // first attempt + one retry
  EXPECT_EQ(sched.n_failed(), 1u);
  EXPECT_EQ(sched.n_completed(), 2u);
  const auto outcomes = sched.outcomes();
  EXPECT_FALSE(outcomes[0].completed);
  EXPECT_EQ(outcomes[0].attempts, 2u);
  EXPECT_EQ(outcomes[0].error, "persistent failure");
  EXPECT_TRUE(outcomes[1].completed);
  EXPECT_TRUE(outcomes[2].completed);
}

TEST(SweepScheduler, StragglerRequeuedAndStaleLeaseFencedOut) {
  auto policy = balance::make_fifo_policy(1);
  SweepOptions opts;
  opts.straggler_timeout = 5.0;
  SweepScheduler sched(simple_items(1), std::move(policy), opts);

  LeasedTask t = sched.acquire(0, 0.0);
  ASSERT_EQ(t.size(), 1u);
  // Nothing else to hand out yet, and not finished: the fragment is in
  // flight on a (slow) leader.
  EXPECT_TRUE(sched.acquire(0, 1.0).empty());
  EXPECT_FALSE(sched.finished());
  EXPECT_TRUE(sched.lease_valid(t.leases[0]));

  // Past the timeout the status table flips it back and re-dispatches
  // under a fresh lease; the original lease is revoked.
  LeasedTask copy = sched.acquire(0, 6.0);
  ASSERT_EQ(copy.size(), 1u);
  EXPECT_EQ(copy.leases[0].fragment_id, 0u);
  EXPECT_GE(sched.n_requeued(), 1u);
  EXPECT_FALSE(sched.lease_valid(t.leases[0]));

  EXPECT_EQ(deliver(sched, copy, 0), Completion::kAccepted);
  EXPECT_EQ(deliver(sched, t, 0), Completion::kStale);  // original is fenced
  EXPECT_TRUE(sched.finished());
  EXPECT_EQ(sched.n_completed(), 1u);
  EXPECT_EQ(sched.outcomes()[0].attempts, 2u);
}

TEST(SweepScheduler, TickRequeuesStragglersWithoutAcquire) {
  // Satellite regression: with every leader busy nobody calls acquire(),
  // so the deadline scan must be drivable on its own (supervisor / DES).
  auto policy = balance::make_fifo_policy(1);
  SweepOptions opts;
  opts.straggler_timeout = 5.0;
  SweepScheduler sched(simple_items(1), std::move(policy), opts);
  LeasedTask t = sched.acquire(0, 0.0);
  ASSERT_EQ(t.size(), 1u);

  EXPECT_EQ(sched.tick(1.0), 0u);  // within the deadline: no-op
  EXPECT_TRUE(sched.lease_valid(t.leases[0]));
  EXPECT_EQ(sched.tick(6.0), 1u);  // past it: revoked and re-queued
  EXPECT_FALSE(sched.lease_valid(t.leases[0]));
  EXPECT_GE(sched.n_requeued(), 1u);

  LeasedTask copy = sched.acquire(0, 6.0);
  ASSERT_EQ(copy.size(), 1u);
  EXPECT_EQ(copy.leases[0].fragment_id, 0u);
  EXPECT_EQ(deliver(sched, copy, 0), Completion::kAccepted);
  EXPECT_EQ(deliver(sched, t, 0), Completion::kStale);
  EXPECT_TRUE(sched.finished());
}

TEST(SweepScheduler, RevokeLeaseRequeuesWithoutConsumingRetry) {
  auto policy = balance::make_fifo_policy(1);
  SweepOptions opts;
  opts.max_retries = 0;  // leader loss must not eat the only attempt
  SweepScheduler sched(simple_items(1), std::move(policy), opts);
  LeasedTask t = sched.acquire(0, 0.0);
  ASSERT_EQ(t.size(), 1u);

  EXPECT_TRUE(sched.revoke_lease(t.leases[0]));   // supervisor: owner died
  EXPECT_FALSE(sched.revoke_lease(t.leases[0]));  // already stale
  EXPECT_EQ(sched.n_revoked(), 1u);
  EXPECT_EQ(sched.n_retries(), 0u);

  LeasedTask again = sched.acquire(0, 1.0);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again.leases[0].fragment_id, 0u);
  EXPECT_EQ(deliver(sched, again, 0), Completion::kAccepted);
  EXPECT_TRUE(sched.finished());
  EXPECT_EQ(sched.n_failed(), 0u);
  const FragmentOutcome o = sched.outcomes()[0];
  EXPECT_TRUE(o.completed);
  EXPECT_EQ(o.attempts, 2u);
  EXPECT_EQ(o.engine_level, 0u);  // no degradation either
}

TEST(SweepScheduler, StaleFailureReportIsIgnored) {
  auto policy = balance::make_fifo_policy(1);
  SweepOptions opts;
  opts.max_retries = 0;
  SweepScheduler sched(simple_items(1), std::move(policy), opts);
  LeasedTask t = sched.acquire(0, 0.0);
  ASSERT_EQ(t.size(), 1u);
  ASSERT_TRUE(sched.revoke_lease(t.leases[0]));

  // A failure from the presumed-dead owner arrives after revocation: it
  // no longer owns the fragment, so nothing moves.
  sched.fail(t.leases[0], "zombie leader reports in");
  EXPECT_EQ(sched.n_failed(), 0u);
  EXPECT_EQ(sched.n_retries(), 0u);
  EXPECT_TRUE(sched.outcomes()[0].error.empty());

  LeasedTask again = sched.acquire(0, 1.0);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(deliver(sched, again, 0), Completion::kAccepted);
  EXPECT_TRUE(sched.finished());
}

TEST(SweepScheduler, ResumeSeedsCompletedFragments) {
  auto policy = balance::make_fifo_policy(1);
  SweepOptions opts;
  opts.completed_ids = {0, 2, 4};
  SweepScheduler sched(simple_items(5), std::move(policy), opts);
  EXPECT_EQ(sched.n_resumed(), 3u);
  EXPECT_EQ(sched.n_completed(), 3u);

  std::set<std::size_t> dispatched;
  double now = 0.0;
  while (!sched.finished()) {
    LeasedTask t = sched.acquire(0, now);
    ASSERT_FALSE(t.empty());
    for (std::size_t k = 0; k < t.size(); ++k) {
      dispatched.insert(t.leases[k].fragment_id);
      EXPECT_EQ(deliver(sched, t, k), Completion::kAccepted);
    }
    now += 1.0;
  }
  EXPECT_EQ(dispatched, (std::set<std::size_t>{1, 3}));
  const auto outcomes = sched.outcomes();
  EXPECT_TRUE(outcomes[0].from_checkpoint);
  EXPECT_EQ(outcomes[0].attempts, 0u);
  EXPECT_EQ(outcomes[0].engine, "checkpoint");
  EXPECT_FALSE(outcomes[1].from_checkpoint);
  EXPECT_EQ(outcomes[1].attempts, 1u);
}

TEST(SweepScheduler, ResumedFragmentsNeverRedispatchedUnderFallbackChain) {
  // Checkpoint-resume x fallback-chain: a resumed fragment stays at the
  // primary level with engine "checkpoint", even while other fragments
  // degrade down the ladder — it must never re-enter the queue.
  auto policy = balance::make_fifo_policy(1);
  SweepOptions opts;
  opts.max_retries = 0;
  opts.n_engine_levels = 2;
  opts.completed_ids = {0};
  SweepScheduler sched(simple_items(2), std::move(policy), opts);
  EXPECT_EQ(sched.n_resumed(), 1u);

  LeasedTask t = sched.acquire(0, 0.0);
  ASSERT_EQ(t.size(), 1u);
  ASSERT_EQ(t.leases[0].fragment_id, 1u);
  sched.fail(t.leases[0], "primary diverged", FailureReason::kNonConvergence);
  EXPECT_EQ(sched.n_degraded(), 1u);
  LeasedTask retry = sched.acquire(0, 1.0);
  ASSERT_EQ(retry.size(), 1u);
  ASSERT_EQ(retry.leases[0].fragment_id, 1u);
  EXPECT_EQ(deliver(sched, retry, 0, "model"), Completion::kAccepted);
  EXPECT_TRUE(sched.finished());

  const auto outcomes = sched.outcomes();
  EXPECT_TRUE(outcomes[0].from_checkpoint);
  EXPECT_EQ(outcomes[0].attempts, 0u);
  EXPECT_EQ(outcomes[0].engine, "checkpoint");
  EXPECT_EQ(outcomes[0].engine_level, 0u);  // resume never degrades
  EXPECT_TRUE(outcomes[1].degraded());
  // The resumed fragment appears in no dispatched task.
  for (const auto& task : sched.task_log())
    EXPECT_EQ(std::count(task.begin(), task.end(), 0u), 0);
}

TEST(SweepScheduler, RevokedOriginalCannotRescindPermanentFailure) {
  // A straggler copy exhausts its retries and the fragment dies; the slow
  // original then finally delivers. Under lease fencing the original's
  // lease was revoked at re-queue time, so its late result is discarded
  // even though the work "succeeded": acceptance is decided by ownership,
  // never by completion order. (This replaces the pre-fencing behaviour
  // where a late original could rescind the failure — that path re-opened
  // the ABA window the epochs exist to close.)
  auto policy = balance::make_fifo_policy(1);
  SweepOptions opts;
  opts.straggler_timeout = 1.0;
  opts.max_retries = 0;
  SweepScheduler sched(simple_items(1), std::move(policy), opts);
  LeasedTask original = sched.acquire(0, 0.0);
  ASSERT_EQ(original.size(), 1u);
  LeasedTask copy = sched.acquire(0, 2.0);  // straggler re-queue
  ASSERT_EQ(copy.size(), 1u);
  sched.fail(copy.leases[0], "copy died");  // retries exhausted
  EXPECT_EQ(sched.n_failed(), 1u);
  EXPECT_TRUE(sched.finished());

  EXPECT_EQ(deliver(sched, original, 0), Completion::kStale);
  EXPECT_EQ(sched.n_failed(), 1u);
  EXPECT_EQ(sched.n_completed(), 0u);
  EXPECT_FALSE(sched.outcomes()[0].completed);
  EXPECT_TRUE(sched.finished());
}

TEST(SweepScheduler, RejectsNonDenseFragmentIds) {
  auto policy = balance::make_fifo_policy(1);
  std::vector<WorkItem> items = {{5, 10, 1.0}};  // id out of [0, 1)
  EXPECT_THROW(SweepScheduler(items, std::move(policy)), InvalidArgument);
  auto policy2 = balance::make_fifo_policy(1);
  std::vector<WorkItem> dup = {{0, 10, 1.0}, {0, 12, 1.0}};
  EXPECT_THROW(SweepScheduler(dup, std::move(policy2)), InvalidArgument);
}

TEST(SweepScheduler, RetriesExhaustedDegradeToNextEngineLevel) {
  auto policy = balance::make_fifo_policy(1);
  SweepOptions opts;
  opts.max_retries = 0;  // one attempt per level
  opts.n_engine_levels = 2;
  SweepScheduler sched(simple_items(1), std::move(policy), opts);

  LeasedTask t = sched.acquire(0, 0.0);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(sched.engine_level(0), 0u);
  sched.fail(t.leases[0], "scf diverged", FailureReason::kNonConvergence);
  // Instead of dying, the fragment moved one rung down the ladder.
  EXPECT_EQ(sched.n_failed(), 0u);
  EXPECT_EQ(sched.n_degraded(), 1u);
  EXPECT_EQ(sched.engine_level(0), 1u);
  EXPECT_FALSE(sched.finished());

  LeasedTask retry = sched.acquire(0, 1.0);
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry.leases[0].fragment_id, 0u);
  EXPECT_EQ(deliver(sched, retry, 0, "model"), Completion::kAccepted);
  EXPECT_TRUE(sched.finished());

  const FragmentOutcome o = sched.outcomes()[0];
  EXPECT_TRUE(o.completed);
  EXPECT_TRUE(o.degraded());
  EXPECT_EQ(o.engine_level, 1u);
  EXPECT_EQ(o.engine, "model");
  // Why the fragment degraded stays on record for the report.
  EXPECT_EQ(o.reason, FailureReason::kNonConvergence);
  EXPECT_EQ(o.error, "scf diverged");
  EXPECT_EQ(o.attempts, 2u);
}

TEST(SweepScheduler, LastLevelExhaustedIsPermanentFailure) {
  auto policy = balance::make_fifo_policy(1);
  SweepOptions opts;
  opts.max_retries = 0;
  opts.n_engine_levels = 2;
  SweepScheduler sched(simple_items(1), std::move(policy), opts);

  LeasedTask t = sched.acquire(0, 0.0);
  ASSERT_EQ(t.size(), 1u);
  sched.fail(t.leases[0], "level 0 died", FailureReason::kEngineError);
  LeasedTask t2 = sched.acquire(0, 1.0);
  ASSERT_EQ(t2.size(), 1u);
  sched.fail(t2.leases[0], "watchdog fired", FailureReason::kTimeout);
  EXPECT_EQ(sched.n_failed(), 1u);
  EXPECT_TRUE(sched.finished());

  const FragmentOutcome o = sched.outcomes()[0];
  EXPECT_FALSE(o.completed);
  EXPECT_EQ(o.reason, FailureReason::kTimeout);
  EXPECT_EQ(o.error, "watchdog fired");
  EXPECT_STREQ(to_string(o.reason), "timeout");
}

TEST(SweepScheduler, ValidatorRejectionRoutedIntoRetryPath) {
  auto policy = balance::make_fifo_policy(1);
  const fault::FragmentResultValidator validator;
  SweepOptions opts;
  opts.max_retries = 1;
  opts.validator = &validator;
  SweepScheduler sched(simple_items(1), std::move(policy), opts);

  LeasedTask t = sched.acquire(0, 0.0);
  ASSERT_EQ(t.size(), 1u);
  engine::FragmentResult poisoned;
  poisoned.energy = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(sched.on_completion(t.leases[0], poisoned, "scf"),
            Completion::kRejected);
  EXPECT_EQ(sched.n_rejected(), 1u);
  EXPECT_EQ(sched.n_completed(), 0u);
  EXPECT_FALSE(sched.finished());

  // The rejection consumed a retry; a clean delivery then lands.
  LeasedTask retry = sched.acquire(0, 1.0);
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(deliver(sched, retry, 0, "scf"), Completion::kAccepted);
  EXPECT_TRUE(sched.finished());
  const FragmentOutcome o = sched.outcomes()[0];
  EXPECT_TRUE(o.completed);
  EXPECT_FALSE(o.degraded());
  EXPECT_EQ(o.reason, FailureReason::kNone);  // clean primary completion
  EXPECT_TRUE(o.error.empty());
  EXPECT_EQ(o.engine, "scf");
}

TEST(SweepScheduler, StaleCompletionAfterRequeueIsDiscardedByGate) {
  auto policy = balance::make_fifo_policy(1);
  SweepOptions opts;
  opts.straggler_timeout = 5.0;
  SweepScheduler sched(simple_items(1), std::move(policy), opts);
  LeasedTask original = sched.acquire(0, 0.0);
  ASSERT_EQ(original.size(), 1u);
  LeasedTask copy = sched.acquire(0, 6.0);  // straggler re-queue
  ASSERT_EQ(copy.size(), 1u);
  EXPECT_EQ(sched.on_completion(original.leases[0], engine::FragmentResult{},
                                "a"),
            Completion::kStale);  // fenced even though it arrives first
  EXPECT_EQ(sched.on_completion(copy.leases[0], engine::FragmentResult{}, "b"),
            Completion::kAccepted);
  EXPECT_EQ(sched.outcomes()[0].engine, "b");
  EXPECT_EQ(sched.n_completed(), 1u);
}

// A whole-node crash mid-sweep: the in-flight task is lost, the straggler
// timeout re-queues its fragments to surviving nodes, the node rejoins
// later, and the sweep still completes every fragment — deterministically.
TEST(SweepScheduler, DesNodeCrashSweepStillCompletesEveryFragment) {
  const std::vector<WorkItem> items = simple_items(40);
  double total_cost = 0.0;
  for (const auto& w : items) total_cost += w.cost;

  cluster::DesOptions dopts;
  dopts.n_nodes = 2;
  dopts.machine.leaders_per_node = 1;
  dopts.machine.workers_per_leader = 1;
  dopts.machine.node_speed_jitter = 0.0;
  dopts.machine.cost_noise = 0.0;
  // Node 0 dies somewhere inside its first half of the work and stays
  // down long enough that node 1 must absorb the lost fragments.
  cluster::NodeCrash crash;
  crash.node = 0;
  crash.at = 0.31 * total_cost / 2.0;
  crash.downtime = 0.2 * total_cost;
  dopts.node_crashes = {crash};
  dopts.straggler_timeout = 0.05 * total_cost;

  auto run_once = [&] {
    auto policy = balance::make_size_sensitive_policy();
    return cluster::simulate_cluster(items, *policy, dopts);
  };
  const cluster::DesReport rep = run_once();

  // simulate_cluster only returns when the scheduler is finished, and the
  // DES never fails fragments — termination itself proves completion; the
  // crash must additionally have cost us a task and forced re-queues.
  EXPECT_EQ(rep.n_fragments, 40u);
  EXPECT_EQ(rep.n_crashes, 1u);
  EXPECT_GE(rep.n_crash_lost_tasks, 1u);
  EXPECT_GE(rep.n_requeued_tasks, 1u);
  EXPECT_GT(rep.makespan, 0.0);
  std::set<std::size_t> covered;
  for (const auto& task : rep.task_log)
    covered.insert(task.begin(), task.end());
  EXPECT_EQ(covered.size(), 40u);

  // Fault injection is deterministic: an identical plan replays an
  // identical schedule.
  const cluster::DesReport rep2 = run_once();
  EXPECT_DOUBLE_EQ(rep.makespan, rep2.makespan);
  EXPECT_EQ(rep.task_log, rep2.task_log);
  EXPECT_EQ(rep.n_crash_lost_tasks, rep2.n_crash_lost_tasks);
}

// Retry-storm regression: with backoff configured, a failed fragment is
// NOT immediately re-dispatchable — it becomes eligible only after the
// jittered-exponential delay, and next_deadline() exposes the eligibility
// time so drivers can sleep instead of poll.
TEST(SweepScheduler, RetryBackoffDelaysRedispatch) {
  SweepOptions opts;
  opts.max_retries = 5;
  opts.retry_backoff_base = 0.05;
  opts.retry_backoff_max = 10.0;
  opts.retry_backoff_jitter = 0.5;
  opts.retry_backoff_seed = 1234;
  SweepScheduler sched(simple_items(1), balance::make_fifo_policy(1), opts);

  LeasedTask t = sched.acquire(0, 0.0);
  ASSERT_EQ(t.size(), 1u);
  sched.fail(t.leases[0], "transient");

  // First failure: backed off for base*(1-jitter)..base past the failure.
  EXPECT_TRUE(sched.acquire(0, 0.001).empty());
  const double d1 = sched.next_deadline();
  EXPECT_GE(d1, 0.025);
  EXPECT_LE(d1, 0.05);

  // Eligible once past the un-jittered base delay.
  LeasedTask r1 = sched.acquire(0, 0.06);
  ASSERT_EQ(r1.size(), 1u);
  sched.fail(r1.leases[0], "transient again");

  // Second failure doubles the delay: eligible in 0.06 + [0.05, 0.10].
  EXPECT_TRUE(sched.acquire(0, 0.10).empty());
  const double d2 = sched.next_deadline();
  EXPECT_GE(d2, 0.11);
  EXPECT_LE(d2, 0.16);

  LeasedTask r2 = sched.acquire(0, 0.17);
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(deliver(sched, r2, 0), Completion::kAccepted);
  EXPECT_TRUE(sched.finished());
  EXPECT_EQ(sched.n_retries(), 2u);
  EXPECT_EQ(sched.n_fault_retries(), 2u);
  EXPECT_EQ(sched.n_reject_retries(), 0u);
}

// The jitter is a pure function of (seed, fragment, failure count): the
// same seed replays the same delay, and every draw stays inside the
// documented band [base*(1-jitter), base] so a storm of first failures
// fans out but never waits longer than the un-jittered schedule.
TEST(SweepScheduler, RetryBackoffJitterIsSeededAndBounded) {
  auto first_delay = [](std::uint64_t seed) {
    SweepOptions opts;
    opts.max_retries = 5;
    opts.retry_backoff_base = 0.05;
    opts.retry_backoff_jitter = 0.5;
    opts.retry_backoff_seed = seed;
    SweepScheduler s(simple_items(1), balance::make_fifo_policy(1), opts);
    LeasedTask t = s.acquire(0, 0.0);
    s.fail(t.leases[0], "boom");
    return s.next_deadline();
  };
  EXPECT_DOUBLE_EQ(first_delay(7), first_delay(7));
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const double d = first_delay(seed);
    EXPECT_GE(d, 0.025) << "seed " << seed;
    EXPECT_LE(d, 0.05) << "seed " << seed;
  }
}

// Acceptance: the real threaded runtime and the DES substitution drive
// the same scheduler core, so under zero noise they emit identical task
// sequences (fragment-id multisets per task) for the same WorkItem set
// and policy.
TEST(SweepScheduler, RuntimeAndDesEmitIdenticalSchedules) {
  frag::BioSystem sys;
  chem::ProteinBuildOptions popts;
  popts.n_residues = 24;
  popts.seed = 13;
  sys.chains.push_back(chem::build_synthetic_protein(popts));
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);
  ASSERT_GT(fr.fragments.size(), 20u);

  // Real path: threads + wall-clock time, trivial compute.
  RuntimeOptions ropts;
  ropts.n_leaders = 3;
  ropts.policy_factory = [] { return balance::make_size_sensitive_policy(); };
  const MasterRuntime rt(std::move(ropts));
  const RunReport real = rt.run(fr.fragments, [](const frag::Fragment&) {
    return engine::FragmentResult{};
  });

  // Simulated path: the DES advances the same state machine with
  // simulated time. Zero jitter/noise so costs are exact.
  balance::CostModel cm;
  std::vector<WorkItem> items;
  for (const auto& f : fr.fragments)
    items.push_back({f.id, f.n_atoms(), cm.evaluate(f.n_atoms())});
  cluster::DesOptions dopts;
  dopts.n_nodes = 2;
  dopts.machine.leaders_per_node = 2;
  dopts.machine.node_speed_jitter = 0.0;
  dopts.machine.cost_noise = 0.0;
  auto policy = balance::make_size_sensitive_policy();
  const cluster::DesReport sim =
      cluster::simulate_cluster(items, *policy, dopts);

  ASSERT_EQ(real.task_log.size(), sim.task_log.size());
  for (std::size_t i = 0; i < real.task_log.size(); ++i) {
    std::multiset<std::size_t> a(real.task_log[i].begin(),
                                 real.task_log[i].end());
    std::multiset<std::size_t> b(sim.task_log[i].begin(),
                                 sim.task_log[i].end());
    EXPECT_EQ(a, b) << "task " << i << " diverged between runtime and DES";
  }
}

}  // namespace
}  // namespace qfr::runtime
