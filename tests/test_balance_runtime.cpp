#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>

#include "qfr/balance/packing.hpp"
#include "qfr/chem/molecule.hpp"
#include "qfr/common/error.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/runtime/master_runtime.hpp"

namespace qfr {
namespace {

using balance::Task;
using balance::WorkItem;

std::vector<WorkItem> mixed_items(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<WorkItem> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t atoms = 9 + rng.below(60);  // 9..68 like the paper
    balance::CostModel cm;
    items.push_back({i, atoms, cm.evaluate(atoms)});
  }
  return items;
}

// Drain a policy; verify every fragment appears exactly once.
std::vector<Task> drain(balance::PackingPolicy& policy,
                        std::vector<WorkItem> items) {
  const std::size_t n = items.size();
  policy.initialize(std::move(items));
  std::vector<Task> tasks;
  std::set<std::size_t> seen;
  while (!policy.drained()) {
    Task t = policy.next_task(0);
    if (t.empty()) break;
    for (const auto& w : t) {
      EXPECT_TRUE(seen.insert(w.fragment_id).second)
          << "fragment " << w.fragment_id << " scheduled twice";
    }
    tasks.push_back(std::move(t));
  }
  EXPECT_EQ(seen.size(), n);
  return tasks;
}

TEST(CostModel, ReproducesPaperCostRatio) {
  // 9-atom vs 68-atom fragments: the paper reports a ~19x cost gap.
  balance::CostModel cm;
  const double ratio = cm.evaluate(68) / cm.evaluate(9);
  EXPECT_GT(ratio, 15.0);
  EXPECT_LT(ratio, 24.0);
}

TEST(SizeSensitive, EveryFragmentScheduledOnce) {
  auto policy = balance::make_size_sensitive_policy();
  drain(*policy, mixed_items(500, 3));
}

TEST(SizeSensitive, LargeFragmentsTravelAlone) {
  auto policy = balance::make_size_sensitive_policy();
  const auto items = mixed_items(300, 5);
  const double max_cost =
      std::max_element(items.begin(), items.end(),
                       [](const WorkItem& a, const WorkItem& b) {
                         return a.cost < b.cost;
                       })
          ->cost;
  const auto tasks = drain(*policy, items);
  for (const auto& t : tasks) {
    if (t.size() == 1) continue;
    for (const auto& w : t) EXPECT_LT(w.cost, 0.5 * max_cost);
  }
}

TEST(SizeSensitive, TaskGranularityDecaysTowardTail) {
  auto policy = balance::make_size_sensitive_policy();
  const auto tasks = drain(*policy, mixed_items(1000, 7));
  // The last task must be no larger than the median mid-phase task.
  std::vector<std::size_t> sizes;
  for (const auto& t : tasks) sizes.push_back(t.size());
  EXPECT_LE(sizes.back(), sizes[sizes.size() / 2]);
  EXPECT_EQ(sizes.back(), 1u);  // final top-up tasks are single fragments
}

TEST(Fifo, FixedPackSize) {
  auto policy = balance::make_fifo_policy(8);
  const auto tasks = drain(*policy, mixed_items(100, 9));
  for (std::size_t i = 0; i + 1 < tasks.size(); ++i)
    EXPECT_EQ(tasks[i].size(), 8u);
}

TEST(Fifo, RejectsZeroPackSize) {
  EXPECT_THROW(balance::make_fifo_policy(0), InvalidArgument);
}

TEST(Static, PartitionsRoundRobin) {
  auto policy = balance::make_static_policy(4);
  const auto tasks = drain(*policy, mixed_items(103, 11));
  EXPECT_EQ(tasks.size(), 4u);  // one monolithic task per leader
  EXPECT_EQ(tasks[0].size(), 26u);
  EXPECT_EQ(tasks[3].size(), 25u);
}

TEST(Runtime, AllFragmentsComputedOnce) {
  frag::BioSystem sys;
  for (int i = 0; i < 7; ++i)
    sys.waters.push_back(
        chem::make_water({static_cast<double>(20 * i), 0, 0}));
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);
  ASSERT_EQ(fr.fragments.size(), 7u);

  runtime::RuntimeOptions opts;
  opts.n_leaders = 3;
  runtime::MasterRuntime rt(std::move(opts));
  engine::ModelEngine eng;
  const runtime::RunReport report = rt.run(fr.fragments, eng);
  ASSERT_EQ(report.results.size(), 7u);
  for (const auto& r : report.results) {
    EXPECT_EQ(r.hessian.rows(), 9u);  // every water got a real result
  }
  std::size_t leader_fragments = 0;
  for (const auto& l : report.leaders) leader_fragments += l.fragments;
  EXPECT_EQ(leader_fragments, 7u);
  EXPECT_GT(report.n_tasks, 0u);
}

TEST(Runtime, MatchesSerialResults) {
  frag::BioSystem sys;
  chem::ProteinBuildOptions popts;
  popts.n_residues = 6;
  popts.seed = 41;
  sys.chains.push_back(chem::build_synthetic_protein(popts));
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);

  engine::ModelEngine eng;
  runtime::RuntimeOptions opts;
  opts.n_leaders = 4;
  opts.workers_per_leader = 2;
  runtime::MasterRuntime rt(std::move(opts));
  const runtime::RunReport par = rt.run(fr.fragments, eng);

  for (std::size_t i = 0; i < fr.fragments.size(); ++i) {
    const auto serial =
        eng.compute_with_topology(fr.fragments[i].mol, fr.fragments[i].bonds);
    EXPECT_LT(la::max_abs_diff(par.results[i].hessian, serial.hessian),
              1e-14)
        << "fragment " << i;
  }
}

TEST(Runtime, PropagatesEngineFailure) {
  frag::BioSystem sys;
  sys.waters.push_back(chem::make_water({0, 0, 0}));
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);
  runtime::RuntimeOptions opts;
  opts.n_leaders = 1;
  runtime::MasterRuntime rt(std::move(opts));
  EXPECT_THROW(
      rt.run(fr.fragments,
             [](const frag::Fragment&) -> engine::FragmentResult {
               throw std::runtime_error("injected failure");
             }),
      NumericalError);
}

TEST(Policy, RequeueServedBeforeFreshPops) {
  auto policy = balance::make_fifo_policy(2);
  policy->initialize(mixed_items(6, 21));
  Task first = policy->next_task(0);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_FALSE(policy->drained());
  policy->requeue(first);  // a leader failed/straggled on it
  EXPECT_EQ(policy->n_requeued_pending(), 1u);
  Task again = policy->next_task(0);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].fragment_id, first[0].fragment_id);
  EXPECT_EQ(again[1].fragment_id, first[1].fragment_id);
  // Empty requeues are ignored; the queue drains normally afterwards.
  policy->requeue({});
  EXPECT_EQ(policy->n_requeued_pending(), 0u);
  while (!policy->drained()) policy->next_task(0);
}

// Satellite regression: RuntimeOptions used to carry a one-shot policy
// instance that run() moved out of, so a second run() on the same
// MasterRuntime saw a null policy. The factory makes the runtime
// reusable.
TEST(Runtime, ReusableAcrossRuns) {
  frag::BioSystem sys;
  for (int i = 0; i < 6; ++i)
    sys.waters.push_back(
        chem::make_water({static_cast<double>(20 * i), 0, 0}));
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);

  runtime::RuntimeOptions opts;
  opts.n_leaders = 2;
  opts.policy_factory = [] { return balance::make_fifo_policy(2); };
  const runtime::MasterRuntime rt(std::move(opts));
  engine::ModelEngine eng;
  const auto first = rt.run(fr.fragments, eng);
  const auto second = rt.run(fr.fragments, eng);  // used to dereference null
  ASSERT_EQ(first.results.size(), 6u);
  ASSERT_EQ(second.results.size(), 6u);
  EXPECT_EQ(first.n_tasks, second.n_tasks);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_LT(la::max_abs_diff(first.results[i].hessian,
                               second.results[i].hessian),
              1e-300);
}

// Satellite regression: a leader prefetches, so it holds a popped "next"
// task while the current one runs. A failing fragment must not cause the
// prefetched task to be dropped on the floor — the scheduler keeps every
// fragment accounted for until it is terminal.
TEST(Runtime, PrefetchedWorkSurvivesFailures) {
  frag::BioSystem sys;
  for (int i = 0; i < 12; ++i)
    sys.waters.push_back(
        chem::make_water({static_cast<double>(20 * i), 0, 0}));
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);

  runtime::RuntimeOptions opts;
  opts.n_leaders = 3;
  opts.policy_factory = [] { return balance::make_fifo_policy(1); };
  opts.max_retries = 3;
  opts.abort_on_failure = false;
  const runtime::MasterRuntime rt(std::move(opts));

  engine::ModelEngine eng;
  // Fragments 1, 5, and 9 fail on their first attempt only — transient
  // faults that succeed on retry.
  std::array<std::atomic<int>, 12> attempt_of{};
  const auto report =
      rt.run(fr.fragments, [&](const frag::Fragment& f) {
        const int attempt = attempt_of[f.id].fetch_add(1);
        if (attempt == 0 && (f.id == 1 || f.id == 5 || f.id == 9))
          throw std::runtime_error("transient fault");
        return eng.compute_with_topology(f.mol, f.bonds);
      });
  EXPECT_EQ(report.n_failed(), 0u);
  EXPECT_GE(report.n_retries, 3u);
  ASSERT_EQ(report.results.size(), 12u);
  for (const auto& r : report.results) EXPECT_EQ(r.hessian.rows(), 9u);
  for (const auto& o : report.outcomes) EXPECT_TRUE(o.completed);
}

// Satellite: the fragment status table under real concurrency. One
// fragment is made slow enough to trip the straggler timeout; the
// scheduler re-queues it to another leader, the slow original's late
// completion is discarded as stale, and every fragment still produces
// exactly one accepted result.
TEST(Runtime, SlowFragmentRequeuedAndStaleCompletionDiscarded) {
  frag::BioSystem sys;
  for (int i = 0; i < 8; ++i)
    sys.waters.push_back(
        chem::make_water({static_cast<double>(20 * i), 0, 0}));
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);

  runtime::RuntimeOptions opts;
  opts.n_leaders = 2;
  opts.policy_factory = [] { return balance::make_fifo_policy(1); };
  opts.straggler_timeout = 0.15;  // seconds of wall time
  const runtime::MasterRuntime rt(std::move(opts));

  engine::ModelEngine eng;
  std::atomic<int> slow_invocations{0};
  std::atomic<int> invocations{0};
  const auto report =
      rt.run(fr.fragments, [&](const frag::Fragment& f) {
        invocations.fetch_add(1);
        // Only the first dispatch of fragment 0 stalls; the re-queued
        // copy runs at full speed.
        if (f.id == 0 && slow_invocations.fetch_add(1) == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(600));
        return eng.compute_with_topology(f.mol, f.bonds);
      });

  EXPECT_GE(report.n_requeued, 1u);             // the straggler scan fired
  EXPECT_GE(invocations.load(), 9);             // fragment 0 ran twice
  ASSERT_EQ(report.results.size(), 8u);
  for (const auto& r : report.results)
    EXPECT_EQ(r.hessian.rows(), 9u);            // exactly one result each
  EXPECT_GE(report.outcomes[0].attempts, 2u);   // original + re-queued copy
  for (const auto& o : report.outcomes) EXPECT_TRUE(o.completed);
}

// Tentpole acceptance: a fragment that fails persistently no longer
// aborts the sweep — the others complete and the failure is reported as
// a per-fragment outcome.
TEST(Runtime, PersistentFailureReportedNotFatal) {
  frag::BioSystem sys;
  for (int i = 0; i < 5; ++i)
    sys.waters.push_back(
        chem::make_water({static_cast<double>(20 * i), 0, 0}));
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);

  runtime::RuntimeOptions opts;
  opts.n_leaders = 2;
  opts.policy_factory = [] { return balance::make_fifo_policy(1); };
  opts.max_retries = 1;
  opts.abort_on_failure = false;
  const runtime::MasterRuntime rt(std::move(opts));

  engine::ModelEngine eng;
  std::atomic<int> dispatches_of_2{0};
  const auto report =
      rt.run(fr.fragments, [&](const frag::Fragment& f) {
        if (f.id == 2) {
          dispatches_of_2.fetch_add(1);
          throw std::runtime_error("bad SCF convergence");
        }
        return eng.compute_with_topology(f.mol, f.bonds);
      });

  EXPECT_EQ(report.n_failed(), 1u);
  EXPECT_EQ(dispatches_of_2.load(), 2);  // first attempt + one retry
  ASSERT_EQ(report.outcomes.size(), 5u);
  EXPECT_FALSE(report.outcomes[2].completed);
  EXPECT_EQ(report.outcomes[2].attempts, 2u);
  EXPECT_NE(report.outcomes[2].error.find("bad SCF convergence"),
            std::string::npos);
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(report.outcomes[i].completed);
    EXPECT_EQ(report.results[i].hessian.rows(), 9u);
  }
}

}  // namespace
}  // namespace qfr
