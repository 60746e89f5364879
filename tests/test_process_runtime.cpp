// Process-transport robustness: forked leader processes behind the same
// scheduler must be observationally identical to leader threads — on the
// happy path (three-way parity with the threaded runtime and the DES
// mirror), under real SIGKILL chaos (exactly-once, validator-gated
// acceptance with crashes actually observed), with an unsupervised master
// (inline revoke + respawn), and for the shared persistent cache store
// (two processes appending/compacting one file, no lost records).
//
// NOTE for sanitizer CI: these tests fork() from a multi-threaded gtest
// process, which TSan does not model — they run under ASan/UBSan but are
// excluded from the TSan leg (see scripts/ci.sh).
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <source_location>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "qfr/cache/store.hpp"
#include "qfr/chem/molecule.hpp"
#include "qfr/cluster/des.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/fault/chaos.hpp"
#include "qfr/fault/fault_injector.hpp"
#include "qfr/fault/validator.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/runtime/result_sink.hpp"
#include "qfr/runtime/supervisor.hpp"
#include "scratch_path.hpp"

namespace qfr::runtime {
namespace {

std::vector<frag::Fragment> water_fragments(std::size_t n) {
  std::vector<frag::Fragment> frags(n);
  for (std::size_t i = 0; i < n; ++i) {
    frags[i].id = i;
    frags[i].kind = frag::FragmentKind::kWater;
    frags[i].mol = chem::make_water({static_cast<double>(20 * i), 0, 0});
  }
  return frags;
}

double expected_energy(std::size_t id) {
  return 1.0 + 0.25 * static_cast<double>(id);
}

/// Sink that counts deliveries per fragment: the exactly-once probe.
class CountingSink : public ResultSink {
 public:
  explicit CountingSink(std::size_t n) : counts_(n, 0) {}

  void on_result(std::size_t fragment_id,
                 const engine::FragmentResult& result) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ASSERT_LT(fragment_id, counts_.size());
    counts_[fragment_id]++;
    (void)result;
  }

  const std::vector<int>& counts() const { return counts_; }

 private:
  std::mutex mutex_;
  std::vector<int> counts_;
};

engine::FragmentResult fake_result(std::size_t id) {
  engine::FragmentResult r;
  r.energy = expected_energy(id);
  return r;
}

// ---------------------------------------------------------------------
// Three-way parity: the same sweep through leader threads, leader
// processes, and the DES mirror must agree on the accepted set.
// ---------------------------------------------------------------------

TEST(ProcessParity, ThreadedProcessAndDesAgreeOnOneSweep) {
  const std::size_t n_frag = 12;
  const auto frags = water_fragments(n_frag);
  // Three fragments fail for good, one per failure class, so both
  // transports must classify the same throws the same way.
  const std::set<std::size_t> failing = {3, 5, 7};
  auto compute = [](const frag::Fragment& f) {
    const auto here = std::source_location::current();
    if (f.id == 3) throw TimeoutError("fragment 3 watchdog", here);
    if (f.id == 5) throw NumericalError("fragment 5 diverged", here);
    if (f.id == 7) throw std::runtime_error("fragment 7 crashed");
    return fake_result(f.id);
  };

  auto run_with = [&](TransportKind transport, CountingSink* sink) {
    RuntimeOptions ropts;
    ropts.n_leaders = 2;
    ropts.transport = transport;
    ropts.sink = sink;
    ropts.abort_on_failure = false;
    const MasterRuntime rt(std::move(ropts));
    return rt.run(frags, compute);
  };

  CountingSink threaded_sink(n_frag);
  const RunReport threaded = run_with(TransportKind::kThread, &threaded_sink);
  CountingSink process_sink(n_frag);
  const RunReport process = run_with(TransportKind::kProcess, &process_sink);

  EXPECT_EQ(threaded.n_failed(), failing.size());
  EXPECT_EQ(process.n_failed(), threaded.n_failed());
  EXPECT_EQ(process.n_fault_retries, threaded.n_fault_retries);
  EXPECT_EQ(threaded.n_fault_retries, failing.size() * 2);  // max_retries
  EXPECT_EQ(process.n_leader_crashes, 0u);
  EXPECT_EQ(threaded.outcomes[3].reason, FailureReason::kTimeout);
  EXPECT_EQ(threaded.outcomes[5].reason, FailureReason::kNonConvergence);
  EXPECT_EQ(threaded.outcomes[7].reason, FailureReason::kEngineError);
  EXPECT_EQ(threaded.outcomes[7].error, "fragment 7 crashed");
  for (std::size_t id = 0; id < n_frag; ++id) {
    const int delivered = failing.count(id) != 0u ? 0 : 1;
    EXPECT_EQ(threaded_sink.counts()[id], delivered) << "fragment " << id;
    EXPECT_EQ(process_sink.counts()[id], delivered) << "fragment " << id;
    EXPECT_EQ(process.outcomes[id].completed, threaded.outcomes[id].completed)
        << "fragment " << id;
    EXPECT_EQ(process.outcomes[id].reason, threaded.outcomes[id].reason)
        << "fragment " << id;
    EXPECT_EQ(process.outcomes[id].error, threaded.outcomes[id].error)
        << "fragment " << id;
    // Bitwise parity: the result crossed the wire as raw IEEE-754 bytes.
    EXPECT_EQ(process.results[id].energy, threaded.results[id].energy);
  }

  // One rule for leader stats on both transports: a task is booked when
  // its last attempt is delivered, with every fragment it carried.
  for (const RunReport* report : {&threaded, &process}) {
    std::size_t tasks = 0;
    std::size_t fragments = 0;
    std::size_t attempts = 0;
    for (const LeaderStats& leader : report->leaders) {
      tasks += leader.tasks;
      fragments += leader.fragments;
      if (leader.tasks > 0) EXPECT_GT(leader.busy_seconds, 0.0);
    }
    for (const FragmentOutcome& outcome : report->outcomes)
      attempts += outcome.attempts;
    EXPECT_EQ(tasks, report->n_tasks);
    EXPECT_EQ(fragments, attempts);
  }

  // The DES mirror of the same sweep shape covers every fragment and
  // replays deterministically — the third leg of the parity triangle.
  std::vector<balance::WorkItem> items;
  balance::CostModel cm;
  for (std::size_t i = 0; i < n_frag; ++i)
    items.push_back({i, frags[i].n_atoms(), cm.evaluate(frags[i].n_atoms())});
  cluster::DesOptions dopts;
  dopts.n_nodes = 2;
  dopts.machine.leaders_per_node = 1;
  dopts.machine.node_speed_jitter = 0.0;
  dopts.machine.cost_noise = 0.0;
  auto policy = balance::make_size_sensitive_policy();
  const cluster::DesReport des = cluster::simulate_cluster(items, *policy, dopts);
  EXPECT_EQ(des.n_fragments, n_frag);
  std::set<std::size_t> covered;
  for (const auto& task : des.task_log) covered.insert(task.begin(), task.end());
  EXPECT_EQ(covered.size(), n_frag);
}

// ---------------------------------------------------------------------
// Real SIGKILL recovery, single seed (tier-1): a leader process killed
// -9 mid-sweep is detected, its lease revoked, the fragment re-queued,
// and the slot respawned — with exactly-once delivery preserved.
// ---------------------------------------------------------------------

TEST(ProcessRuntime, SigkilledLeaderIsRespawnedWithExactlyOnceResults) {
  const std::size_t n_frag = 16;
  const std::size_t n_leaders = 2;
  const auto frags = water_fragments(n_frag);
  auto compute = [](const frag::Fragment& f) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    return fake_result(f.id);
  };

  fault::ChaosScheduleOptions copts;
  copts.seed = 4242;
  copts.n_leaders = n_leaders;
  copts.kill_probability = 1.0;  // every leader dies at least once
  copts.max_kills_per_leader = 1;
  const fault::ChaosSchedule chaos(copts);
  fault::FaultInjector injector(chaos.plan());

  CountingSink sink(n_frag);
  RuntimeOptions ropts;
  ropts.n_leaders = n_leaders;
  ropts.transport = TransportKind::kProcess;
  ropts.straggler_timeout = 10.0;  // recovery must come from supervision
  ropts.max_retries = 2;
  ropts.abort_on_failure = false;
  ropts.sink = &sink;
  ropts.supervision.enabled = true;
  ropts.supervision.heartbeat_timeout = 0.05;
  ropts.supervision.poll_interval = 0.005;
  ropts.fault_injector = &injector;
  const MasterRuntime rt(std::move(ropts));
  const RunReport rep = rt.run(frags, compute);

  EXPECT_EQ(rep.n_failed(), 0u);
  EXPECT_GT(rep.n_leader_crashes, 0u);
  EXPECT_EQ(rep.n_leader_crashes,
            injector.n_injected(fault::FaultKind::kLeaderKill));
  EXPECT_GE(rep.n_leases_revoked, rep.n_leader_crashes);
  for (std::size_t id = 0; id < n_frag; ++id) {
    EXPECT_TRUE(rep.outcomes[id].completed) << "fragment " << id;
    EXPECT_EQ(sink.counts()[id], 1) << "fragment " << id;
    EXPECT_DOUBLE_EQ(rep.results[id].energy, expected_energy(id));
  }
}

// ---------------------------------------------------------------------
// Unsupervised master: a child that dies of natural causes (here: the
// compute _exit()s the whole leader process) is recovered inline by the
// proxy — revoke, re-queue, respawn — and counted as a crash.
// ---------------------------------------------------------------------

TEST(ProcessRuntime, UnsupervisedChildDeathIsRecoveredInline) {
  const std::size_t n_frag = 8;
  const auto frags = water_fragments(n_frag);
  // The marker survives the leader process's death, so only the FIRST
  // incarnation to reach fragment 0 dies (attempt counters in the child's
  // memory would reset with every respawn fork).
  const std::string marker = scratch_path("qfr_proc_death_marker");
  std::remove(marker.c_str());
  auto compute = [marker](const frag::Fragment& f) {
    if (f.id == 0) {
      std::ifstream probe(marker);
      if (!probe.good()) {
        std::ofstream(marker) << "died once";
        ::_exit(9);  // the whole leader process, mid-task
      }
    }
    return fake_result(f.id);
  };

  CountingSink sink(n_frag);
  RuntimeOptions ropts;
  ropts.n_leaders = 2;
  ropts.transport = TransportKind::kProcess;
  ropts.max_retries = 2;
  ropts.abort_on_failure = false;
  ropts.sink = &sink;
  const MasterRuntime rt(std::move(ropts));
  const RunReport rep = rt.run(frags, compute);
  std::remove(marker.c_str());

  EXPECT_EQ(rep.n_failed(), 0u);
  EXPECT_EQ(rep.n_leader_crashes, 1u);
  for (std::size_t id = 0; id < n_frag; ++id) {
    EXPECT_TRUE(rep.outcomes[id].completed) << "fragment " << id;
    EXPECT_EQ(sink.counts()[id], 1) << "fragment " << id;
  }
}

// ---------------------------------------------------------------------
// Run-level cancellation across the process boundary: when the caller's
// CancelSource fires mid-compute, the kCancel frame must reach the child,
// the in-flight compute must stop via its ambient token, the lease must
// be released (not left processing until the straggler timeout), and the
// run must come back promptly with every pending fragment terminal as
// kCancelled — with no zombie child processes left behind.
// ---------------------------------------------------------------------

TEST(ProcessRuntime, CancelSourceFiredMidComputeStopsChildrenPromptly) {
  const std::size_t n_frag = 8;
  const auto frags = water_fragments(n_frag);
  // Each compute would take 5 s; the test passes only if cancellation cuts
  // through. The child-side poll uses the ambient token the transport
  // installs around the compute (CancelScope in the child loop).
  auto compute = [](const frag::Fragment& f) {
    const common::CancelToken token = common::current_cancel_token();
    WallTimer t;
    while (t.seconds() < 5.0) {
      token.throw_if_cancelled();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return fake_result(f.id);
  };

  common::CancelSource source;
  RuntimeOptions ropts;
  ropts.n_leaders = 2;
  ropts.transport = TransportKind::kProcess;
  ropts.straggler_timeout = 60.0;  // recovery must come from the cancel
  ropts.abort_on_failure = false;
  ropts.cancel_token = source.token();
  const MasterRuntime rt(std::move(ropts));

  std::thread firer([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    source.cancel();
  });
  WallTimer elapsed;
  const RunReport rep = rt.run(frags, compute);
  firer.join();

  // Prompt: nowhere near the 5 s compute or the 60 s straggler timeout.
  EXPECT_LT(elapsed.seconds(), 4.0);
  EXPECT_TRUE(rep.cancelled);
  // At least one compute was in flight and acked the cancel, and its
  // lease was released by cancel_pending rather than abandoned.
  EXPECT_GE(rep.n_cancelled, 1u);
  EXPECT_GE(rep.n_leases_revoked, 1u);
  for (std::size_t id = 0; id < n_frag; ++id) {
    EXPECT_FALSE(rep.outcomes[id].completed) << "fragment " << id;
    EXPECT_EQ(rep.outcomes[id].reason, FailureReason::kCancelled)
        << "fragment " << id;
  }
  // No zombie children: every forked leader was reaped by the proxy.
  // With all of our children waited on, waitpid(-1) reports ECHILD.
  errno = 0;
  int status = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// ---------------------------------------------------------------------
// Shared persistent cache store: two leader processes appending and
// compacting the same file concurrently must not lose or corrupt a
// single record (flock-serialized whole-frame appends + merge-before-
// compact).
// ---------------------------------------------------------------------

TEST(CacheStoreMultiProcess, ConcurrentAppendAndCompactLosesNothing) {
  const std::string store = scratch_path("qfr_mp_store.bin");
  std::remove(store.c_str());
  std::remove((store + ".lock").c_str());

  const chem::Molecule water = chem::make_water({0, 0, 0});
  constexpr int kPerChild = 12;
  auto ns_name = [](int base, int i) {
    return "engine" + std::to_string(base + i);
  };

  // Each child builds its OWN cache on the same store (racing header
  // creation under the flock), inserts 12 records under distinct key
  // namespaces, and one of them compacts twice mid-stream — the rename
  // that invalidates the sibling's append descriptor.
  auto child_work = [&](int base, bool compacts) {
    cache::CacheOptions copts;
    copts.enabled = true;
    copts.store_path = store;
    cache::ResultCache cache(copts);
    for (int i = 0; i < kPerChild; ++i) {
      engine::FragmentResult r;
      r.energy = static_cast<double>(base + i);
      if (!cache.insert(ns_name(base, i), water, r)) ::_exit(10);
      if (compacts && i % 5 == 4) cache.compact();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::_exit(0);
  };

  std::vector<pid_t> pids;
  for (int child = 0; child < 2; ++child) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) child_work(child * 1000, /*compacts=*/child == 0);
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  // A fresh cache over the store must see every record from both writers.
  cache::CacheOptions copts;
  copts.enabled = true;
  copts.store_path = store;
  cache::ResultCache verify(copts);
  for (const int base : {0, 1000}) {
    for (int i = 0; i < kPerChild; ++i) {
      const auto hit = verify.lookup(ns_name(base, i), water);
      ASSERT_TRUE(hit.has_value()) << "lost record ns=" << ns_name(base, i);
      EXPECT_DOUBLE_EQ(hit->energy, static_cast<double>(base + i));
    }
  }
  EXPECT_EQ(verify.stats().store_corrupt, 0);
  std::remove(store.c_str());
  std::remove((store + ".lock").c_str());
}

// ---------------------------------------------------------------------
// Supervisor stop() ordering (satellite audit regression): stop racing
// an in-flight exit/revocation must never respawn the same exit twice,
// and never respawn at all after stop() returns.
// ---------------------------------------------------------------------

TEST(SupervisorStopOrdering, StopDuringRevocationNeverDoubleRespawns) {
  balance::CostModel cm;
  std::vector<balance::WorkItem> items;
  for (std::size_t i = 0; i < 4; ++i) items.push_back({i, 9, cm.evaluate(9)});

  for (int round = 0; round < 120; ++round) {
    auto policy = balance::make_size_sensitive_policy();
    SweepScheduler scheduler(items, *policy);
    const WallTimer wall;

    SupervisorOptions sopts;
    sopts.heartbeat_timeout = 10.0;  // only explicit exits in this test
    sopts.poll_interval = 0.0002;
    Supervisor sup(scheduler, sopts);

    std::atomic<int> respawns{0};
    sup.start(1, [&wall] { return wall.seconds(); },
              [&respawns](std::size_t) {
                respawns.fetch_add(1, std::memory_order_relaxed);
                // Widen the unlocked respawn window stop() must fence.
                std::this_thread::sleep_for(std::chrono::microseconds(200));
              });

    // A registered attempt gives the exit a lease to revoke, putting the
    // poll loop on the revoke -> respawn path this audit is about.
    const LeasedTask task = scheduler.acquire(0, wall.seconds());
    ASSERT_FALSE(task.empty());
    const common::CancelToken token = sup.register_attempt(0, task.leases[0]);

    sup.leader_exited(0);
    // Sweep the race window: stop() lands before the poll tick, inside
    // the revocation, inside the respawn callback, or after it.
    std::this_thread::sleep_for(std::chrono::microseconds(50 * (round % 10)));
    sup.stop();

    const int after_stop = respawns.load(std::memory_order_relaxed);
    EXPECT_LE(after_stop, 1) << "round " << round;
    // One exit event is never respawned again later (stop() is final).
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(respawns.load(std::memory_order_relaxed), after_stop)
        << "round " << round;
    // Whether or not the revocation ran, stop()'s final pass cancelled
    // the still-registered attempt so no compute can leak.
    EXPECT_TRUE(token.cancelled()) << "round " << round;
    EXPECT_LE(sup.n_leader_crashes(), 1u) << "round " << round;
  }
}

// ---------------------------------------------------------------------
// Chaos soak (soak lane): many independently-seeded sweeps with real
// SIGKILLs and master-side hang injection. Every run must end with every
// fragment terminal, exactly-once validator-gated acceptance, and the
// accepted set identical to a fault-free baseline.
// ---------------------------------------------------------------------

TEST(ProcessChaosSoak, SeededSigkillsAndHangsPreserveExactlyOnceResults) {
  const std::size_t n_frag = 24;
  const std::size_t n_leaders = 3;
  const auto frags = water_fragments(n_frag);
  auto compute = [](const frag::Fragment& f) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    return fake_result(f.id);
  };
  const fault::FragmentResultValidator validator;

  // Fault-free process-mode baseline accepted set.
  std::vector<double> baseline(n_frag);
  {
    RuntimeOptions ropts;
    ropts.n_leaders = n_leaders;
    ropts.transport = TransportKind::kProcess;
    ropts.validator = &validator;
    const MasterRuntime rt(std::move(ropts));
    const RunReport rep = rt.run(frags, compute);
    ASSERT_EQ(rep.n_failed(), 0u);
    for (std::size_t id = 0; id < n_frag; ++id)
      baseline[id] = rep.results[id].energy;
  }

  constexpr int kSeeds = 12;
  std::size_t total_crashes = 0;
  for (int s = 0; s < kSeeds; ++s) {
    fault::ChaosScheduleOptions copts;
    copts.seed = 9100 + static_cast<std::uint64_t>(s);
    copts.n_leaders = n_leaders;
    copts.kill_probability = 0.5;
    copts.max_kills_per_leader = 2;
    copts.hang_probability = 0.2;
    copts.max_hangs_per_leader = 1;
    copts.hang_seconds = 0.08;
    const fault::ChaosSchedule chaos(copts);
    fault::FaultInjector injector(chaos.plan());

    CountingSink sink(n_frag);
    RuntimeOptions ropts;
    ropts.n_leaders = n_leaders;
    ropts.transport = TransportKind::kProcess;
    ropts.straggler_timeout = 10.0;
    ropts.max_retries = 2;
    ropts.abort_on_failure = false;
    ropts.sink = &sink;
    ropts.validator = &validator;
    ropts.supervision.enabled = true;
    ropts.supervision.heartbeat_timeout = 0.03;
    ropts.supervision.poll_interval = 0.003;
    ropts.fault_injector = &injector;
    const MasterRuntime rt(std::move(ropts));
    const RunReport rep = rt.run(frags, compute);

    EXPECT_EQ(rep.n_failed(), 0u) << "seed " << copts.seed;
    for (std::size_t id = 0; id < n_frag; ++id) {
      EXPECT_TRUE(rep.outcomes[id].completed)
          << "seed " << copts.seed << " fragment " << id;
      EXPECT_EQ(sink.counts()[id], 1)
          << "seed " << copts.seed << " fragment " << id;
      EXPECT_DOUBLE_EQ(rep.results[id].energy, baseline[id])
          << "seed " << copts.seed << " fragment " << id;
    }
    EXPECT_EQ(rep.n_leader_crashes,
              injector.n_injected(fault::FaultKind::kLeaderKill))
        << "seed " << copts.seed;
    total_crashes += rep.n_leader_crashes;
  }
  // The soak is vacuous unless leader processes actually died.
  EXPECT_GT(total_crashes, 0u);
}

}  // namespace
}  // namespace qfr::runtime
