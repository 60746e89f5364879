// Supervised-runtime robustness: cancellation plumbing, leader heartbeats
// and respawn, the supervisor-driven straggler tick, the DES mirror of
// leader loss, and the seeded chaos soak (many independently-seeded runs
// with mid-sweep leader kills/hangs that must all finish with exactly-once
// acceptance and a baseline-identical result set).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "qfr/chem/molecule.hpp"
#include "qfr/cluster/des.hpp"
#include "qfr/common/cancel.hpp"
#include "qfr/common/error.hpp"
#include "qfr/dfpt/response.hpp"
#include "qfr/engine/scf_engine.hpp"
#include "qfr/fault/chaos.hpp"
#include "qfr/fault/fault_injector.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/obs/trace.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/runtime/result_sink.hpp"
#include "qfr/scf/scf.hpp"

namespace qfr::runtime {
namespace {

using balance::WorkItem;

// ---------------------------------------------------------------------
// Cancellation primitives.
// ---------------------------------------------------------------------

TEST(Cancel, NullTokenIsNeverCancelled) {
  common::CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.cancelled());
  EXPECT_NO_THROW(t.throw_if_cancelled());
}

TEST(Cancel, SourceCancelsItsTokensExactlyOnce) {
  common::CancelSource src;
  common::CancelToken t = src.token();
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(t.cancelled());
  EXPECT_TRUE(src.cancel());   // first cancel flips the flag
  EXPECT_FALSE(src.cancel());  // second is a no-op
  EXPECT_TRUE(t.cancelled());
  EXPECT_THROW(t.throw_if_cancelled(), CancelledError);
}

TEST(Cancel, ScopeInstallsAmbientTokenAndRestores) {
  EXPECT_FALSE(common::current_cancel_token().valid());
  common::CancelSource outer, inner;
  {
    common::CancelScope a(outer.token());
    EXPECT_TRUE(common::current_cancel_token().valid());
    EXPECT_FALSE(common::current_cancel_token().cancelled());
    {
      common::CancelScope b(inner.token());
      inner.cancel();
      EXPECT_TRUE(common::current_cancel_token().cancelled());
    }
    // Back to the outer token, which is still live.
    EXPECT_FALSE(common::current_cancel_token().cancelled());
  }
  EXPECT_FALSE(common::current_cancel_token().valid());
}

TEST(Cancel, ScfSolveStopsOnCancelledToken) {
  const chem::Molecule water = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(water));
  common::CancelSource src;
  scf::ScfOptions opts;
  opts.cancel = src.token();
  src.cancel();
  EXPECT_THROW(scf::ScfSolver(ctx, opts).solve(), CancelledError);
}

TEST(Cancel, CpscfSolveStopsOnCancelledToken) {
  const chem::Molecule water = chem::make_water({0, 0, 0});
  auto ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(water));
  const scf::ScfResult scf_res = scf::ScfSolver(ctx, {}).solve();
  ASSERT_TRUE(scf_res.converged);
  common::CancelSource src;
  dfpt::DfptOptions dopts;
  dopts.cancel = src.token();
  src.cancel();
  dfpt::ResponseEngine engine(ctx, scf_res, scf::XcModel::kHartreeFock,
                              dopts);
  EXPECT_THROW(engine.polarizability(), CancelledError);
}

// ---------------------------------------------------------------------
// Supervised runtime helpers.
// ---------------------------------------------------------------------

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
    energies_.push_back(result.energy);
  }

  const std::vector<int>& counts() const { return counts_; }

 private:
  std::mutex mutex_;
  std::vector<int> counts_;
  std::vector<double> energies_;
};

// ---------------------------------------------------------------------
// A cancel that lands inside an LDA fragment's displacement loop, whose
// jobs run on the leader's helper thread as well as the leader thread:
// the CancelledError raised by a job must reach the leader as such, so
// the fragment ends cancelled, not failed.
// ---------------------------------------------------------------------

std::size_t count_displacement_spans(const obs::Session& session) {
  std::size_t n = 0;
  for (const obs::TraceEvent& ev : session.tracer().events()) {
    const std::string name = ev.name;
    n += name == "displacement.pair" || name == "displacement.cross";
  }
  return n;
}

TEST(Cancel, LdaDisplacementLoopOnLeaderPoolReportsCancelled) {
  const auto frags = water_fragments(1);
  engine::ScfEngineOptions eopts;
  eopts.xc = scf::XcModel::kLda;
  eopts.hessian_mode = engine::HessianMode::kEnergyFd;
  const engine::ScfEngine eng(eopts);
  auto compute = [&](const frag::Fragment& f) { return eng.compute(f.mol); };
  // 9 singles + 36 cross pairs for one water.
  constexpr std::size_t kJobs = 45;

  obs::Session session;
  common::CancelSource source;
  RuntimeOptions ropts;
  ropts.n_leaders = 1;
  ropts.workers_per_leader = 2;
  ropts.straggler_timeout = 600.0;  // recovery must come from the cancel
  ropts.abort_on_failure = false;
  ropts.cancel_token = source.token();
  ropts.obs = &session;
  const MasterRuntime rt(std::move(ropts));
  std::thread firer([&] {
    // Fire once the first displacement job has finished.
    while (count_displacement_spans(session) == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    source.cancel();
  });
  const RunReport rep = rt.run(frags, compute);
  firer.join();

  EXPECT_TRUE(rep.cancelled);
  EXPECT_EQ(rep.n_cancelled, 1u);
  EXPECT_FALSE(rep.outcomes[0].completed);
  EXPECT_EQ(rep.outcomes[0].reason, FailureReason::kCancelled);
  // Jobs not yet started when the cancel landed were skipped.
  EXPECT_LT(count_displacement_spans(session), kJobs);
}

// ---------------------------------------------------------------------
// Supervisor-driven straggler tick (satellite regression: before the
// supervisor existed, the deadline scan ran only inside acquire(), so a
// sweep whose leaders were all busy never recovered a straggler).
// ---------------------------------------------------------------------

TEST(Supervisor, TickRecoversStragglersWhileEveryLeaderIsBusy) {
  const std::size_t n_frag = 2;
  const auto frags = water_fragments(n_frag);
  CountingSink sink(n_frag);

  // First attempt of each fragment blocks until its lease is revoked and
  // the supervisor cancels the compute; the retry completes instantly.
  // With both leaders stuck, only the supervisor's tick can fire the
  // straggler deadline — nobody calls acquire().
  std::array<std::atomic<int>, 2> attempts{};
  auto compute = [&](const frag::Fragment& f) {
    const int a = ++attempts[f.id];
    if (a == 1) {
      const common::CancelToken tok = common::current_cancel_token();
      const auto start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - start <
             std::chrono::seconds(20)) {
        tok.throw_if_cancelled();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ADD_FAILURE() << "first attempt of fragment " << f.id
                    << " was never cancelled";
    }
    engine::FragmentResult r;
    r.energy = expected_energy(f.id);
    return r;
  };

  RuntimeOptions ropts;
  ropts.n_leaders = 2;
  ropts.straggler_timeout = 0.15;
  ropts.max_retries = 2;
  ropts.abort_on_failure = false;
  ropts.sink = &sink;
  ropts.supervision.enabled = true;
  // Heartbeats stay "fresh" far longer than the test runs: recovery must
  // come from the straggler tick, not from hang detection.
  ropts.supervision.heartbeat_timeout = 60.0;
  ropts.supervision.poll_interval = 0.005;
  const MasterRuntime rt(std::move(ropts));
  const RunReport report = rt.run(frags, compute);

  EXPECT_EQ(report.n_failed(), 0u);
  EXPECT_GE(report.n_requeued, 1u);   // the tick fired
  EXPECT_GE(report.n_cancelled, 1u);  // and the orphan compute was stopped
  EXPECT_EQ(report.n_leader_crashes, 0u);
  for (std::size_t id = 0; id < n_frag; ++id) {
    EXPECT_EQ(sink.counts()[id], 1) << "fragment " << id;
    EXPECT_DOUBLE_EQ(report.results[id].energy, expected_energy(id));
    EXPECT_GE(report.outcomes[id].attempts, 2u);
  }
}

// ---------------------------------------------------------------------
// Chaos soak: many independently-seeded runs with mid-sweep leader kills
// and hangs. Every run must terminate with every fragment terminal,
// no double-counted acceptance, and the accepted result set identical to
// the fault-free baseline.
// ---------------------------------------------------------------------

TEST(ChaosSoak, SeededLeaderKillsAndHangsPreserveExactlyOnceResults) {
  const std::size_t n_frag = 24;
  const std::size_t n_leaders = 3;
  const auto frags = water_fragments(n_frag);

  auto compute = [](const frag::Fragment& f) {
    // Enough wall time that kills/hangs land while leases are in flight.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    engine::FragmentResult r;
    r.energy = expected_energy(f.id);
    return r;
  };

  // Fault-free baseline accepted set.
  std::vector<double> baseline(n_frag);
  {
    RuntimeOptions ropts;
    ropts.n_leaders = n_leaders;
    const MasterRuntime rt(std::move(ropts));
    const RunReport rep = rt.run(frags, compute);
    ASSERT_EQ(rep.n_failed(), 0u);
    for (std::size_t id = 0; id < n_frag; ++id)
      baseline[id] = rep.results[id].energy;
  }

  constexpr int kSeeds = 50;
  std::size_t total_crashes = 0;
  std::size_t total_hangs = 0;
  std::size_t total_revoked = 0;
  std::size_t total_cancelled = 0;
  for (int s = 0; s < kSeeds; ++s) {
    fault::ChaosScheduleOptions copts;
    copts.seed = 7000 + static_cast<std::uint64_t>(s);
    copts.n_leaders = n_leaders;
    copts.kill_probability = 0.4;
    copts.max_kills_per_leader = 2;
    copts.hang_probability = 0.2;
    copts.max_hangs_per_leader = 1;
    copts.hang_seconds = 0.08;
    const fault::ChaosSchedule chaos(copts);
    fault::FaultInjector injector(chaos.plan());

    CountingSink sink(n_frag);
    RuntimeOptions ropts;
    ropts.n_leaders = n_leaders;
    ropts.straggler_timeout = 10.0;  // recovery must come from supervision
    ropts.max_retries = 2;
    ropts.abort_on_failure = false;
    ropts.sink = &sink;
    ropts.supervision.enabled = true;
    ropts.supervision.heartbeat_timeout = 0.03;
    ropts.supervision.poll_interval = 0.003;
    ropts.fault_injector = &injector;
    const MasterRuntime rt(std::move(ropts));
    const RunReport rep = rt.run(frags, compute);

    // Every fragment terminal and completed, none double-counted, and the
    // accepted set is bit-identical to the fault-free baseline.
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
    total_hangs += rep.n_leader_hangs;
    total_revoked += rep.n_leases_revoked;
    total_cancelled += rep.n_cancelled;
  }

  // The soak must actually have exercised the failure paths: with these
  // probabilities kills are certain over 50 seeds (occurrence-keyed
  // draws, independent of timing), and every kill abandons at least the
  // leader's current task's leases.
  EXPECT_GT(total_crashes, 0u);
  EXPECT_GT(total_revoked, 0u);
  // Hang detection and cancellation counts depend on real-time races, so
  // the soak only reports them (no flaky assertion).
  (void)total_hangs;
  (void)total_cancelled;
}

// ---------------------------------------------------------------------
// DES mirror: leader crashes with heartbeat-based lease revocation.
// ---------------------------------------------------------------------

std::vector<WorkItem> simple_items(std::size_t n) {
  std::vector<WorkItem> items;
  balance::CostModel cm;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t atoms = 9 + 7 * (i % 9);
    items.push_back({i, atoms, cm.evaluate(atoms)});
  }
  return items;
}

TEST(DesSupervision, LeaderCrashRecoveredByHeartbeatDeterministically) {
  const std::vector<WorkItem> items = simple_items(40);
  double total_cost = 0.0;
  for (const auto& w : items) total_cost += w.cost;

  cluster::DesOptions dopts;
  dopts.n_nodes = 2;
  dopts.machine.leaders_per_node = 1;
  dopts.machine.workers_per_leader = 1;
  dopts.machine.node_speed_jitter = 0.0;
  dopts.machine.cost_noise = 0.0;
  cluster::LeaderCrash crash;
  crash.leader = 0;
  crash.at = 0.31 * total_cost / 2.0;  // mid first half of leader 0's work
  crash.downtime = 0.2 * total_cost;
  dopts.leader_crashes = {crash};
  // Straggler recovery alone would wait well past the sweep's natural
  // end; the heartbeat detector must carry the recovery.
  dopts.straggler_timeout = 0.6 * total_cost;
  dopts.heartbeat_timeout = 0.02 * total_cost;

  auto run_once = [&](const cluster::DesOptions& o) {
    auto policy = balance::make_size_sensitive_policy();
    return cluster::simulate_cluster(items, *policy, o);
  };
  const cluster::DesReport rep = run_once(dopts);

  EXPECT_EQ(rep.n_fragments, 40u);
  EXPECT_EQ(rep.n_leader_crashes, 1u);
  EXPECT_GE(rep.n_crash_lost_tasks, 1u);
  EXPECT_GE(rep.n_leases_revoked, 1u);  // the heartbeat detector fired
  std::set<std::size_t> covered;
  for (const auto& task : rep.task_log)
    covered.insert(task.begin(), task.end());
  EXPECT_EQ(covered.size(), 40u);

  // Deterministic replay: identical schedule, bit for bit.
  const cluster::DesReport rep2 = run_once(dopts);
  EXPECT_DOUBLE_EQ(rep.makespan, rep2.makespan);
  EXPECT_EQ(rep.task_log, rep2.task_log);
  EXPECT_EQ(rep.n_leases_revoked, rep2.n_leases_revoked);

  // The supervision mirror is worth something: with the heartbeat
  // detector off (legacy straggler-only recovery) the same crash costs
  // strictly more simulated time.
  cluster::DesOptions legacy = dopts;
  legacy.heartbeat_timeout = 0.0;
  const cluster::DesReport slow = run_once(legacy);
  EXPECT_EQ(slow.n_leases_revoked, 0u);
  EXPECT_LT(rep.makespan, slow.makespan);
}

TEST(DesSupervision, ChaosScheduleEventsMapOntoDesLeaderCrashes) {
  fault::ChaosScheduleOptions copts;
  copts.seed = 99;
  copts.n_leaders = 2;
  copts.kill_probability = 1.0;  // events() emits kills only
  copts.max_kills_per_leader = 2;
  copts.horizon = 5.0;
  copts.mean_interval = 1.0;
  copts.downtime = 0.5;
  const fault::ChaosSchedule chaos(copts);
  const std::vector<fault::ChaosEvent> events = chaos.events();
  ASSERT_FALSE(events.empty());
  // The event stream is a pure function of the options.
  const std::vector<fault::ChaosEvent> replay =
      fault::ChaosSchedule(copts).events();
  ASSERT_EQ(events.size(), replay.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].at, replay[i].at);
    EXPECT_EQ(events[i].leader, replay[i].leader);
    EXPECT_EQ(static_cast<int>(events[i].kind),
              static_cast<int>(replay[i].kind));
  }

  const std::vector<WorkItem> items = simple_items(30);
  double total_cost = 0.0;
  for (const auto& w : items) total_cost += w.cost;

  cluster::DesOptions dopts;
  dopts.n_nodes = 2;
  dopts.machine.leaders_per_node = 1;
  dopts.machine.workers_per_leader = 1;
  dopts.machine.node_speed_jitter = 0.0;
  dopts.machine.cost_noise = 0.0;
  dopts.straggler_timeout = 0.5 * total_cost;
  dopts.heartbeat_timeout = 0.02 * total_cost;
  for (const fault::ChaosEvent& e : events) {
    if (e.kind != fault::ChaosEventKind::kKill) continue;
    cluster::LeaderCrash c;
    c.leader = e.leader;
    // Scale the chaos horizon onto the sweep's makespan scale.
    c.at = e.at / copts.horizon * 0.5 * total_cost;
    c.downtime = 0.1 * total_cost;
    dopts.leader_crashes.push_back(c);
  }
  ASSERT_FALSE(dopts.leader_crashes.empty());

  auto run_once = [&] {
    auto policy = balance::make_size_sensitive_policy();
    return cluster::simulate_cluster(items, *policy, dopts);
  };
  const cluster::DesReport a = run_once();
  const cluster::DesReport b = run_once();
  EXPECT_EQ(a.n_leader_crashes, dopts.leader_crashes.size());
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.task_log, b.task_log);
  std::set<std::size_t> covered;
  for (const auto& task : a.task_log) covered.insert(task.begin(), task.end());
  EXPECT_EQ(covered.size(), 30u);
}

}  // namespace
}  // namespace qfr::runtime
