// Tests for the qfr::obs observability subsystem: histogram quantile
// math, registry behaviour under thread-pool contention (the TSan leg of
// CI), Chrome-trace JSON well-formedness, simulated-clock spans, log
// capture, and DES-vs-runtime trace parity on a fixed seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "qfr/balance/packing.hpp"
#include "qfr/chem/protein.hpp"
#include "qfr/cluster/des.hpp"
#include "qfr/common/log.hpp"
#include "qfr/common/thread_pool.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/obs/clock.hpp"
#include "qfr/obs/export.hpp"
#include "qfr/obs/json.hpp"
#include "qfr/obs/metrics.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/obs/trace.hpp"
#include "qfr/runtime/master_runtime.hpp"

namespace qfr::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram quantiles

TEST(Histogram, QuantilesOfUniformGrid) {
  // 1..10000 ms uniformly: the q-quantile of the data is ~q * 10 s range.
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.observe(i * 1e-3);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 10000);
  EXPECT_NEAR(s.sum, 1e-3 * 10000.0 * 10001.0 / 2.0, 1e-4);
  EXPECT_DOUBLE_EQ(s.min, 1e-3);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_NEAR(s.mean, s.sum / 10000.0, 1e-9);
  // Log-scale buckets are ~9% wide; in-bucket interpolation keeps the
  // quantile error well inside one bucket.
  EXPECT_NEAR(s.p50, 5.0, 0.5);
  EXPECT_NEAR(s.p95, 9.5, 0.95);
  EXPECT_NEAR(s.p99, 9.9, 0.99);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(Histogram, QuantilesOfConstantStream) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(0.125);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000);
  // Every observation sits in one bucket: quantiles may only move within
  // that bucket's ~9% width.
  EXPECT_NEAR(s.p50, 0.125, 0.125 * 0.10);
  EXPECT_NEAR(s.p99, 0.125, 0.125 * 0.10);
  EXPECT_DOUBLE_EQ(s.min, 0.125);
  EXPECT_DOUBLE_EQ(s.max, 0.125);
}

TEST(Histogram, BimodalSeparation) {
  // 90% fast (1 ms) + 10% slow (1 s): p50 must stay in the fast mode and
  // p99 in the slow mode — the straggler-detection shape.
  Histogram h;
  for (int i = 0; i < 900; ++i) h.observe(1e-3);
  for (int i = 0; i < 100; ++i) h.observe(1.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_LT(s.p50, 2e-3);
  EXPECT_GT(s.p99, 0.5);
}

TEST(Histogram, UnderflowAndOverflowClamp) {
  Histogram h;
  h.observe(1e-12);  // below kMinValue
  h.observe(1e12);   // above the top octave
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2);
  EXPECT_DOUBLE_EQ(s.min, 1e-12);
  EXPECT_DOUBLE_EQ(s.max, 1e12);
  // Quantiles stay finite and ordered even for out-of-range samples.
  EXPECT_TRUE(std::isfinite(s.p50));
  EXPECT_TRUE(std::isfinite(s.p99));
  EXPECT_LE(s.p50, s.p99);
}

TEST(Histogram, EmptySnapshotIsZero) {
  Histogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

// ---------------------------------------------------------------------------
// Registry contention (the TSan-sensitive paths)

TEST(MetricsRegistry, CountersAndHistogramsUnderPoolContention) {
  MetricsRegistry reg;
  Counter& hits = reg.counter("test.hits");
  Histogram& lat = reg.histogram("test.latency");
  constexpr std::size_t kN = 20000;
  {
    ThreadPool pool(8);
    pool.parallel_for(kN, [&](std::size_t i) {
      hits.add(1);
      lat.observe(1e-4 * static_cast<double>(i % 100 + 1));
      // Concurrent lookup of existing and fresh names must be safe too.
      reg.counter("test.hits").add(1);
      reg.gauge("test.gauge").set(static_cast<double>(i));
    });
  }
  EXPECT_EQ(hits.value(), static_cast<std::int64_t>(2 * kN));
  const HistogramSnapshot s = lat.snapshot();
  EXPECT_EQ(s.count, static_cast<std::int64_t>(kN));
  // Exact: every value is added through a CAS loop, no samples dropped.
  double expect_sum = 0.0;
  for (std::size_t i = 0; i < kN; ++i)
    expect_sum += 1e-4 * static_cast<double>(i % 100 + 1);
  EXPECT_NEAR(s.sum, expect_sum, 1e-9 * expect_sum);
  EXPECT_EQ(reg.counter_value("test.hits"), static_cast<std::int64_t>(2 * kN));
  EXPECT_NEAR(reg.histogram_sum("test.latency"), expect_sum,
              1e-9 * expect_sum);
}

TEST(MetricsRegistry, HandlesAreStableAcrossInserts) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  for (int i = 0; i < 100; ++i)
    reg.counter("filler." + std::to_string(i));
  EXPECT_EQ(&a, &reg.counter("a"));
}

// ---------------------------------------------------------------------------
// JSON value + parser

TEST(Json, RoundTripAndEscapes) {
  Json root = Json::object();
  root["name"] = Json("sp\"an\\\n");
  root["n"] = Json(42);
  root["x"] = Json(0.125);
  Json arr = Json::array();
  arr.push_back(Json(true));
  arr.push_back(Json());
  root["arr"] = std::move(arr);
  const std::string text = root.dump();
  std::string err;
  const auto parsed = Json::parse(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->find("name")->as_string(), "sp\"an\\\n");
  EXPECT_DOUBLE_EQ(parsed->find("n")->as_double(), 42.0);
  EXPECT_DOUBLE_EQ(parsed->find("x")->as_double(), 0.125);
  EXPECT_EQ(parsed->find("arr")->size(), 2u);
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  Json j = Json::object();
  j["bad"] = Json(std::nan(""));
  const std::string text = j.dump();
  EXPECT_NE(text.find("null"), std::string::npos);
  ASSERT_TRUE(Json::parse(text).has_value());
}

TEST(Json, ParserRejectsMalformed) {
  for (const char* bad :
       {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2", "{}extra"}) {
    std::string err;
    EXPECT_FALSE(Json::parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Tracer + Chrome trace format

TEST(Tracer, ChromeTraceIsWellFormedJson) {
  Session session;
  ScopedSession ambient(&session);
  {
    SpanGuard outer(&session, "outer", "test");
    outer.arg("fragment", 7.0).arg("engine", std::string("scf"));
    SpanGuard inner(&session, "inner", "test");
    (void)inner;
  }
  {
    QFR_TRACE_SPAN("macro_span");
  }
  session.instant("marker", "test", {{"k", 1.0, {}, true}});

  std::ostringstream os;
  session.tracer().write_chrome_trace(os);
  std::string err;
  const auto parsed = Json::parse(os.str(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  const Json* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t n_complete = 0, n_instant = 0, n_meta = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& ev = events->at(i);
    ASSERT_NE(ev.find("name"), nullptr);
    ASSERT_NE(ev.find("ph"), nullptr);
    ASSERT_NE(ev.find("pid"), nullptr);
    ASSERT_NE(ev.find("tid"), nullptr);
    const std::string ph = ev.find("ph")->as_string();
    if (ph == "X") {
      ++n_complete;
      ASSERT_NE(ev.find("dur"), nullptr);
      EXPECT_GE(ev.find("dur")->as_double(), 0.0);
    } else if (ph == "i") {
      ++n_instant;
    } else if (ph == "M") {
      ++n_meta;
    }
  }
  EXPECT_EQ(n_complete, 3u);  // outer + inner + macro span
  EXPECT_EQ(n_instant, 1u);
  EXPECT_GE(n_meta, 1u);  // process_name metadata

  // The outer span carries its args and the nesting depth.
  bool found_outer = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& ev = events->at(i);
    if (ev.find("name")->as_string() != "outer") continue;
    found_outer = true;
    const Json* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->find("fragment")->as_double(), 7.0);
    EXPECT_EQ(args->find("engine")->as_string(), "scf");
    EXPECT_DOUBLE_EQ(args->find("depth")->as_double(), 0.0);
  }
  EXPECT_TRUE(found_outer);
}

TEST(Tracer, NestedSpansRecordDepth) {
  Session session;
  {
    SpanGuard a(&session, "a", "test");
    SpanGuard b(&session, "b", "test");
    SpanGuard c(&session, "c", "test");
    (void)a; (void)b; (void)c;
  }
  const std::vector<TraceEvent> evs = session.tracer().events();
  ASSERT_EQ(evs.size(), 3u);
  // Spans close innermost-first.
  EXPECT_STREQ(evs[0].name, "c");
  EXPECT_EQ(evs[0].depth, 2);
  EXPECT_STREQ(evs[2].name, "a");
  EXPECT_EQ(evs[2].depth, 0);
}

TEST(Tracer, BoundedBufferCountsDrops) {
  Tracer tracer(/*max_events=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent ev;
    ev.name = "e";
    tracer.emit(std::move(ev));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.n_dropped(), 6u);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const auto parsed = Json::parse(os.str());
  ASSERT_TRUE(parsed.has_value());
  const Json* other = parsed->find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_DOUBLE_EQ(other->find("dropped_events")->as_double(), 6.0);
}

TEST(Tracer, NullSessionSpansAreNoops) {
  // The disabled fast path: no ambient session, the macro records nothing
  // and costs two branches.
  SpanGuard span(nullptr, "nothing", "test");
  span.arg("k", 1.0);
  QFR_TRACE_SPAN("also_nothing");
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Clock abstraction

TEST(Clock, ManualClockStampsSimulatedSpans) {
  ManualClock clock;
  Session session(&clock);
  clock.set_micros(1000);
  {
    SpanGuard span(&session, "sim", "test");
    clock.set_micros(5000);
  }
  const std::vector<TraceEvent> evs = session.tracer().events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].ts_us, 1000);
  EXPECT_EQ(evs[0].dur_us, 4000);
}

TEST(Clock, WallClockIsMonotonic) {
  const WallClock& c = WallClock::instance();
  const std::int64_t a = c.now_micros();
  const std::int64_t b = c.now_micros();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

// ---------------------------------------------------------------------------
// Log capture + structured logging

TEST(LogCapture, RoutesMessagesIntoTraceAndCounters) {
  Session session;
  {
    LogCapture capture(session, /*also_stderr=*/false);
    QFR_LOG_WARN("observable warning ", 42);
    QFR_LOG_DEBUG("below level, dropped");
  }
  EXPECT_EQ(session.metrics().counter_value("log.messages"), 1);
  const std::vector<TraceEvent> evs = session.tracer().events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_STREQ(evs[0].name, "log");
  ASSERT_EQ(evs[0].args.size(), 2u);
  EXPECT_EQ(evs[0].args[1].str, "observable warning 42");
  // After the capture is gone, logging must not touch the session.
  QFR_LOG_WARN("not captured");
  EXPECT_EQ(session.metrics().counter_value("log.messages"), 1);
}

TEST(Log, Iso8601Rendering) {
  // 2024-07-01T12:34:56.789Z == 1719837296789000 us since the epoch.
  EXPECT_EQ(format_iso8601_utc(1719837296789000),
            "2024-07-01T12:34:56.789Z");
  EXPECT_EQ(format_iso8601_utc(0), "1970-01-01T00:00:00.000Z");
}

// ---------------------------------------------------------------------------
// Runtime + DES integration: parity of the two execution paths

frag::Fragmentation small_protein_fragmentation() {
  frag::BioSystem sys;
  chem::ProteinBuildOptions popts;
  popts.n_residues = 18;
  popts.seed = 77;
  sys.chains.push_back(chem::build_synthetic_protein(popts));
  return frag::fragment_biosystem(sys);
}

TEST(Integration, RuntimeSweepRecordsSpansAndMetrics) {
  const frag::Fragmentation fr = small_protein_fragmentation();
  Session session;
  runtime::RuntimeOptions ropts;
  ropts.n_leaders = 2;
  ropts.obs = &session;
  const runtime::MasterRuntime rt(std::move(ropts));
  const runtime::RunReport rep =
      rt.run(fr.fragments, [](const frag::Fragment&) {
        return engine::FragmentResult{};
      });

  // One accepted compute per fragment, mirrored in metrics and the trace.
  const HistogramSnapshot frag_s =
      session.metrics().histogram("fragment.compute.seconds").snapshot();
  EXPECT_EQ(frag_s.count,
            static_cast<std::int64_t>(fr.fragments.size()));
  EXPECT_EQ(session.metrics().counter_value("sched.tasks"),
            static_cast<std::int64_t>(rep.n_tasks));
  EXPECT_EQ(session.metrics().counter_value("sched.dispatched_fragments"),
            static_cast<std::int64_t>(fr.fragments.size()));

  std::size_t n_compute_spans = 0, n_task_spans = 0;
  for (const TraceEvent& ev : session.tracer().events()) {
    if (std::string_view(ev.name) == "fragment.compute") ++n_compute_spans;
    if (std::string_view(ev.name) == "leader.task") ++n_task_spans;
  }
  EXPECT_EQ(n_compute_spans, fr.fragments.size());
  EXPECT_EQ(n_task_spans, rep.n_tasks);

  // Accepted-attempt wall time is recorded per fragment.
  ASSERT_EQ(rep.fragment_seconds.size(), fr.fragments.size());
  for (const double s : rep.fragment_seconds) EXPECT_GE(s, 0.0);
}

TEST(Integration, DesAndRuntimeTracesAgreeOnFixedSeed) {
  const frag::Fragmentation fr = small_protein_fragmentation();

  // Real path with a session.
  Session real_session;
  runtime::RuntimeOptions ropts;
  ropts.n_leaders = 2;
  ropts.obs = &real_session;
  ropts.policy_factory = [] { return balance::make_size_sensitive_policy(); };
  const runtime::MasterRuntime rt(std::move(ropts));
  const runtime::RunReport real =
      rt.run(fr.fragments, [](const frag::Fragment&) {
        return engine::FragmentResult{};
      });

  // Simulated path over the identical WorkItem set, zero noise.
  balance::CostModel cm;
  std::vector<balance::WorkItem> items;
  for (const auto& f : fr.fragments)
    items.push_back({f.id, f.n_atoms(), cm.evaluate(f.n_atoms())});
  Session sim_session;
  cluster::DesOptions dopts;
  dopts.n_nodes = 1;
  dopts.machine.leaders_per_node = 2;
  dopts.machine.node_speed_jitter = 0.0;
  dopts.machine.cost_noise = 0.0;
  dopts.seed = 4242;
  dopts.obs = &sim_session;
  auto policy = balance::make_size_sensitive_policy();
  const cluster::DesReport sim =
      cluster::simulate_cluster(items, *policy, dopts);

  // Same scheduler core -> same task decomposition; each path records one
  // task span per dispatched task on its own clock/pid.
  ASSERT_EQ(real.task_log.size(), sim.task_log.size());
  std::size_t real_task_spans = 0;
  for (const TraceEvent& ev : real_session.tracer().events())
    if (std::string_view(ev.name) == "leader.task") {
      ++real_task_spans;
      EXPECT_EQ(ev.pid, kTracePidRuntime);
    }
  std::size_t sim_task_spans = 0;
  std::vector<double> sim_frag_counts;
  for (const TraceEvent& ev : sim_session.tracer().events())
    if (std::string_view(ev.name) == "leader.task") {
      ++sim_task_spans;
      EXPECT_EQ(ev.pid, kTracePidSimulation);
      for (const TraceArg& a : ev.args)
        if (std::string_view(a.key) == "n_fragments")
          sim_frag_counts.push_back(a.num);
    }
  EXPECT_EQ(real_task_spans, real.n_tasks);
  EXPECT_EQ(sim_task_spans, sim.n_tasks);
  EXPECT_EQ(real_task_spans, sim_task_spans);

  // Span args carry the task sizes; spans are emitted in completion
  // order, the task log in dispatch order, so compare as multisets.
  ASSERT_EQ(sim_frag_counts.size(), sim.task_log.size());
  std::multiset<double> span_sizes(sim_frag_counts.begin(),
                                   sim_frag_counts.end());
  std::multiset<double> log_sizes;
  for (const auto& task : sim.task_log)
    log_sizes.insert(static_cast<double>(task.size()));
  EXPECT_EQ(span_sizes, log_sizes);

  // Determinism: the same seed replays the identical simulated trace.
  Session sim_session2;
  cluster::DesOptions dopts2 = dopts;
  dopts2.obs = &sim_session2;
  auto policy2 = balance::make_size_sensitive_policy();
  const cluster::DesReport sim2 =
      cluster::simulate_cluster(items, *policy2, dopts2);
  EXPECT_EQ(sim.task_log, sim2.task_log);
  const std::vector<TraceEvent> ta = sim_session.tracer().events();
  const std::vector<TraceEvent> tb = sim_session2.tracer().events();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_STREQ(ta[i].name, tb[i].name);
    EXPECT_EQ(ta[i].ts_us, tb[i].ts_us);
    EXPECT_EQ(ta[i].dur_us, tb[i].dur_us);
    EXPECT_EQ(ta[i].tid, tb[i].tid);
  }
}

// ---------------------------------------------------------------------------
// Export layer

TEST(Export, RunReportJsonIsWellFormedAndCoversSections) {
  Session session;
  session.metrics().histogram("dfpt.phase.p1.seconds").observe(0.1);
  session.metrics().histogram("dfpt.phase.n1.seconds").observe(0.2);
  session.metrics().histogram("dfpt.phase.v1.seconds").observe(0.3);
  session.metrics().histogram("dfpt.phase.h1.seconds").observe(0.4);
  session.metrics().histogram("cpscf.solve.seconds").observe(1.05);
  session.metrics().histogram("scf.context.seconds").observe(0.25);

  runtime::RunReport sweep;
  sweep.n_tasks = 3;
  sweep.makespan_seconds = 2.0;
  sweep.leaders.push_back({1.5, 3, 9});

  RunContext ctx;
  ctx.engine = "scf_hf";
  ctx.n_fragments = 9;
  std::ostringstream os;
  write_run_report_json(os, session, &sweep, ctx);
  std::string err;
  const auto parsed = Json::parse(os.str(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->find("schema")->as_string(), "qfr.run_report.v1");
  const Json* dfpt = parsed->find("dfpt");
  ASSERT_NE(dfpt, nullptr);
  EXPECT_NEAR(dfpt->find("phases")->find("sum_seconds")->as_double(), 1.0,
              1e-9);
  EXPECT_NEAR(dfpt->find("solve_seconds")->as_double(), 1.05, 1e-9);
  EXPECT_NEAR(parsed->find("scf")->find("context_seconds")->as_double(), 0.25,
              1e-9);
  const Json* leaders = parsed->find("leaders");
  ASSERT_NE(leaders, nullptr);
  ASSERT_EQ(leaders->size(), 1u);
  EXPECT_NEAR(leaders->at(0).find("utilization")->as_double(), 0.75, 1e-9);
  EXPECT_NE(parsed->find("metrics"), nullptr);
}

TEST(Export, OutcomesCsvQuotesAndAlignsSeconds) {
  std::vector<runtime::FragmentOutcome> outcomes(2);
  outcomes[0].fragment_id = 0;
  outcomes[0].completed = true;
  outcomes[0].engine = "scf_hf";
  outcomes[0].attempts = 1;
  outcomes[1].fragment_id = 1;
  outcomes[1].completed = false;
  outcomes[1].engine = "model";
  outcomes[1].engine_level = 2;
  outcomes[1].attempts = 3;
  outcomes[1].error = "diverged, badly\n\"quoted\"";
  const std::vector<double> seconds{0.25, 0.0};
  std::ostringstream os;
  write_outcomes_csv(os, outcomes, &seconds);
  const std::string text = os.str();
  // Header + 2 data rows; embedded comma/quote/newline stay in one field.
  EXPECT_NE(text.find("fragment_id,completed,engine,engine_level,reason,"
                      "attempts,rejections,fault_retries,from_checkpoint,"
                      "cache_hit,reuse_tier,wall_seconds,error"),
            std::string::npos);
  EXPECT_NE(text.find("0,1,scf_hf,0,none,1,0,0,0,0,computed,0.250000,"),
            std::string::npos);
  EXPECT_NE(text.find("\"diverged, badly \"\"quoted\"\"\""),
            std::string::npos);
}

TEST(Export, BenchJsonSchema) {
  BenchReport report;
  report.name = "unit";
  report.meta.emplace_back("figure", "9");
  report.samples.push_back({"series/1", 3.5, "x"});
  std::ostringstream os;
  write_bench_json(os, report);
  std::string err;
  const auto parsed = Json::parse(os.str(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->find("schema")->as_string(), "qfr.bench.v1");
  EXPECT_EQ(parsed->find("bench")->as_string(), "unit");
  ASSERT_EQ(parsed->find("samples")->size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->find("samples")->at(0).find("value")->as_double(),
                   3.5);
}

}  // namespace
}  // namespace qfr::obs
