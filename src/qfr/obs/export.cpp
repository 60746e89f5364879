#include "qfr/obs/export.hpp"

#include <cstdio>
#include <ostream>
#include <string_view>

#include "qfr/obs/session.hpp"

namespace qfr::obs {

Json histogram_to_json(const HistogramSnapshot& h) {
  Json j = Json::object();
  j["count"] = Json(h.count);
  j["sum"] = Json(h.sum);
  j["min"] = Json(h.min);
  j["max"] = Json(h.max);
  j["mean"] = Json(h.mean);
  j["p50"] = Json(h.p50);
  j["p95"] = Json(h.p95);
  j["p99"] = Json(h.p99);
  return j;
}

namespace {

/// Find one histogram snapshot by name in a MetricsSnapshot.
const HistogramSnapshot* find_histogram(const MetricsSnapshot& snap,
                                        std::string_view name) {
  for (const auto& [n, h] : snap.histograms)
    if (n == name) return &h;
  return nullptr;
}

double histogram_sum(const MetricsSnapshot& snap, std::string_view name) {
  const HistogramSnapshot* h = find_histogram(snap, name);
  return h != nullptr ? h->sum : 0.0;
}

Json histogram_or_empty(const MetricsSnapshot& snap, std::string_view name) {
  const HistogramSnapshot* h = find_histogram(snap, name);
  return h != nullptr ? histogram_to_json(*h) : histogram_to_json({});
}

}  // namespace

Json build_run_report(const Session& session,
                      const runtime::RunReport* sweep, const RunContext& ctx) {
  const MetricsSnapshot snap = session.metrics().snapshot();

  Json root = Json::object();
  root["schema"] = Json("qfr.run_report.v1");

  {
    Json run = Json::object();
    run["engine"] = Json(ctx.engine);
    run["n_fragments"] = Json(ctx.n_fragments);
    run["engine_seconds"] = Json(ctx.engine_seconds);
    run["solver_seconds"] = Json(ctx.solver_seconds);
    root["run"] = std::move(run);
  }

  // Partition provenance: which fragmentation policy produced the sweep,
  // and how balanced / how invasive the decomposition was.
  if (!ctx.fragmentation_policy.empty()) {
    Json fragm = Json::object();
    fragm["policy"] = Json(ctx.fragmentation_policy);
    fragm["n_cut_bonds"] = Json(ctx.n_cut_bonds);
    fragm["balance_factor"] = Json(ctx.balance_factor);
    root["fragmentation"] = std::move(fragm);
  }

  // The paper's evaluation backbone: per-phase wall-clock decomposition
  // of the DFPT cycle (Table I / Fig. 9). The sum of the four phases must
  // track cpscf.solve.seconds — the report keeps both so consumers can
  // check coverage instead of trusting it.
  {
    Json dfpt = Json::object();
    Json phases = Json::object();
    const double p1 = histogram_sum(snap, "dfpt.phase.p1.seconds");
    const double n1 = histogram_sum(snap, "dfpt.phase.n1.seconds");
    const double v1 = histogram_sum(snap, "dfpt.phase.v1.seconds");
    const double h1 = histogram_sum(snap, "dfpt.phase.h1.seconds");
    phases["p1_seconds"] = Json(p1);
    phases["n1_seconds"] = Json(n1);
    phases["v1_seconds"] = Json(v1);
    phases["h1_seconds"] = Json(h1);
    phases["sum_seconds"] = Json(p1 + n1 + v1 + h1);
    dfpt["phases"] = std::move(phases);
    dfpt["solve_seconds"] = Json(histogram_sum(snap, "cpscf.solve.seconds"));
    dfpt["iterations"] = histogram_or_empty(snap, "cpscf.iterations");
    root["dfpt"] = std::move(dfpt);
  }
  {
    Json scf = Json::object();
    scf["context_seconds"] =
        Json(histogram_sum(snap, "scf.context.seconds"));
    scf["solve_seconds"] = Json(histogram_sum(snap, "scf.solve.seconds"));
    scf["iterations"] = histogram_or_empty(snap, "scf.iterations");
    root["scf"] = std::move(scf);
  }

  if (sweep != nullptr) {
    Json sched = Json::object();
    sched["n_tasks"] = Json(sweep->n_tasks);
    sched["n_requeued"] = Json(sweep->n_requeued);
    sched["n_retries"] = Json(sweep->n_retries);
    sched["n_fault_retries"] = Json(sweep->n_fault_retries);
    sched["n_reject_retries"] = Json(sweep->n_reject_retries);
    sched["n_rejected"] = Json(sweep->n_rejected);
    sched["cancelled"] = Json(sweep->cancelled);
    sched["n_resumed"] = Json(sweep->n_resumed);
    sched["n_failed"] = Json(sweep->n_failed());
    sched["n_degraded"] = Json(sweep->n_degraded());
    sched["n_cache_hits"] = Json(sweep->n_cache_hits());
    sched["n_reuse_exact"] = Json(sweep->n_reuse_exact());
    sched["n_reuse_refresh"] = Json(sweep->n_reuse_refresh());
    sched["n_leader_crashes"] = Json(sweep->n_leader_crashes);
    sched["n_leader_hangs"] = Json(sweep->n_leader_hangs);
    sched["n_leases_revoked"] = Json(sweep->n_leases_revoked);
    sched["n_cancelled"] = Json(sweep->n_cancelled);
    sched["makespan_seconds"] = Json(sweep->makespan_seconds);
    root["scheduler"] = std::move(sched);

    // Per-leader load balance (the Fig. 8 quantities): busy time,
    // utilization against the makespan, task/fragment throughput.
    Json leaders = Json::array();
    for (std::size_t l = 0; l < sweep->leaders.size(); ++l) {
      const runtime::LeaderStats& ls = sweep->leaders[l];
      Json j = Json::object();
      j["leader"] = Json(l);
      j["busy_seconds"] = Json(ls.busy_seconds);
      j["tasks"] = Json(ls.tasks);
      j["fragments"] = Json(ls.fragments);
      j["utilization"] = Json(sweep->makespan_seconds > 0.0
                                  ? ls.busy_seconds / sweep->makespan_seconds
                                  : 0.0);
      leaders.push_back(std::move(j));
    }
    root["leaders"] = std::move(leaders);
  }

  // Full registry dump: everything above is a curated view; this is the
  // raw substrate future perf PRs diff against.
  {
    Json metrics = Json::object();
    Json counters = Json::object();
    for (const auto& [name, v] : snap.counters) counters[name] = Json(v);
    Json gauges = Json::object();
    for (const auto& [name, v] : snap.gauges) gauges[name] = Json(v);
    Json histograms = Json::object();
    for (const auto& [name, h] : snap.histograms)
      histograms[name] = histogram_to_json(h);
    metrics["counters"] = std::move(counters);
    metrics["gauges"] = std::move(gauges);
    metrics["histograms"] = std::move(histograms);
    root["metrics"] = std::move(metrics);
  }
  {
    Json trace = Json::object();
    trace["events"] = Json(session.tracer().size());
    trace["dropped"] = Json(session.tracer().n_dropped());
    root["trace"] = std::move(trace);
  }
  return root;
}

void write_run_report_json(std::ostream& os, const Session& session,
                           const runtime::RunReport* sweep,
                           const RunContext& ctx) {
  os << build_run_report(session, sweep, ctx).dump(2) << "\n";
}

namespace {

/// RFC-4180 style field quoting: quote when the field contains a comma,
/// quote, or newline; double embedded quotes.
void csv_field(std::ostream& os, std::string_view s) {
  if (s.find_first_of(",\"\n\r") == std::string_view::npos) {
    os << s;
    return;
  }
  os << '"';
  for (const char c : s) {
    if (c == '"') os << "\"\"";
    else if (c == '\n' || c == '\r') os << ' ';
    else os << c;
  }
  os << '"';
}

}  // namespace

void write_outcomes_csv(std::ostream& os,
                        const std::vector<runtime::FragmentOutcome>& outcomes,
                        const std::vector<double>* fragment_seconds,
                        const std::string& policy) {
  os << "fragment_id,completed,engine,engine_level,reason,attempts,"
        "rejections,fault_retries,from_checkpoint,cache_hit,reuse_tier,"
        "wall_seconds,error";
  if (!policy.empty()) os << ",policy";
  os << '\n';
  for (const runtime::FragmentOutcome& o : outcomes) {
    os << o.fragment_id << ',' << (o.completed ? 1 : 0) << ',';
    csv_field(os, o.engine);
    os << ',' << o.engine_level << ',' << runtime::to_string(o.reason) << ','
       << o.attempts << ',' << o.rejections << ',' << o.fault_failures << ','
       << (o.from_checkpoint ? 1 : 0) << ','
       << (o.cache_hit ? 1 : 0) << ','
       << engine::to_string(o.reuse_tier) << ',';
    if (fragment_seconds != nullptr &&
        o.fragment_id < fragment_seconds->size()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6f",
                    (*fragment_seconds)[o.fragment_id]);
      os << buf;
    } else {
      os << "";
    }
    os << ',';
    csv_field(os, o.error);
    if (!policy.empty()) {
      os << ',';
      csv_field(os, policy);
    }
    os << '\n';
  }
}

Json bench_to_json(const BenchReport& report) {
  Json root = Json::object();
  root["schema"] = Json("qfr.bench.v1");
  root["bench"] = Json(report.name);
  Json meta = Json::object();
  for (const auto& [k, v] : report.meta) meta[k] = Json(v);
  root["meta"] = std::move(meta);
  Json samples = Json::array();
  for (const BenchSample& s : report.samples) {
    Json j = Json::object();
    j["label"] = Json(s.label);
    j["value"] = Json(s.value);
    if (!s.unit.empty()) j["unit"] = Json(s.unit);
    samples.push_back(std::move(j));
  }
  root["samples"] = std::move(samples);
  return root;
}

void write_bench_json(std::ostream& os, const BenchReport& report) {
  os << bench_to_json(report).dump(2) << "\n";
}

}  // namespace qfr::obs
