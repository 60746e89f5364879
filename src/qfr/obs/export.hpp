#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "qfr/obs/json.hpp"
#include "qfr/obs/metrics.hpp"
#include "qfr/runtime/master_runtime.hpp"

namespace qfr::obs {

class Session;

/// Run-level descriptors the metrics registry does not know.
struct RunContext {
  std::string engine;            ///< primary engine name
  std::size_t n_fragments = 0;
  double engine_seconds = 0.0;   ///< fragment-sweep wall time
  double solver_seconds = 0.0;   ///< spectral-solve wall time
  /// Partition provenance ("mfcc", "graph"); empty = omit the
  /// "fragmentation" object from the report.
  std::string fragmentation_policy;
  std::size_t n_cut_bonds = 0;   ///< severed covalent bonds (graph policy)
  double balance_factor = 0.0;   ///< max part weight / mean part weight
};

/// Assemble the machine-readable record of one run: the DFPT four-phase
/// decomposition (P1 / n1(r) / v1 / H1) and SCF/CPSCF iteration
/// histograms from the session's registry, the scheduler and supervision
/// counters plus per-leader utilization from the sweep report, and a full
/// dump of every registered metric. `sweep` may be null (bench runs that
/// never went through MasterRuntime). Schema: "qfr.run_report.v1".
Json build_run_report(const Session& session,
                      const runtime::RunReport* sweep, const RunContext& ctx);

void write_run_report_json(std::ostream& os, const Session& session,
                           const runtime::RunReport* sweep,
                           const RunContext& ctx);

/// Terminal per-fragment outcome table as CSV (header included): the
/// chaos-triage artifact. `fragment_seconds` (accepted-attempt wall time,
/// indexed by fragment id) may be null or shorter than `outcomes`. A
/// non-empty `policy` appends a fragmentation-policy provenance column.
void write_outcomes_csv(std::ostream& os,
                        const std::vector<runtime::FragmentOutcome>& outcomes,
                        const std::vector<double>* fragment_seconds,
                        const std::string& policy = "");

/// One point of a bench series (label e.g. "orise.reduce.speedup/9").
struct BenchSample {
  std::string label;
  double value = 0.0;
  std::string unit;
};

/// A bench run serialized to BENCH_<name>.json, the trajectory format the
/// CI bench-smoke stage accumulates. Schema: "qfr.bench.v1".
struct BenchReport {
  std::string name;
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<BenchSample> samples;
};

Json bench_to_json(const BenchReport& report);
void write_bench_json(std::ostream& os, const BenchReport& report);

/// Histogram snapshot -> JSON object (count/sum/min/max/mean/p50/p95/p99).
Json histogram_to_json(const HistogramSnapshot& h);

}  // namespace qfr::obs
