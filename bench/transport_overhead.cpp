// Measures what the process-level leader transport costs relative to the
// in-process thread transport on the same sweep: fork + socketpair setup,
// CRC-framed result serialization, and the proxy hop, across fragment
// counts and result payload sizes (the ModelEngine's tiny results vs a
// synthetic Hessian-sized payload). The headline number is the per-
// fragment overhead in microseconds — the price of real crash isolation.
// Each case also checks transport parity: every fragment completes on
// both transports with bitwise-equal energy, Hessian, alpha, dalpha and
// dmu (a `.parity` sample of 1; the bench exits 1 on a mismatch).
//
// With --json <path>, the series is additionally written as a
// qfr.bench.v1 document (the CI bench-smoke trajectory format).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "qfr/chem/protein.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/la/matrix.hpp"
#include "qfr/obs/export.hpp"
#include "qfr/runtime/master_runtime.hpp"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<qfr::frag::Fragment> water_box_fragments(double edge_angstrom) {
  qfr::chem::WaterBoxOptions wopts;
  wopts.edge_angstrom = edge_angstrom;
  wopts.seed = 7;
  const std::vector<qfr::chem::Molecule> waters =
      qfr::chem::build_water_box(wopts, qfr::chem::Molecule{});
  std::vector<qfr::frag::Fragment> frags(waters.size());
  for (std::size_t i = 0; i < waters.size(); ++i) {
    frags[i].id = i;
    frags[i].kind = qfr::frag::FragmentKind::kWater;
    frags[i].mol = waters[i];
  }
  return frags;
}

struct Sweep {
  double seconds = 0.0;
  qfr::runtime::RunReport report;
};

Sweep run_sweep(const std::vector<qfr::frag::Fragment>& frags,
                qfr::runtime::TransportKind transport, bool fat_results) {
  qfr::runtime::RuntimeOptions ropts;
  ropts.n_leaders = 2;
  ropts.workers_per_leader = 2;
  ropts.transport = transport;
  const qfr::runtime::MasterRuntime rt(std::move(ropts));
  const qfr::engine::ModelEngine eng;
  Sweep sweep;
  const double t0 = now_seconds();
  if (fat_results) {
    // Pad every result up to a ~100-atom fragment's Hessian so the run
    // is dominated by what actually crosses the wire in production.
    sweep.report = rt.run(frags, [&eng](const qfr::frag::Fragment& f) {
      qfr::engine::FragmentResult r = eng.compute(f.mol);
      r.hessian = qfr::la::Matrix(300, 300);
      r.dalpha = qfr::la::Matrix(6, 300);
      r.dmu = qfr::la::Matrix(3, 300);
      return r;
    });
  } else {
    sweep.report = rt.run(frags, eng);
  }
  sweep.seconds = now_seconds() - t0;
  return sweep;
}

bool same_bytes(const qfr::la::Matrix& a, const qfr::la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Transport parity: every fragment completed on both transports, and
/// each result is bitwise the same (the process results crossed the wire
/// as raw IEEE-754 bytes).
bool same_results(const qfr::runtime::RunReport& threads,
                  const qfr::runtime::RunReport& procs) {
  if (threads.results.size() != procs.results.size()) return false;
  for (std::size_t i = 0; i < threads.results.size(); ++i) {
    const qfr::engine::FragmentResult& a = threads.results[i];
    const qfr::engine::FragmentResult& b = procs.results[i];
    if (!threads.outcomes[i].completed || !procs.outcomes[i].completed ||
        std::memcmp(&a.energy, &b.energy, sizeof(double)) != 0 ||
        !same_bytes(a.hessian, b.hessian) || !same_bytes(a.alpha, b.alpha) ||
        !same_bytes(a.dalpha, b.dalpha) || !same_bytes(a.dmu, b.dmu))
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      return 2;
    }
  }

  qfr::obs::BenchReport report;
  report.name = "transport_overhead";
  report.meta.emplace_back("engine", "model");
  report.meta.emplace_back("n_leaders", "2");

  std::printf("=== Leader transport overhead: threads vs processes ===\n\n");

  bool all_parity = true;
  for (const double edge : {10.0, 14.0, 18.0}) {
    const auto frags = water_box_fragments(edge);
    const std::size_t n = frags.size();
    for (const bool fat : {false, true}) {
      const Sweep threads_run =
          run_sweep(frags, qfr::runtime::TransportKind::kThread, fat);
      const Sweep procs_run =
          run_sweep(frags, qfr::runtime::TransportKind::kProcess, fat);
      const double threads = threads_run.seconds;
      const double procs = procs_run.seconds;
      const bool parity = same_results(threads_run.report, procs_run.report);
      all_parity = all_parity && parity;
      const double per_frag_us =
          (procs - threads) / static_cast<double>(n) * 1e6;
      std::printf(
          "%4zu fragments, %s results: threads %.4f s, processes %.4f s, "
          "overhead %+.1f us/fragment, parity %s\n",
          n, fat ? "hessian" : "  tiny", threads, procs, per_frag_us,
          parity ? "ok" : "MISMATCH");

      char prefix[48];
      std::snprintf(prefix, sizeof(prefix), "n%zu.%s", n,
                    fat ? "hessian" : "tiny");
      const std::string p(prefix);
      report.samples.push_back({p + ".threads.seconds", threads, "s"});
      report.samples.push_back({p + ".process.seconds", procs, "s"});
      report.samples.push_back({p + ".overhead_us_per_fragment",
                                per_frag_us, "us"});
      report.samples.push_back({p + ".parity", parity ? 1.0 : 0.0, ""});
    }
  }
  std::printf(
      "\nOverhead buys crash isolation: a SIGKILL'd leader process is\n"
      "detected, its leases revoked, and the slot respawned (see\n"
      "test_process_runtime); a SIGKILL'd leader thread takes the master\n"
      "with it.\n");

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os.good()) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   json_path.c_str());
      return 1;
    }
    qfr::obs::write_bench_json(os, report);
    std::printf("bench JSON written to %s\n", json_path.c_str());
  }
  if (!all_parity) {
    std::fprintf(stderr,
                 "transport parity failed: the process transport's results "
                 "differ from the thread transport's\n");
    return 1;
  }
  return 0;
}
