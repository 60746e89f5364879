// qfr_perfbench — time-to-spectrum benchmark of the qframan library.
//
//   qfr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>]
//   qfr_perfbench --selfcheck [--work-dir <dir>]
//
// Prints one JSON object as the last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones (and write a Chrome trace into the work directory). --selfcheck
// runs every workload at a tiny size, clean and sabotaged, and exits
// non-zero unless the clean runs pass and the sabotaged ones fail.

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "qfr/common/log.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: qfr_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "       qfr_perfbench --selfcheck [--work-dir <dir>]\n");
  return 2;
}

bool make_dir(const std::string& path) {
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

/// One self-check case: run `workload` tiny, expect failures or not.
bool expect(perfbench::Args a, bool trace, const perfbench::Sabotage& sab,
            bool want_failure, const char* label) {
  a.trace = trace;
  a.seconds = 0.1;
  const perfbench::Outcome out = perfbench::run_workload(a, true, sab);
  const bool failed = !out.correct() || out.failed > 0;
  const bool pass = failed == want_failure && out.attempted > 0;
  std::printf("selfcheck %-14s %-22s attempted %3zu failed %3zu  %s\n",
              a.workload.c_str(), label, out.attempted, out.failed,
              pass ? "ok" : "WRONG");
  std::fflush(stdout);
  return pass;
}

int selfcheck(perfbench::Args a) {
  bool all = true;
  for (const std::string& w : perfbench::workload_names()) {
    a.workload = w;
    perfbench::Sabotage perturb;
    perturb.perturb_spectrum = true;
    perfbench::Sabotage nan;
    nan.nan_fragment = true;
    all &= expect(a, false, {}, false, "clean untraced");
    all &= expect(a, true, {}, false, "clean traced");
    all &= expect(a, false, perturb, true, "perturbed spectrum");
    all &= expect(a, true, nan, true, "NaN fragment");
  }
  std::printf("selfcheck %s\n", all ? "passed" : "FAILED");
  return all ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selfcheck") {
      a.selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (key == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) return usage();
    } else if (key == "--work-dir") {
      a.work_dir = v;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (!make_dir(a.work_dir)) {
    std::fprintf(stderr, "cannot create work directory '%s'\n",
                 a.work_dir.c_str());
    return 2;
  }
  // The library logs every sweep at info level; keep stderr for gates.
  qfr::Log::set_level(qfr::LogLevel::kWarn);
  if (a.selfcheck) return selfcheck(a);

  bool known = false;
  for (const std::string& w : perfbench::workload_names())
    known = known || w == a.workload;
  if (!have_workload || !known || a.seconds <= 0.0) return usage();
  perfbench::print_result(perfbench::run_workload(a));
  return 0;
}
