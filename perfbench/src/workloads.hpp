// The four seeded workloads of the time-to-spectrum benchmark. Each runs
// either untraced (end-to-end metrics through the public entry point) or
// traced (per-layer metrics from the composed pipeline and replays).
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Deliberate breakage used by the negative self-check.
struct Sabotage {
  /// Scale a delivered spectrum by 1 + 1e-2 before the gates see it.
  bool perturb_spectrum = false;
  /// Wrap the engine of the composed pipeline in a fault::FaultyEngine
  /// that plants a NaN in fragment 0 on every attempt.
  bool nan_fragment = false;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Run one workload. `tiny` shrinks every input to a few fragments (the
/// self-check size).
Outcome run_workload(const Args& args, bool tiny = false,
                     const Sabotage& sabotage = {});

}  // namespace perfbench
