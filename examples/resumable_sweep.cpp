// Resumable sweep: demonstrate the fault-tolerant fragment sweep and its
// incremental checkpoint. A flaky engine kills the first run partway
// through; the second run resumes from the checkpoint and recomputes only
// the missing fragments. The first run's leaders are forked processes, so
// every restored record crossed the leader wire before it reached the
// checkpoint; the resume runs on leader threads. A third, uninterrupted run checks that the resumed
// spectrum is bitwise identical and prints resume_identical=1 (or 0).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/resumable_sweep

#include <atomic>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "qfr/chem/molecule.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/qframan/workflow.hpp"

namespace {

// Wraps the classical model engine and dies after a fixed number of
// fragments — a stand-in for a node loss partway through a production
// sweep. The count lives in the process, so a forked leader process
// spends its own budget.
class FlakyEngine final : public qfr::engine::FragmentEngine {
 public:
  explicit FlakyEngine(int budget) : budget_(budget) {}

  qfr::engine::FragmentResult compute(
      const qfr::chem::Molecule& mol) const override {
    const int k = computed_.fetch_add(1);
    if (budget_ >= 0 && k >= budget_)
      throw std::runtime_error("simulated node loss");
    return inner_.compute(mol);
  }
  std::string name() const override { return "flaky-model"; }
  int computed() const { return computed_.load(); }

 private:
  qfr::engine::ModelEngine inner_;
  int budget_ = -1;
  mutable std::atomic<int> computed_{0};
};

}  // namespace

int main() {
  using namespace qfr;

  frag::BioSystem system;
  Rng rng(7);
  for (int i = 0; i < 16; ++i) {
    system.waters.push_back(chem::make_water(
        {7.0 * (i % 4), 7.0 * (i / 4), 0.0}, rng.uniform(0.0, 6.28)));
  }

  qframan::WorkflowOptions options;
  options.sigma_cm = 20.0;
  options.n_leaders = 2;
  options.checkpoint_path = "/tmp/qfr_resumable_sweep.ckpt";
  options.max_retries = 0;  // let the injected failure surface immediately

  std::printf("QF-RAMAN resumable sweep\n");
  std::printf("  checkpoint: %s\n\n", options.checkpoint_path.c_str());

  // Run 1: each leader process's engine dies after 5 fragments. The
  // workflow reports the failure, but every completed fragment is already
  // on disk.
  {
    qframan::WorkflowOptions process = options;
    process.transport = runtime::TransportKind::kProcess;
    const FlakyEngine eng(/*budget=*/5);
    try {
      qframan::RamanWorkflow(process).run(system, eng);
    } catch (const NumericalError& e) {
      std::printf("run 1: FAILED as injected (%s)\n", e.what());
    }
  }

  // Run 2: resume on leader threads. Only the missing fragments are
  // recomputed.
  options.resume = true;
  const FlakyEngine eng(/*budget=*/-1);
  const qframan::WorkflowResult result =
      qframan::RamanWorkflow(options).run(system, eng);
  std::printf("run 2: resumed %zu of %zu fragments from the checkpoint,\n",
              result.sweep.n_resumed, result.sweep.n_fragments);
  std::printf("       recomputed %d, dispatched %zu tasks\n", eng.computed(),
              result.sweep.n_tasks);

  double peak = 0.0, where = 0.0;
  for (std::size_t i = 0; i < result.spectrum.omega_cm.size(); ++i) {
    if (result.spectrum.intensity[i] > peak) {
      peak = result.spectrum.intensity[i];
      where = result.spectrum.omega_cm[i];
    }
  }
  std::printf("       dominant band at %.1f cm^-1 (intensity %.3g)\n", where,
              peak);

  // Run 3: the same sweep without interruption or checkpoint.
  options.checkpoint_path.clear();
  options.resume = false;
  const qframan::WorkflowResult reference =
      qframan::RamanWorkflow(options).run(system, FlakyEngine(/*budget=*/-1));
  const bool identical =
      reference.spectrum.intensity.size() == result.spectrum.intensity.size() &&
      std::memcmp(reference.spectrum.intensity.data(),
                  result.spectrum.intensity.data(),
                  result.spectrum.intensity.size() * sizeof(double)) == 0;
  std::printf("resume_identical=%d\n", identical ? 1 : 0);
  return identical ? 0 : 1;
}
