// The traced side of the benchmark: RamanWorkflow::run rebuilt from the
// layers' public functions with a span around every call, plus the
// instruments that time a layer from outside (engine and sink
// decorators, a timed Lanczos operator) and replays of the layers the
// sweep hides inside fragment computes or leader processes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "common.hpp"
#include "qfr/engine/fragment_engine.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/qframan/workflow.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/runtime/result_sink.hpp"

namespace perfbench {

/// Transparent FragmentEngine decorator recording the wall interval and
/// reuse tier of every compute on the calling thread. Only meaningful on
/// the thread transport: under kProcess the computes run in forked
/// children and the records stay there.
class TimedEngine final : public qfr::engine::FragmentEngine {
 public:
  struct Call {
    double t0 = 0.0;
    double t1 = 0.0;
    qfr::engine::ReuseTier tier = qfr::engine::ReuseTier::kComputed;
    int tid = 0;  ///< small per-thread index (trace row)
  };

  explicit TimedEngine(const qfr::engine::FragmentEngine& inner)
      : inner_(inner) {}

  qfr::engine::FragmentResult compute(
      const qfr::chem::Molecule& mol) const override;
  qfr::engine::FragmentResult compute(
      std::size_t id, const qfr::chem::Molecule& mol) const override;
  qfr::engine::FragmentResult compute(
      std::size_t id, const qfr::chem::Molecule& mol,
      const std::vector<qfr::chem::Bond>& bonds) const override;
  std::string name() const override { return inner_.name(); }

  /// Every call recorded so far, then forget them.
  std::vector<Call> take();

 private:
  qfr::engine::FragmentResult timed(
      double t0, qfr::engine::FragmentResult r) const;

  const qfr::engine::FragmentEngine& inner_;
  mutable std::mutex mu_;
  mutable std::vector<Call> calls_;
};

/// ResultSink decorator accumulating the wall time of the inner sink.
class TimedSink final : public qfr::runtime::ResultSink {
 public:
  explicit TimedSink(qfr::runtime::ResultSink& inner) : inner_(inner) {}
  void on_result(std::size_t id,
                 const qfr::engine::FragmentResult& r) override;
  double seconds() const { return seconds_; }

 private:
  qfr::runtime::ResultSink& inner_;
  double seconds_ = 0.0;  // on_result calls are serialized by the runtime
};

/// Output and per-layer timings of one composed pipeline run.
struct Composed {
  qfr::frag::Fragmentation fragmentation;
  qfr::runtime::RunReport report;
  qfr::spectra::RamanSpectrum spectrum;
  double wall_s = 0.0;
  double part_s = 0.0;
  double sweep_s = 0.0;
  double assemble_s = 0.0;
  double assemble_rss_mb = 0.0;
  double solve_s = 0.0;
  double solve_rss_mb = 0.0;
  double matvec_s = 0.0;
  std::size_t matvecs = 0;
  /// Checkpoint open (truncation), every sink call, and close.
  double checkpoint_s = 0.0;
  double checkpoint_bytes = 0.0;

  /// Seconds inside the top-level layer calls (the ledger's sum).
  double layers_s() const {
    return part_s + sweep_s + assemble_s + solve_s + checkpoint_s -
           checkpoint_sink_s;
  }
  /// The part of checkpoint_s spent inside the sweep (sink calls).
  double checkpoint_sink_s = 0.0;
};

/// Fragmentation -> sweep -> assembly -> spectral solve through
/// part::fragment_system, runtime::MasterRuntime::run,
/// frag::assemble_global_properties and spectra::raman_spectrum_*, with
/// the runtime options mirrored from `opts` the way RamanWorkflow::run
/// builds them (checkpoint sink, validator, transport, retry budget). The
/// workloads leave the fallback chain, supervision and the runtime-level
/// cache off, and so does this mirror. Throws like the workflow when a
/// fragment fails permanently.
Composed compose(const qfr::frag::BioSystem& sys,
                 const qfr::qframan::WorkflowOptions& opts,
                 const qfr::engine::FragmentEngine& eng, Tracer* tracer);

/// Fold one composed run into a running total (trajectory frames): layer
/// times add, per-fragment records concatenate, leader stats add by slot.
void accumulate(Composed& total, Composed&& run);

/// Engine-layer ledger of a sweep: the counters the real sweep exported
/// (phase times, FLOPs, displacement tasks) next to the engine-internal
/// layers, measured by replaying one displaced geometry of two seeded
/// sample fragments through the public calls ScfEngine makes, with its
/// tolerances, scaled by each fragment's point counts.
void engine_ledger(const Composed& c, qfr::qframan::EngineKind kind,
                   std::uint64_t seed, Tracer* tracer, Outcome& out);

/// Wall time of a one-fragment kProcess sweep: fork, handshake, one tiny
/// compute, retire — the fixed start-up cost of process leaders, kept
/// apart from the per-fragment wire cost. Median of `reps`.
double process_startup_s(std::size_t n_leaders, std::size_t workers,
                         int reps);

/// Encode and decode every result of a sweep as kResult wire frames.
struct WireReplay {
  double bytes = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  bool round_trip_ok = true;
};
WireReplay replay_wire(const qfr::runtime::RunReport& report);

/// Seconds spent canonicalizing every fragment of `fragments` for the
/// result cache (cache::canonicalize at `tolerance` under `ns`).
double replay_canonicalize(std::span<const qfr::frag::Fragment> fragments,
                           double tolerance, const std::string& ns);

/// Runtime-layer metrics of a composed sweep (part, runtime, engine
/// fragment times, assembly, spectra, checkpoint). `threads` is the
/// sweep's compute-thread count.
void sweep_metrics(const Composed& c, std::size_t threads, Outcome& out);

}  // namespace perfbench
