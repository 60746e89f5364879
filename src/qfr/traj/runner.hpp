#pragma once

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

#include "qfr/cache/store.hpp"
#include "qfr/qframan/workflow.hpp"
#include "qfr/spectra/raman.hpp"
#include "qfr/traj/frame_source.hpp"
#include "qfr/traj/tiered_engine.hpp"

namespace qfr::traj {

/// Everything the runner records (and streams) per trajectory frame.
struct FrameSummary {
  std::size_t frame = 0;
  std::string comment;
  double wall_seconds = 0.0;
  /// Restored from the series checkpoint instead of being run (resume).
  bool resumed = false;
  /// Per-fragment reuse-tier counts of this frame's sweep (from the
  /// outcome provenance, so they are exact on every transport).
  TierCounts tiers;
  std::size_t n_fragments = 0;
  spectra::RamanSpectrum spectrum;
  spectra::RamanSpectrum ir_spectrum;  ///< filled when compute_ir is set
};

/// Streaming consumer of per-frame spectra: called after each frame
/// completes, in frame order, from the runner's thread.
class SpectrumSeriesSink {
 public:
  virtual ~SpectrumSeriesSink() = default;
  virtual void on_frame(const FrameSummary& frame) = 0;
};

/// JSON-lines spectrum series writer doubling as the resumable series
/// checkpoint: one self-contained `qfr.traj.frame.v1` object per line,
/// flushed per frame, so a killed trajectory run loses at most the frame
/// in flight. Constructed with resume=true it parses the existing file,
/// keeps every well-formed line (a torn final line — the frame in flight
/// at the kill — is dropped), rewrites the file atomically to exactly
/// those lines, and exposes them via restored(); the runner then skips
/// the restored frames and appends the rest.
class JsonlSpectrumSink final : public SpectrumSeriesSink {
 public:
  explicit JsonlSpectrumSink(std::string path, bool resume = false);

  void on_frame(const FrameSummary& frame) override;

  /// Frames recovered from the file on construction (resume only),
  /// ascending by frame index.
  const std::vector<FrameSummary>& restored() const { return restored_; }
  /// Damaged or torn lines dropped on construction (resume only).
  std::size_t n_dropped() const { return n_dropped_; }

 private:
  std::string path_;
  std::ofstream os_;
  std::vector<FrameSummary> restored_;
  std::size_t n_dropped_ = 0;
};

/// Configuration of a trajectory streaming run.
struct TrajectoryOptions {
  /// Per-frame workflow configuration. The runner overrides the cache
  /// wiring (shared_cache points at the trajectory-wide cache) and
  /// appends ".frame<k>" to artifact_suffix per frame so checkpoints,
  /// traces, and reports never collide across frames.
  qframan::WorkflowOptions workflow;
  /// Tolerance-tiered reuse decision (radius, validator gate).
  ReuseOptions reuse;
  /// Route fragments through the TieredReuseEngine. false degrades to
  /// exact-hit-only reuse (the shared cache still dedups rigid copies) —
  /// the comparison baseline for the refresh tier.
  bool tiered_reuse = true;
  /// The trajectory-wide result cache shared by every frame. `enabled`
  /// is implied; `store_path` persists anchors across runs/resumes.
  cache::CacheOptions cache;
  /// JSON-lines spectrum series + resumable checkpoint; empty disables.
  std::string series_path;
  /// Skip frames already complete in series_path (see JsonlSpectrumSink).
  bool resume = false;
  /// Stop after this many frames even if the source has more.
  std::size_t max_frames = static_cast<std::size_t>(-1);
};

/// Result of a trajectory run.
struct TrajectoryResult {
  std::vector<FrameSummary> frames;
  TierCounts totals;            ///< tier counts summed over run frames
  cache::CacheStats cache_stats;
};

/// Drives one RamanWorkflow sweep per trajectory frame over a shared
/// ResultCache with tolerance-tiered reuse, streaming per-frame spectra
/// to the series sink. Per-frame cost is proportional to what actually
/// changed: rigid-motion fragments transport, small distortions refresh,
/// and only genuinely new geometries pay a full compute.
class TrajectoryRunner {
 public:
  explicit TrajectoryRunner(TrajectoryOptions options);

  /// Run every frame of `frames` against the template `base` (frame
  /// positions in base.merged() order). `extra_sink` (optional) receives
  /// each FrameSummary after the series file does.
  TrajectoryResult run(const frag::BioSystem& base, FrameSource& frames,
                       SpectrumSeriesSink* extra_sink = nullptr) const;

  const TrajectoryOptions& options() const { return options_; }

 private:
  TrajectoryOptions options_;
};

}  // namespace qfr::traj
