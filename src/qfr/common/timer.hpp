#pragma once

#include <chrono>
#include <cstdint>

namespace qfr {

/// Wall-clock stopwatch used for all performance measurement.
///
/// The paper reports "DFPT time per cycle" from wall-clock timers; this is
/// the equivalent primitive. steady_clock is used so measurements are
/// immune to NTP adjustments.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  /// Reset the reference point to now.
  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Elapsed seconds since construction or the last reset()/lap(), and
  /// restart from that same instant: consecutive laps tile the timeline
  /// with no gap between them.
  double lap() {
    const clock::time_point now = clock::now();
    const double s = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return s;
  }

  /// Elapsed nanoseconds since construction or the last reset().
  std::int64_t nanoseconds() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                start_)
        .count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates time over multiple start/stop intervals (per-phase totals).
class PhaseTimer {
 public:
  void start() { t_.reset(); running_ = true; }
  void stop() {
    if (running_) {
      total_ += t_.seconds();
      ++intervals_;
      running_ = false;
    }
  }
  double total_seconds() const { return total_; }
  std::int64_t intervals() const { return intervals_; }

 private:
  WallTimer t_;
  double total_ = 0.0;
  std::int64_t intervals_ = 0;
  bool running_ = false;
};

}  // namespace qfr
