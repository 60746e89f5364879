// Shared plumbing of the time-to-spectrum benchmark: command line, the
// result record printed as the last stdout line, robust statistics, peak
// RSS, spectrum comparison, and the bench-side span recorder that writes
// the traced run's Chrome trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qfr/spectra/raman.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny-size mode: run every workload small, then prove the gates fire
  /// on a perturbed spectrum and on a NaN-poisoned fragment.
  bool selfcheck = false;
  /// Scratch directory for checkpoints, series files and the trace.
  std::string work_dir = ".bench_work";
};

/// One named metric with its unit, in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports: the gate verdicts and the metrics.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable reasons for failed gates (printed to stderr).
  std::vector<std::string> failures;

  bool correct() const { return failed == 0 && failures.empty(); }
  void set(const std::string& name, double value, const std::string& unit);
  /// Record one attempted operation; `ok` false counts it failed with
  /// `why` as the reason.
  void gate(bool ok, const std::string& why);
};

/// Seconds on the steady clock.
double now_s();
/// Steady-clock time captured during static initialisation, i.e. right
/// after the benchmark process started.
double process_start_s();

double median(std::vector<double> v);
/// The highest percentile with at least ten samples beyond it (the
/// tail-latency convention of the benchmark): sorted[n - 11] with its
/// percentile 100 (n - 10) / n. With fewer than 21 samples, where that
/// would not even reach the median, the maximum.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};
Tail tail(std::vector<double> v);
double sum(const std::vector<double>& v);

/// Peak resident set (MB) of this process and of its reaped children
/// (forked leader processes), whichever is larger.
double peak_rss_mb();

bool bitwise_equal(const qfr::spectra::RamanSpectrum& a,
                   const qfr::spectra::RamanSpectrum& b);
double rel_l2(const qfr::spectra::RamanSpectrum& a,
              const qfr::spectra::RamanSpectrum& b);
/// Finite intensities on a non-empty axis with positive total weight.
bool spectrum_sane(const qfr::spectra::RamanSpectrum& s);

/// Bench-side span recorder: spans are kept in memory and written once as
/// Chrome trace_event JSON (open in chrome://tracing or ui.perfetto.dev).
class Tracer {
 public:
  /// RAII span; closes on destruction. Nested scopes become children.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened.
    double seconds() const;

   private:
    Tracer* tracer_;
    std::size_t index_;
    double t0_;
  };

  /// Record an already-measured interval as a span on trace row `tid`
  /// (used for intervals timed on worker threads, added after the fact).
  void add(const std::string& name, double t0, double t1, int tid = 0);
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int tid = 0;
  };
  std::vector<Span> spans_;
};

/// Print the result record as one JSON line on stdout.
void print_result(const Outcome& out);

}  // namespace perfbench
