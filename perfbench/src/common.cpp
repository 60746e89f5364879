#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

namespace {

const double g_process_start = now_s();

/// JSON number with every significant digit (no locale, no trailing junk).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics.push_back({name, value, unit});
}

void Outcome::gate(bool ok, const std::string& why) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(why);
  }
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_start_s() { return g_process_start; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 21) {  // below that, sorted[n - 11] would sit under the median
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

bool bitwise_equal(const qfr::spectra::RamanSpectrum& a,
                   const qfr::spectra::RamanSpectrum& b) {
  if (a.intensity.size() != b.intensity.size() ||
      a.omega_cm.size() != b.omega_cm.size())
    return false;
  return std::memcmp(a.intensity.data(), b.intensity.data(),
                     a.intensity.size() * sizeof(double)) == 0 &&
         std::memcmp(a.omega_cm.data(), b.omega_cm.data(),
                     a.omega_cm.size() * sizeof(double)) == 0;
}

double rel_l2(const qfr::spectra::RamanSpectrum& a,
              const qfr::spectra::RamanSpectrum& b) {
  if (a.intensity.size() != b.intensity.size()) return INFINITY;
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.intensity.size(); ++i) {
    const double d = a.intensity[i] - b.intensity[i];
    num += d * d;
    den += b.intensity[i] * b.intensity[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

bool spectrum_sane(const qfr::spectra::RamanSpectrum& s) {
  if (s.intensity.empty() || s.intensity.size() != s.omega_cm.size())
    return false;
  double total = 0.0;
  for (const double v : s.intensity) {
    if (!std::isfinite(v)) return false;
    total += v;
  }
  return total > 0.0;
}

Tracer::Scope::Scope(Tracer* tracer, std::string name)
    : tracer_(tracer), index_(0), t0_(now_s()) {
  if (tracer_ != nullptr) {
    index_ = tracer_->spans_.size();
    tracer_->spans_.push_back({std::move(name), t0_, t0_, 0});
  }
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->spans_[index_].t1 = now_s();
}

double Tracer::Scope::seconds() const { return now_s() - t0_; }

void Tracer::add(const std::string& name, double t0, double t1, int tid) {
  spans_.push_back({name, t0, t1, tid});
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os.good()) return false;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string cat = s.name.substr(0, s.name.find('.'));
    os << (i == 0 ? "" : ",") << "\n{\"name\":" << json_string(s.name)
       << ",\"cat\":" << json_string(cat)
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << json_number(1e6 * (s.t0 - g_process_start))
       << ",\"dur\":" << json_number(1e6 * (s.t1 - s.t0)) << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.good();
}

void print_result(const Outcome& out) {
  for (const std::string& f : out.failures)
    std::fprintf(stderr, "perfbench: gate failed: %s\n", f.c_str());
  std::string line = "{\"correct\": ";
  line += out.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    line += (i == 0 ? "" : ", ") + json_string(m.name) +
            ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
