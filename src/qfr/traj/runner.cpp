#include "qfr/traj/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "qfr/common/error.hpp"
#include "qfr/common/log.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/obs/json.hpp"

namespace qfr::traj {

namespace {

obs::Json spectrum_json(const spectra::RamanSpectrum& s) {
  obs::Json omega = obs::Json::array();
  obs::Json intensity = obs::Json::array();
  for (const double v : s.omega_cm) omega.push_back(obs::Json(v));
  for (const double v : s.intensity) intensity.push_back(obs::Json(v));
  obs::Json out = obs::Json::object();
  out["omega_cm"] = std::move(omega);
  out["intensity"] = std::move(intensity);
  return out;
}

bool parse_spectrum(const obs::Json* j, spectra::RamanSpectrum* s) {
  if (j == nullptr || !j->is_object()) return false;
  const obs::Json* omega = j->find("omega_cm");
  const obs::Json* intensity = j->find("intensity");
  if (omega == nullptr || !omega->is_array() || intensity == nullptr ||
      !intensity->is_array() || omega->size() != intensity->size())
    return false;
  s->omega_cm.resize(omega->size());
  s->intensity.resize(intensity->size());
  for (std::size_t i = 0; i < omega->size(); ++i) {
    if (!omega->at(i).is_number() || !intensity->at(i).is_number())
      return false;
    s->omega_cm[i] = omega->at(i).as_double();
    s->intensity[i] = intensity->at(i).as_double();
  }
  return true;
}

std::string frame_line(const FrameSummary& f) {
  obs::Json root = obs::Json::object();
  root["schema"] = obs::Json("qfr.traj.frame.v1");
  root["frame"] = obs::Json(static_cast<std::uint64_t>(f.frame));
  root["comment"] = obs::Json(f.comment);
  root["wall_seconds"] = obs::Json(f.wall_seconds);
  root["n_fragments"] = obs::Json(static_cast<std::uint64_t>(f.n_fragments));
  obs::Json tiers = obs::Json::object();
  tiers["exact"] = obs::Json(f.tiers.exact);
  tiers["refresh"] = obs::Json(f.tiers.refresh);
  tiers["full"] = obs::Json(f.tiers.full);
  tiers["refresh_rejected"] = obs::Json(f.tiers.refresh_rejected);
  root["tiers"] = std::move(tiers);
  root["spectrum"] = spectrum_json(f.spectrum);
  if (!f.ir_spectrum.omega_cm.empty())
    root["ir_spectrum"] = spectrum_json(f.ir_spectrum);
  return root.dump();
}

/// Parse one series line; false on anything short of a complete,
/// well-formed qfr.traj.frame.v1 object (the torn-tail case on resume).
bool parse_frame_line(const std::string& line, FrameSummary* out) {
  const std::optional<obs::Json> j = obs::Json::parse(line);
  if (!j || !j->is_object()) return false;
  const obs::Json* schema = j->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "qfr.traj.frame.v1")
    return false;
  const obs::Json* frame = j->find("frame");
  const obs::Json* wall = j->find("wall_seconds");
  if (frame == nullptr || !frame->is_number() || wall == nullptr ||
      !wall->is_number())
    return false;
  out->frame = static_cast<std::size_t>(frame->as_double());
  out->wall_seconds = wall->as_double();
  if (const obs::Json* c = j->find("comment"); c != nullptr && c->is_string())
    out->comment = c->as_string();
  if (const obs::Json* n = j->find("n_fragments");
      n != nullptr && n->is_number())
    out->n_fragments = static_cast<std::size_t>(n->as_double());
  if (const obs::Json* tiers = j->find("tiers");
      tiers != nullptr && tiers->is_object()) {
    const auto count = [&](const char* key) -> std::int64_t {
      const obs::Json* v = tiers->find(key);
      return v != nullptr && v->is_number()
                 ? static_cast<std::int64_t>(v->as_double())
                 : 0;
    };
    out->tiers.exact = count("exact");
    out->tiers.refresh = count("refresh");
    out->tiers.full = count("full");
    out->tiers.refresh_rejected = count("refresh_rejected");
  }
  if (!parse_spectrum(j->find("spectrum"), &out->spectrum)) return false;
  parse_spectrum(j->find("ir_spectrum"), &out->ir_spectrum);
  out->resumed = true;
  return true;
}

}  // namespace

JsonlSpectrumSink::JsonlSpectrumSink(std::string path, bool resume)
    : path_(std::move(path)) {
  QFR_REQUIRE(!path_.empty(), "spectrum series path must not be empty");
  if (resume) {
    std::ifstream is(path_);
    if (is.good()) {
      std::string line;
      while (std::getline(is, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        FrameSummary f;
        if (parse_frame_line(line, &f)) {
          restored_.push_back(std::move(f));
        } else {
          ++n_dropped_;  // torn/damaged line: that frame will be re-run
        }
      }
    }
    std::sort(restored_.begin(), restored_.end(),
              [](const FrameSummary& a, const FrameSummary& b) {
                return a.frame < b.frame;
              });
    if (n_dropped_ > 0)
      QFR_LOG_WARN("spectrum series resume: dropped ", n_dropped_,
                   " damaged line(s) from '", path_, "'");
    // Atomic rewrite to exactly the surviving lines, so the file is a
    // clean frame boundary before new appends land.
    const std::string tmp = path_ + ".tmp";
    {
      std::ofstream os(tmp, std::ios::trunc);
      QFR_REQUIRE(os.good(), "cannot open '" << tmp << "' for writing");
      for (const FrameSummary& f : restored_) os << frame_line(f) << '\n';
      os.flush();
      QFR_REQUIRE(os.good(), "spectrum series rewrite to '" << tmp
                                                            << "' failed");
    }
    QFR_REQUIRE(std::rename(tmp.c_str(), path_.c_str()) == 0,
                "cannot rename '" << tmp << "' to '" << path_ << "'");
    os_.open(path_, std::ios::app);
  } else {
    os_.open(path_, std::ios::trunc);
  }
  QFR_REQUIRE(os_.good(),
              "cannot open spectrum series '" << path_ << "' for writing");
}

void JsonlSpectrumSink::on_frame(const FrameSummary& frame) {
  os_ << frame_line(frame) << '\n';
  os_.flush();  // per-frame durability: a kill loses at most one frame
  QFR_REQUIRE(os_.good(), "spectrum series write to '" << path_
                                                       << "' failed");
}

// ---------------------------------------------------------------------------

TrajectoryRunner::TrajectoryRunner(TrajectoryOptions options)
    : options_(std::move(options)) {}

TrajectoryResult TrajectoryRunner::run(const frag::BioSystem& base,
                                       FrameSource& frames,
                                       SpectrumSeriesSink* extra_sink) const {
  TrajectoryResult out;

  // The trajectory-wide result cache every frame shares — the substrate
  // all three reuse tiers read through. The workflow's validator gates
  // inserts exactly like a single-frame cached run.
  cache::CacheOptions copts = options_.cache;
  copts.enabled = true;
  cache::ResultCache cache(copts);
  const fault::FragmentResultValidator validator(
      options_.workflow.validator);
  if (options_.workflow.validate_results)
    cache.set_insert_filter([&validator](const engine::FragmentResult& r) {
      return validator.validate(r).ok;
    });

  // One engine for the whole trajectory: the primary, wrapped in the
  // tiered-reuse decorator when enabled.
  const std::unique_ptr<engine::FragmentEngine> primary =
      qframan::make_engine(options_.workflow.engine,
                           options_.workflow.batched_gemm);
  ReuseOptions ropts = options_.reuse;
  if (options_.workflow.validate_results && ropts.validator == nullptr)
    ropts.validator = &validator;
  std::unique_ptr<TieredReuseEngine> tiered;
  if (options_.tiered_reuse)
    tiered = std::make_unique<TieredReuseEngine>(*primary, cache, ropts);
  const engine::FragmentEngine& eng =
      tiered != nullptr ? static_cast<const engine::FragmentEngine&>(*tiered)
                        : *primary;

  // Series sink (JSONL + resumable checkpoint).
  std::unique_ptr<JsonlSpectrumSink> series;
  std::set<std::size_t> completed;
  if (!options_.series_path.empty()) {
    series = std::make_unique<JsonlSpectrumSink>(options_.series_path,
                                                 options_.resume);
    for (const FrameSummary& f : series->restored())
      completed.insert(f.frame);
    if (!completed.empty())
      QFR_LOG_INFO("trajectory resume: ", completed.size(),
                   " frame(s) already complete in '", options_.series_path,
                   "'");
  }

  std::size_t n_run = 0;
  while (out.frames.size() < options_.max_frames) {
    std::optional<Frame> frame = frames.next();
    if (!frame) break;

    if (completed.count(frame->index) != 0) {
      // Restored from the series checkpoint: re-emit to the extra sink
      // so downstream consumers see the full series, but skip the sweep.
      for (const FrameSummary& f : series->restored())
        if (f.frame == frame->index) {
          if (extra_sink != nullptr) extra_sink->on_frame(f);
          out.frames.push_back(f);
          break;
        }
      continue;
    }

    const frag::BioSystem sys = apply_frame(base, *frame);

    qframan::WorkflowOptions wopts = options_.workflow;
    // Tiered: the engine owns every cache interaction (probe, refresh,
    // anchored full compute), so the runtime-level cache must stay off —
    // its get_or_compute would insert refreshed results back and break
    // the anchor invariant. Non-tiered: the shared cache is wired as the
    // runtime read-through, giving exact-only reuse across frames.
    wopts.shared_cache = tiered != nullptr ? nullptr : &cache;
    wopts.cache.enabled = false;
    {
      std::ostringstream sfx;
      sfx << wopts.artifact_suffix << ".frame" << frame->index;
      wopts.artifact_suffix = sfx.str();
    }

    WallTimer timer;
    const qframan::RamanWorkflow workflow(wopts);
    qframan::WorkflowResult r = workflow.run(sys, eng);

    FrameSummary f;
    f.frame = frame->index;
    f.comment = frame->comment;
    f.wall_seconds = timer.seconds();
    f.n_fragments = r.sweep.n_fragments;
    for (const runtime::FragmentOutcome& o : r.sweep.outcomes) {
      if (!o.completed) continue;
      switch (o.reuse_tier) {
        case engine::ReuseTier::kExact: ++f.tiers.exact; break;
        case engine::ReuseTier::kRefresh: ++f.tiers.refresh; break;
        case engine::ReuseTier::kComputed: ++f.tiers.full; break;
      }
    }
    f.spectrum = std::move(r.spectrum);
    f.ir_spectrum = std::move(r.ir_spectrum);

    out.totals.exact += f.tiers.exact;
    out.totals.refresh += f.tiers.refresh;
    out.totals.full += f.tiers.full;
    ++n_run;

    if (series != nullptr) series->on_frame(f);
    if (extra_sink != nullptr) extra_sink->on_frame(f);
    out.frames.push_back(std::move(f));
  }
  if (tiered != nullptr)
    out.totals.refresh_rejected = tiered->counts().refresh_rejected;

  out.cache_stats = cache.stats();
  QFR_LOG_INFO("trajectory: ", out.frames.size(), " frame(s) (", n_run,
               " run, ", out.frames.size() - n_run, " resumed); tiers ",
               out.totals.exact, " exact / ", out.totals.refresh,
               " refresh / ", out.totals.full, " full");
  return out;
}

}  // namespace qfr::traj
