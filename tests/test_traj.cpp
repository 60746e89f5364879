// Tests of the trajectory streaming subsystem (qfr::traj): XYZ trajectory
// parsing (including the malformed-input edge cases), the seeded jitter
// generator's determinism, tolerance-tiered reuse (exact / refresh / full
// classification and its parity against direct computes), artifact-path
// decoration, the JSONL spectrum series sink's resume semantics, and the
// TrajectoryRunner end to end. TrajSoak.* is the slow seeded 20-frame
// lane (ctest -C soak -L soak).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "qfr/cache/canonical.hpp"
#include "qfr/cache/store.hpp"
#include "qfr/chem/molecule.hpp"
#include "qfr/chem/xyz_io.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/common/units.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/obs/json.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/qframan/workflow.hpp"
#include "qfr/traj/frame_source.hpp"
#include "qfr/traj/runner.hpp"
#include "qfr/traj/tiered_engine.hpp"
#include "scratch_path.hpp"

namespace qfr::traj {
namespace {

using chem::Molecule;

frag::BioSystem water_cluster(std::size_t n) {
  frag::BioSystem sys;
  Rng rng(11);
  for (std::size_t i = 0; i < n; ++i)
    sys.waters.push_back(chem::make_water(
        {static_cast<double>(8 * (i % 8)), static_cast<double>(8 * (i / 8)),
         0.0},
        rng.uniform(0, 6.28)));
  return sys;
}

std::string temp_path(const std::string& name) {
  return scratch_path("qfr_traj_" + name);
}

// ---------------------------------------------------------------------
// XYZ trajectory reading.
// ---------------------------------------------------------------------

TEST(XyzTrajectory, ReadsWriteXyzFramesBackInBohr) {
  const Molecule w0 = chem::make_water({0, 0, 0}, 0.3);
  const Molecule w1 = chem::make_water({1.5, -2.0, 0.5}, 1.1);
  std::stringstream ss;
  chem::write_xyz(ss, w0, "frame zero");
  chem::write_xyz(ss, w1, "frame one");

  XyzTrajectoryReader reader(ss);
  const std::optional<Frame> f0 = reader.next();
  const std::optional<Frame> f1 = reader.next();
  ASSERT_TRUE(f0 && f1);
  EXPECT_FALSE(reader.next());

  EXPECT_EQ(f0->index, 0u);
  EXPECT_EQ(f1->index, 1u);
  EXPECT_EQ(f0->comment, "frame zero");
  ASSERT_EQ(f0->positions.size(), 3u);
  ASSERT_EQ(f0->elements.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f0->elements[i], w0.atom(i).element);
    EXPECT_NEAR((f0->positions[i] - w0.atom(i).position).norm(), 0.0, 1e-4);
    EXPECT_NEAR((f1->positions[i] - w1.atom(i).position).norm(), 0.0, 1e-4);
  }
}

TEST(XyzTrajectory, ToleratesCrlfBlankCommentsAndExtraColumns) {
  // CRLF line endings everywhere, a blank comment line, a trailing column
  // after z, and trailing blank lines at EOF.
  std::stringstream ss(
      "3\r\n"
      "\r\n"
      "O 0.0 0.0 0.0 -0.8\r\n"
      "H 0.95 0.0 0.0 0.4\r\n"
      "H 0.0 0.95 0.0 0.4\r\n"
      "\r\n"
      "\r\n");
  XyzTrajectoryReader reader(ss);
  const std::optional<Frame> f = reader.next();
  ASSERT_TRUE(f);
  EXPECT_TRUE(f->comment.empty());
  ASSERT_EQ(f->positions.size(), 3u);
  EXPECT_NEAR(f->positions[1].x, 0.95 * units::kAngstromToBohr, 1e-12);
  EXPECT_FALSE(reader.next());  // trailing blanks are a clean end
}

TEST(XyzTrajectory, RejectsBadCountLines) {
  for (const char* text : {"abc\nc\n", "3 atoms\nc\n", "-1\nc\n", "0\nc\n"}) {
    std::stringstream ss(text);
    XyzTrajectoryReader reader(ss);
    EXPECT_THROW(reader.next(), InvalidArgument) << "input: " << text;
  }
}

TEST(XyzTrajectory, RejectsInconsistentAtomCounts) {
  std::stringstream ss(
      "2\nc\nO 0 0 0\nH 1 0 0\n"
      "3\nc\nO 0 0 0\nH 1 0 0\nH 0 1 0\n");
  XyzTrajectoryReader reader(ss);
  ASSERT_TRUE(reader.next());
  EXPECT_THROW(reader.next(), InvalidArgument);
}

TEST(XyzTrajectory, RejectsTruncatedFinalFrame) {
  // Atom list cut short by EOF.
  {
    std::stringstream ss("2\nc\nO 0 0 0\nH 1 0 0\n3\nc\nO 0 0 0\nH 1 0 0\n");
    XyzTrajectoryReader reader(ss);
    ASSERT_TRUE(reader.next());
    EXPECT_THROW(reader.next(), InvalidArgument);
  }
  // Count with nothing after it: a truncated frame, not a trajectory end.
  {
    std::stringstream ss("3\n");
    XyzTrajectoryReader reader(ss);
    EXPECT_THROW(reader.next(), InvalidArgument);
  }
  // A malformed atom line.
  {
    std::stringstream ss("2\nc\nO 0 0 0\nH 1 zz 0\n");
    XyzTrajectoryReader reader(ss);
    EXPECT_THROW(reader.next(), InvalidArgument);
  }
}

TEST(XyzTrajectory, MissingFileThrows) {
  EXPECT_THROW(XyzTrajectoryReader(temp_path("does_not_exist.xyz")),
               InvalidArgument);
}

// ---------------------------------------------------------------------
// Jitter generator + apply_frame.
// ---------------------------------------------------------------------

TEST(JitterTrajectory, FrameZeroIsTheBaseAndStreamsAreSeedDeterministic) {
  const frag::BioSystem sys = water_cluster(5);
  JitterOptions opts;
  opts.seed = 42;
  opts.n_frames = 4;
  opts.internal_sigma_bohr = 0.02;
  opts.distort_fraction = 0.5;

  JitterTrajectory a(sys, opts), b(sys, opts);
  const Molecule merged = sys.merged();
  for (std::size_t k = 0; k < opts.n_frames; ++k) {
    const std::optional<Frame> fa = a.next(), fb = b.next();
    ASSERT_TRUE(fa && fb);
    ASSERT_EQ(fa->positions.size(), merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      // Bitwise equal across instances: the per-molecule stream depends
      // on (seed, frame, molecule) alone.
      EXPECT_EQ(fa->positions[i].x, fb->positions[i].x);
      EXPECT_EQ(fa->positions[i].y, fb->positions[i].y);
      EXPECT_EQ(fa->positions[i].z, fb->positions[i].z);
      if (k == 0)
        EXPECT_EQ(fa->positions[i].x, merged.atom(i).position.x);
    }
  }
  EXPECT_FALSE(a.next());

  JitterOptions other = opts;
  other.seed = 43;
  JitterTrajectory c(sys, opts), d(sys, other);
  c.next();
  d.next();  // skip frame 0 (base in both)
  const std::optional<Frame> f1c = c.next(), f1d = d.next();
  ASSERT_TRUE(f1c && f1d);
  double diff = 0.0;
  for (std::size_t i = 0; i < merged.size(); ++i)
    diff += (f1c->positions[i] - f1d->positions[i]).norm();
  EXPECT_GT(diff, 1e-6);  // a different seed moves the atoms differently
}

TEST(ApplyFrame, RejectsMismatchedFrames) {
  const frag::BioSystem sys = water_cluster(2);
  Frame f;
  f.positions.assign(3, geom::Vec3{0, 0, 0});  // 3 != 6 atoms
  EXPECT_THROW(apply_frame(sys, f), InvalidArgument);

  const Molecule merged = sys.merged();
  f.positions.clear();
  for (const chem::Atom& a : merged.atoms()) f.positions.push_back(a.position);
  f.elements.assign(merged.size(), merged.atom(0).element);
  f.elements[1] = merged.atom(0).element;  // H slot claims to be O
  EXPECT_THROW(apply_frame(sys, f), InvalidArgument);

  f.elements.pop_back();  // length mismatch
  EXPECT_THROW(apply_frame(sys, f), InvalidArgument);

  f.elements.clear();  // empty element list = trust the template
  const frag::BioSystem out = apply_frame(sys, f);
  EXPECT_EQ(out.n_atoms(), sys.n_atoms());
}

TEST(ApplyFrame, WritesPositionsInMergedOrder) {
  const frag::BioSystem sys = water_cluster(2);
  Frame f;
  f.index = 7;
  for (std::size_t i = 0; i < sys.n_atoms(); ++i)
    f.positions.push_back(
        geom::Vec3{static_cast<double>(i), 0.5, -1.0});
  const frag::BioSystem out = apply_frame(sys, f);
  const Molecule merged = out.merged();
  for (std::size_t i = 0; i < merged.size(); ++i)
    EXPECT_EQ(merged.atom(i).position.x, static_cast<double>(i));
}

// ---------------------------------------------------------------------
// Tolerance-tiered reuse.
// ---------------------------------------------------------------------

TEST(TieredReuse, ClassifiesExactRefreshAndFull) {
  cache::CacheOptions copts;
  copts.enabled = true;
  cache::ResultCache cache(copts);
  const engine::ModelEngine model;
  ReuseOptions ropts;
  ropts.refresh_radius_bohr = 0.05;
  const TieredReuseEngine eng(model, cache, ropts);

  const Molecule base = chem::make_water({0, 0, 0}, 0.4);

  // Cold cache: full compute (and anchor insert).
  const engine::FragmentResult r0 = eng.compute(base);
  EXPECT_EQ(r0.reuse_tier, engine::ReuseTier::kComputed);
  EXPECT_FALSE(r0.cache_hit);
  EXPECT_EQ(eng.counts().full, 1);

  // Rigid translation: exact tier, transported, energy invariant.
  Molecule shifted = base;
  for (std::size_t i = 0; i < shifted.size(); ++i)
    shifted.atom(i).position += geom::Vec3{6.0, -3.0, 1.5};
  const engine::FragmentResult r1 = eng.compute(shifted);
  EXPECT_EQ(r1.reuse_tier, engine::ReuseTier::kExact);
  EXPECT_TRUE(r1.cache_hit);
  EXPECT_EQ(eng.counts().exact, 1);
  EXPECT_NEAR(r1.energy, r0.energy, 1e-9);

  // Small internal distortion within the radius: perturbative refresh,
  // close to the direct compute (the surrogate here IS the primary, so
  // the only refresh error is the anchor's key quantization).
  Molecule bent = base;
  bent.atom(1).position += geom::Vec3{0.02, 0.01, 0.0};
  const engine::FragmentResult r2 = eng.compute(bent);
  EXPECT_EQ(r2.reuse_tier, engine::ReuseTier::kRefresh);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_EQ(eng.counts().refresh, 1);
  const engine::FragmentResult direct = model.compute(bent);
  EXPECT_NEAR(r2.energy, direct.energy, 1e-3);
  ASSERT_EQ(r2.hessian.rows(), direct.hessian.rows());
  double worst = 0.0;
  for (std::size_t i = 0; i < r2.hessian.rows(); ++i)
    for (std::size_t j = 0; j < r2.hessian.cols(); ++j)
      worst = std::max(worst,
                       std::abs(r2.hessian(i, j) - direct.hessian(i, j)));
  EXPECT_LT(worst, 1e-2);

  // A refreshed result must never become an anchor: the distorted
  // geometry's key stays absent from the cache.
  const cache::Canonicalization c =
      cache::canonicalize(bent, copts.tolerance, model.name());
  EXPECT_FALSE(cache.probe(c).has_value());

  // Distortion beyond the radius: full recompute (new anchor planted).
  Molecule broken = base;
  broken.atom(1).position += geom::Vec3{0.4, 0.0, 0.0};
  const engine::FragmentResult r3 = eng.compute(broken);
  EXPECT_EQ(r3.reuse_tier, engine::ReuseTier::kComputed);
  EXPECT_EQ(eng.counts().full, 2);
  EXPECT_NEAR(r3.energy, model.compute(broken).energy, 1e-12);
}

TEST(TieredReuse, RejectedRefreshFallsThroughToFullCompute) {
  cache::CacheOptions copts;
  copts.enabled = true;
  cache::ResultCache cache(copts);
  const engine::ModelEngine model;
  const fault::FragmentResultValidator validator;
  ReuseOptions ropts;
  ropts.refresh_radius_bohr = 0.05;
  ropts.validator = &validator;
  const TieredReuseEngine eng(model, cache, ropts);

  // Plant a corrupted anchor: a finite but asymmetric Hessian passes the
  // insert path (no filter installed) but any refresh built on it must
  // fail the symmetry gate.
  const Molecule base = chem::make_water({0, 0, 0});
  engine::FragmentResult poisoned = model.compute(base);
  poisoned.hessian(0, 1) += 1.0;
  ASSERT_TRUE(cache.insert(model.name(), base, poisoned));

  Molecule bent = base;
  bent.atom(2).position += geom::Vec3{0.015, 0.0, 0.0};
  const engine::FragmentResult r = eng.compute(bent);
  // The refresh candidate was built, rejected by the gate, and the
  // fragment recomputed fully — correctness over reuse.
  EXPECT_EQ(r.reuse_tier, engine::ReuseTier::kComputed);
  EXPECT_EQ(eng.counts().refresh, 0);
  EXPECT_EQ(eng.counts().refresh_rejected, 1);
  EXPECT_EQ(eng.counts().full, 1);
  EXPECT_NEAR(r.energy, model.compute(bent).energy, 1e-12);
}

TEST(TieredReuse, EmitsPerTierMetrics) {
  obs::Session session;
  obs::ScopedSession scope(&session);
  cache::CacheOptions copts;
  copts.enabled = true;
  cache::ResultCache cache(copts);
  const engine::ModelEngine model;
  const TieredReuseEngine eng(model, cache, {});

  const Molecule base = chem::make_water({0, 0, 0});
  eng.compute(base);   // full
  eng.compute(base);   // exact (same geometry)
  Molecule bent = base;
  bent.atom(1).position += geom::Vec3{0.01, 0.0, 0.0};
  eng.compute(bent);   // refresh

  auto& m = session.metrics();
  EXPECT_EQ(m.counter("qfr.traj.tier_full").value(), 1);
  EXPECT_EQ(m.counter("qfr.traj.tier_exact").value(), 1);
  EXPECT_EQ(m.counter("qfr.traj.tier_refresh").value(), 1);
  // The shared cache publishes per-namespace hit/miss counters too.
  EXPECT_EQ(m.counter("qfr.cache.misses{ns=model}").value(), 1);
}

// Regression: the runtime dispatches fragments through the topology-
// tagged compute so the model surrogate uses the fragmentation's
// explicit bond list. A wrapped engine (tiered reuse) must not fall back
// to geometric bond perception — on a strongly distorted water the two
// disagree, which once replaced the force field for exactly the
// distorted fragments and bent their spectra away from the cold
// baseline.
TEST(TieredReuse, FullComputesUseTheFragmentTopologyNotPerception) {
  frag::BioSystem sys = water_cluster(3);
  // Stretch one O-H well past the covalent perception cutoff; the
  // builder's topology still calls it a bond.
  Molecule& w = sys.waters[1];
  w.atom(1).position += (w.atom(1).position - w.atom(0).position) * 1.6;

  qframan::WorkflowOptions wopts;
  wopts.fragmentation.include_two_body = false;
  wopts.n_leaders = 1;
  wopts.omega_points = 200;

  cache::CacheOptions copts;
  copts.enabled = true;
  cache::ResultCache cache(copts);
  const engine::ModelEngine model;
  const TieredReuseEngine tiered(model, cache, {});

  // Fresh cache: every fragment takes the full tier, so the only thing
  // under test is how the full compute reaches the model engine.
  const qframan::WorkflowResult streamed =
      qframan::RamanWorkflow(wopts).run(sys, tiered);
  const qframan::WorkflowResult cold = qframan::RamanWorkflow(wopts).run(sys);
  ASSERT_EQ(streamed.spectrum.intensity.size(),
            cold.spectrum.intensity.size());
  for (std::size_t i = 0; i < cold.spectrum.intensity.size(); ++i)
    EXPECT_NEAR(streamed.spectrum.intensity[i], cold.spectrum.intensity[i],
                1e-9 + 1e-6 * std::fabs(cold.spectrum.intensity[i]))
        << i;
}

// ---------------------------------------------------------------------
// Artifact-path decoration (the reused-options overwrite fix).
// ---------------------------------------------------------------------

TEST(ArtifactSuffix, DecoratesBeforeTheExtension) {
  using qframan::decorate_artifact_path;
  EXPECT_EQ(decorate_artifact_path("run.json", ".frame3"),
            "run.frame3.json");
  EXPECT_EQ(decorate_artifact_path("out/run.v2.json", ".f0"),
            "out/run.v2.f0.json");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(decorate_artifact_path("dir.d/run", ".f0"), "dir.d/run.f0");
  EXPECT_EQ(decorate_artifact_path("run.json", ""), "run.json");
  EXPECT_EQ(decorate_artifact_path("", ".f0"), "");
}

TEST(ArtifactSuffix, FramesOfOneOptionsObjectDoNotOverwriteArtifacts) {
  const std::string report = temp_path("overwrite_report.json");
  TrajectoryOptions topts;
  topts.workflow.fragmentation.include_two_body = false;
  topts.workflow.n_leaders = 1;
  topts.workflow.omega_points = 200;
  topts.workflow.report_path = report;

  const frag::BioSystem sys = water_cluster(3);
  JitterOptions jopts;
  jopts.n_frames = 2;
  JitterTrajectory frames(sys, jopts);
  const TrajectoryResult res = TrajectoryRunner(topts).run(sys, frames);
  ASSERT_EQ(res.frames.size(), 2u);

  // One report per frame, not one report overwritten twice.
  const std::string p0 = qframan::decorate_artifact_path(report, ".frame0");
  const std::string p1 = qframan::decorate_artifact_path(report, ".frame1");
  EXPECT_TRUE(std::ifstream(p0).good()) << p0;
  EXPECT_TRUE(std::ifstream(p1).good()) << p1;
  EXPECT_FALSE(std::ifstream(report).good()) << report;
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

// ---------------------------------------------------------------------
// JSONL spectrum series sink.
// ---------------------------------------------------------------------

FrameSummary tiny_summary(std::size_t k) {
  FrameSummary f;
  f.frame = k;
  f.comment = "frame " + std::to_string(k);
  f.wall_seconds = 0.25 * static_cast<double>(k + 1);
  f.n_fragments = 3;
  f.tiers.exact = static_cast<std::int64_t>(k);
  f.tiers.full = 3 - static_cast<std::int64_t>(k);
  f.spectrum.omega_cm = {100.0, 200.0, 300.0};
  f.spectrum.intensity = {0.1, 0.5, 0.2};
  return f;
}

TEST(JsonlSpectrumSink, StreamsOneValidJsonObjectPerFrame) {
  const std::string path = temp_path("series_basic.jsonl");
  {
    JsonlSpectrumSink sink(path);
    sink.on_frame(tiny_summary(0));
    sink.on_frame(tiny_summary(1));
  }
  std::ifstream is(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(is, line)) {
    const std::optional<obs::Json> j = obs::Json::parse(line);
    ASSERT_TRUE(j) << line;
    EXPECT_EQ(j->find("schema")->as_string(), "qfr.traj.frame.v1");
    EXPECT_EQ(j->find("frame")->as_double(), static_cast<double>(n));
    ++n;
  }
  EXPECT_EQ(n, 2u);
  std::remove(path.c_str());
}

TEST(JsonlSpectrumSink, ResumeDropsTheTornTailAndKeepsCompleteFrames) {
  const std::string path = temp_path("series_resume.jsonl");
  {
    JsonlSpectrumSink sink(path);
    sink.on_frame(tiny_summary(0));
    sink.on_frame(tiny_summary(1));
  }
  {
    // The frame in flight at a kill: a torn, unparseable final line.
    std::ofstream os(path, std::ios::app);
    os << "{\"schema\":\"qfr.traj.frame.v1\",\"frame\":2,\"wall_se";
  }
  JsonlSpectrumSink sink(path, /*resume=*/true);
  ASSERT_EQ(sink.restored().size(), 2u);
  EXPECT_EQ(sink.restored()[0].frame, 0u);
  EXPECT_EQ(sink.restored()[1].frame, 1u);
  EXPECT_TRUE(sink.restored()[0].resumed);
  EXPECT_EQ(sink.restored()[1].tiers.exact, 1);
  EXPECT_EQ(sink.restored()[1].spectrum.omega_cm.size(), 3u);

  // The file was rewritten to a clean frame boundary and appends work.
  sink.on_frame(tiny_summary(2));
  std::ifstream is(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(is, line)) {
    ASSERT_TRUE(obs::Json::parse(line)) << line;
    ++n;
  }
  EXPECT_EQ(n, 3u);
  std::remove(path.c_str());
}

// The series stores doubles as their shortest round-trip text, so a
// restored frame is bitwise the frame that was computed.
TEST(JsonlSpectrumSink, RestoredFrameIsBitwiseTheWrittenFrame) {
  const std::string path = temp_path("series_exact.jsonl");
  FrameSummary f = tiny_summary(0);
  f.wall_seconds = 1.0 / 3.0;
  f.spectrum.omega_cm = {100.0 / 3.0, 2.0 / 7.0, 1e3 * std::sqrt(2.0),
                         -1.0 / 7.0, 5e-324, 1.7976931348623157e308};
  f.spectrum.intensity = {1.0 / 3.0, 2.0 / 7.0, 0.1 + 0.2, 1e-17 / 3.0,
                          6.02214076e23, 123456789.0};
  f.ir_spectrum.omega_cm = {std::acos(-1.0)};
  f.ir_spectrum.intensity = {std::exp(1.0)};
  {
    JsonlSpectrumSink sink(path);
    sink.on_frame(f);
  }
  JsonlSpectrumSink sink(path, /*resume=*/true);
  ASSERT_EQ(sink.restored().size(), 1u);
  const FrameSummary& r = sink.restored()[0];
  const auto bitwise = [](const std::vector<double>& a,
                          const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  EXPECT_EQ(std::memcmp(&r.wall_seconds, &f.wall_seconds, sizeof(double)), 0);
  EXPECT_TRUE(bitwise(r.spectrum.omega_cm, f.spectrum.omega_cm));
  EXPECT_TRUE(bitwise(r.spectrum.intensity, f.spectrum.intensity));
  EXPECT_TRUE(bitwise(r.ir_spectrum.omega_cm, f.ir_spectrum.omega_cm));
  EXPECT_TRUE(bitwise(r.ir_spectrum.intensity, f.ir_spectrum.intensity));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// TrajectoryRunner end to end.
// ---------------------------------------------------------------------

TEST(TrajectoryRunner, RigidFramesCollapseToExactReuse) {
  TrajectoryOptions topts;
  topts.workflow.fragmentation.include_two_body = false;
  topts.workflow.n_leaders = 1;
  topts.workflow.omega_points = 300;

  const frag::BioSystem sys = water_cluster(4);
  JitterOptions jopts;
  jopts.seed = 3;
  jopts.n_frames = 3;  // rigid motion only: every revisit is an exact hit
  JitterTrajectory frames(sys, jopts);

  const TrajectoryResult res = TrajectoryRunner(topts).run(sys, frames);
  ASSERT_EQ(res.frames.size(), 3u);
  // All four waters share one internal geometry, so frame 0 pays exactly
  // one full compute (the other three alias its canonical key); every
  // later fragment transports.
  EXPECT_EQ(res.frames[0].tiers.full, 1);
  EXPECT_EQ(res.frames[0].tiers.exact, 3);
  for (std::size_t k = 1; k < 3; ++k) {
    EXPECT_EQ(res.frames[k].tiers.exact, 4) << "frame " << k;
    EXPECT_EQ(res.frames[k].tiers.full, 0) << "frame " << k;
    EXPECT_FALSE(res.frames[k].spectrum.intensity.empty());
  }
  EXPECT_EQ(res.totals.full, 1);
  EXPECT_EQ(res.totals.exact, 11);
  EXPECT_GE(res.cache_stats.hits, 0);
}

TEST(TrajectoryRunner, ResumeSkipsFramesAlreadyInTheSeries) {
  const std::string path = temp_path("runner_resume.jsonl");
  std::remove(path.c_str());
  TrajectoryOptions topts;
  topts.workflow.fragmentation.include_two_body = false;
  topts.workflow.n_leaders = 1;
  topts.workflow.omega_points = 200;
  topts.series_path = path;

  const frag::BioSystem sys = water_cluster(3);
  JitterOptions jopts;
  jopts.seed = 9;
  jopts.n_frames = 4;

  // First run: only the first two frames.
  topts.max_frames = 2;
  {
    JitterTrajectory frames(sys, jopts);
    const TrajectoryResult r = TrajectoryRunner(topts).run(sys, frames);
    ASSERT_EQ(r.frames.size(), 2u);
  }

  // Resume: frames 0-1 restore from the series, 2-3 run.
  topts.max_frames = 4;
  topts.resume = true;
  JitterTrajectory frames(sys, jopts);
  const TrajectoryResult r = TrajectoryRunner(topts).run(sys, frames);
  ASSERT_EQ(r.frames.size(), 4u);
  EXPECT_TRUE(r.frames[0].resumed);
  EXPECT_TRUE(r.frames[1].resumed);
  EXPECT_FALSE(r.frames[2].resumed);
  EXPECT_FALSE(r.frames[3].resumed);
  // Totals cover only the frames actually run in this invocation.
  EXPECT_EQ(r.totals.total(),
            r.frames[2].tiers.total() + r.frames[3].tiers.total());

  // The series file now holds all four frames, in order, parseable.
  std::ifstream is(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(is, line)) {
    const std::optional<obs::Json> j = obs::Json::parse(line);
    ASSERT_TRUE(j) << line;
    EXPECT_EQ(j->find("frame")->as_double(), static_cast<double>(n));
    ++n;
  }
  EXPECT_EQ(n, 4u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Soak lane: the seeded 20-frame mixed-tier trajectory.
// ---------------------------------------------------------------------

double spectrum_rel_l2(const spectra::RamanSpectrum& a,
                       const spectra::RamanSpectrum& b) {
  EXPECT_EQ(a.intensity.size(), b.intensity.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.intensity.size(); ++i) {
    const double d = a.intensity[i] - b.intensity[i];
    num += d * d;
    den += a.intensity[i] * a.intensity[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

TEST(TrajSoak, TwentyFrameJitterIsDeterministicAndMatchesFullRecompute) {
  TrajectoryOptions topts;
  topts.workflow.fragmentation.include_two_body = false;
  topts.workflow.n_leaders = 1;  // sequential sweep: bitwise determinism
  topts.workflow.omega_points = 400;
  topts.workflow.sigma_cm = 20.0;
  topts.reuse.refresh_radius_bohr = 0.05;

  const frag::BioSystem sys = water_cluster(12);
  JitterOptions jopts;
  jopts.seed = 2026;
  jopts.n_frames = 20;
  jopts.rigid_sigma_bohr = 0.08;
  jopts.rigid_rot_sigma_rad = 0.04;
  jopts.internal_sigma_bohr = 0.008;  // refresh population
  jopts.distort_fraction = 0.3;
  jopts.large_sigma_bohr = 0.3;  // full-recompute population
  jopts.large_fraction = 0.15;

  const auto stream = [&] {
    JitterTrajectory frames(sys, jopts);
    return TrajectoryRunner(topts).run(sys, frames);
  };
  const TrajectoryResult a = stream();
  const TrajectoryResult b = stream();

  // Deterministic: identical tier assignment per frame across runs.
  ASSERT_EQ(a.frames.size(), 20u);
  ASSERT_EQ(b.frames.size(), 20u);
  for (std::size_t k = 0; k < 20; ++k) {
    EXPECT_EQ(a.frames[k].tiers.exact, b.frames[k].tiers.exact) << k;
    EXPECT_EQ(a.frames[k].tiers.refresh, b.frames[k].tiers.refresh) << k;
    EXPECT_EQ(a.frames[k].tiers.full, b.frames[k].tiers.full) << k;
    EXPECT_EQ(spectrum_rel_l2(a.frames[k].spectrum, b.frames[k].spectrum),
              0.0)
        << k;
  }

  // The mix exercises every tier: frame 0 pays one full compute (all 12
  // waters share an internal geometry), later frames are dominated by
  // reuse with a refresh and full population mixed in.
  EXPECT_EQ(a.frames[0].tiers.full, 1);
  EXPECT_EQ(a.frames[0].tiers.exact, 11);
  EXPECT_GT(a.totals.exact, 0);
  EXPECT_GT(a.totals.refresh, 0);
  EXPECT_GT(a.totals.full, 1);
  const double reuse =
      static_cast<double>(a.totals.exact + a.totals.refresh) /
      static_cast<double>(a.totals.total());
  EXPECT_GT(reuse, 0.5);

  // Parity: every streamed frame matches a cold full recompute within
  // the documented refresh error bound (DESIGN.md: first order in the
  // refresh radius; 5% relative L2 on the broadened spectrum).
  qframan::WorkflowOptions wopts = topts.workflow;
  JitterTrajectory frames(sys, jopts);
  for (std::size_t k = 0; k < 20; ++k) {
    const std::optional<Frame> f = frames.next();
    ASSERT_TRUE(f);
    const qframan::WorkflowResult cold =
        qframan::RamanWorkflow(wopts).run(apply_frame(sys, *f));
    EXPECT_LT(spectrum_rel_l2(cold.spectrum, a.frames[k].spectrum), 0.05)
        << "frame " << k;
  }
}

}  // namespace
}  // namespace qfr::traj
