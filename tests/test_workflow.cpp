#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "qfr/chem/protein.hpp"
#include "qfr/common/error.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/fault/fault_injector.hpp"
#include "qfr/fault/faulty_engine.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/obs/json.hpp"
#include "qfr/part/policy.hpp"
#include "qfr/qframan/workflow.hpp"
#include "scratch_path.hpp"

namespace qfr::qframan {
namespace {

frag::BioSystem water_cluster(std::size_t n) {
  frag::BioSystem sys;
  Rng rng(5);
  for (std::size_t i = 0; i < n; ++i)
    sys.waters.push_back(chem::make_water(
        {static_cast<double>(7 * (i % 10)), static_cast<double>(7 * (i / 10)),
         0.0},
        rng.uniform(0, 6.28)));
  return sys;
}

frag::BioSystem protein_system(std::size_t n_residues, std::uint64_t seed) {
  frag::BioSystem sys;
  chem::ProteinBuildOptions opts;
  opts.n_residues = n_residues;
  opts.seed = seed;
  sys.chains.push_back(chem::build_synthetic_protein(opts));
  return sys;
}

double peak_location(const spectra::RamanSpectrum& s, double lo, double hi) {
  double best = 0.0, best_x = lo;
  for (std::size_t i = 0; i < s.omega_cm.size(); ++i) {
    if (s.omega_cm[i] < lo || s.omega_cm[i] > hi) continue;
    if (s.intensity[i] > best) {
      best = s.intensity[i];
      best_x = s.omega_cm[i];
    }
  }
  return best_x;
}

double band_integral(const spectra::RamanSpectrum& s, double lo, double hi) {
  double acc = 0.0;
  for (std::size_t i = 1; i < s.omega_cm.size(); ++i) {
    const double x = s.omega_cm[i];
    if (x < lo || x > hi) continue;
    acc += s.intensity[i] * (s.omega_cm[i] - s.omega_cm[i - 1]);
  }
  return acc;
}

TEST(Workflow, WaterClusterBandsAtBendAndStretch) {
  WorkflowOptions opts;
  opts.sigma_cm = 20.0;
  RamanWorkflow wf(opts);
  const WorkflowResult res = wf.run(water_cluster(12));
  EXPECT_EQ(res.fragmentation_stats.n_waters, 12u);
  // O-H stretch band dominates near 3400-3700 in the model engine.
  const double stretch = peak_location(res.spectrum, 2500, 4000);
  EXPECT_GT(stretch, 3200.0);
  EXPECT_LT(stretch, 3800.0);
  // Bend band present.
  EXPECT_GT(band_integral(res.spectrum, 1300, 2100), 0.0);
}

TEST(Workflow, ProteinSpectrumHasChStretchBand) {
  WorkflowOptions opts;
  opts.sigma_cm = 5.0;  // the paper's gas-phase smearing
  RamanWorkflow wf(opts);
  const WorkflowResult res = wf.run(protein_system(20, 3));
  // C-H stretch region ~2900 must carry intensity (Fig. 12's marker band).
  const double ch = band_integral(res.spectrum, 2700, 3100);
  EXPECT_GT(ch, 0.0);
  const double total = band_integral(res.spectrum, 10, 4000);
  EXPECT_GT(ch / total, 0.02);
}

TEST(Workflow, LanczosMatchesExactSolver) {
  frag::BioSystem sys = protein_system(8, 7);
  WorkflowOptions exact_opts;
  exact_opts.solver = SolverKind::kExact;
  exact_opts.sigma_cm = 25.0;
  const WorkflowResult exact = RamanWorkflow(exact_opts).run(sys);

  WorkflowOptions lz_opts = exact_opts;
  lz_opts.solver = SolverKind::kLanczosGagq;
  lz_opts.lanczos_steps = 220;
  const WorkflowResult lz = RamanWorkflow(lz_opts).run(sys);
  ASSERT_TRUE(lz.used_lanczos);
  ASSERT_FALSE(exact.used_lanczos);

  // Broadened spectra agree to a small relative L2 error.
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < exact.spectrum.intensity.size(); ++i) {
    const double d = exact.spectrum.intensity[i] - lz.spectrum.intensity[i];
    num += d * d;
    den += exact.spectrum.intensity[i] * exact.spectrum.intensity[i];
  }
  EXPECT_LT(std::sqrt(num / den), 0.08);
}

TEST(Workflow, GagqBeatsPlainLanczosAtFewSteps) {
  frag::BioSystem sys = protein_system(8, 7);
  WorkflowOptions exact_opts;
  exact_opts.solver = SolverKind::kExact;
  exact_opts.sigma_cm = 30.0;
  const auto exact = RamanWorkflow(exact_opts).run(sys);

  auto l2err = [&](SolverKind solver, int steps) {
    WorkflowOptions o = exact_opts;
    o.solver = solver;
    o.lanczos_steps = steps;
    const auto r = RamanWorkflow(o).run(sys);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < exact.spectrum.intensity.size(); ++i) {
      const double d = exact.spectrum.intensity[i] - r.spectrum.intensity[i];
      num += d * d;
      den += exact.spectrum.intensity[i] * exact.spectrum.intensity[i];
    }
    return std::sqrt(num / den);
  };
  double err_gagq = 0.0, err_plain = 0.0;
  for (int steps : {40, 60, 80}) {
    err_gagq += l2err(SolverKind::kLanczosGagq, steps);
    err_plain += l2err(SolverKind::kLanczos, steps);
  }
  EXPECT_LT(err_gagq, err_plain * 1.02);
}

TEST(Workflow, RunReportCountsLanczosStepsAndReorthogonalizations) {
  const std::string report_path =
      scratch_path("qfr_workflow_lanczos_report.json");
  WorkflowOptions opts;
  opts.solver = SolverKind::kLanczosGagq;
  opts.lanczos_steps = 60;
  opts.sigma_cm = 25.0;
  opts.report_path = report_path;
  const WorkflowResult res = RamanWorkflow(opts).run(protein_system(8, 7));
  ASSERT_TRUE(res.used_lanczos);

  std::ifstream rf(report_path);
  ASSERT_TRUE(rf.good()) << report_path;
  std::stringstream rbuf;
  rbuf << rf.rdbuf();
  const auto report = obs::Json::parse(rbuf.str());
  ASSERT_TRUE(report.has_value());
  const obs::Json* counters = report->find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::Json* steps = counters->find("spectra.lanczos.steps");
  const obs::Json* reorth = counters->find("spectra.lanczos.reorthogonalized");
  ASSERT_NE(steps, nullptr);
  ASSERT_NE(reorth, nullptr);
  // Seven Raman recurrences (trace + six tensor rows) of 60 steps each on
  // a 426-dimensional Hessian: no breakdown, every step counted.
  EXPECT_EQ(steps->as_double(), 7.0 * 60.0);
  EXPECT_GT(reorth->as_double(), 0.0);
  EXPECT_LT(reorth->as_double(), 0.5 * steps->as_double());
  std::remove(report_path.c_str());
  std::remove((report_path + ".outcomes.csv").c_str());
}

TEST(Workflow, AutoSolverSwitchesOnSize) {
  // Small: exact; large: Lanczos.
  WorkflowOptions opts;
  const auto small = RamanWorkflow(opts).run(water_cluster(4));
  EXPECT_FALSE(small.used_lanczos);
  const auto big = RamanWorkflow(opts).run(water_cluster(80));
  EXPECT_TRUE(big.used_lanczos);
}

TEST(Workflow, ScfHfEngineEndToEndOnWaters) {
  // Two isolated waters through the full ab initio path.
  frag::BioSystem sys;
  sys.waters.push_back(chem::make_water({0, 0, 0}));
  sys.waters.push_back(chem::make_water({25.0, 0, 0}));
  WorkflowOptions opts;
  opts.engine = EngineKind::kScfHf;
  opts.sigma_cm = 30.0;
  opts.omega_max_cm = 5000.0;  // HF/STO-3G stretches overshoot to ~4100+
  const WorkflowResult res = RamanWorkflow(opts).run(sys);
  // Three HF/STO-3G vibrations per water; stretch bands way up at ~4100+.
  const double stretch = peak_location(res.spectrum, 3000, 4800);
  EXPECT_GT(stretch, 3600.0);
  EXPECT_GT(band_integral(res.spectrum, 1500, 2600), 0.0);  // bend region
}

TEST(Workflow, BatchedAndEagerGemmProduceTheSameSpectrum) {
  // Refactor seam for the batched-GEMM executor: with batching off, the
  // whole ab initio pipeline falls back to eager per-product execution,
  // and the spectrum must agree with the batched run to 1e-10.
  frag::BioSystem sys;
  sys.waters.push_back(chem::make_water({0, 0, 0}));
  WorkflowOptions opts;
  opts.engine = EngineKind::kScfHf;
  opts.sigma_cm = 30.0;
  opts.omega_max_cm = 5000.0;
  opts.batched_gemm = true;
  const WorkflowResult batched = RamanWorkflow(opts).run(sys);
  opts.batched_gemm = false;
  const WorkflowResult eager = RamanWorkflow(opts).run(sys);
  ASSERT_EQ(batched.spectrum.intensity.size(),
            eager.spectrum.intensity.size());
  double scale = 0.0;
  for (const double v : batched.spectrum.intensity)
    scale = std::max(scale, std::fabs(v));
  ASSERT_GT(scale, 0.0);
  for (std::size_t i = 0; i < batched.spectrum.intensity.size(); ++i)
    EXPECT_NEAR(batched.spectrum.intensity[i], eager.spectrum.intensity[i],
                1e-10 * scale)
        << "omega bin " << i;
}

TEST(Workflow, InvalidOptionsRejected) {
  WorkflowOptions opts;
  opts.omega_points = 1;
  EXPECT_THROW(RamanWorkflow{opts}, InvalidArgument);
  WorkflowOptions opts2;
  opts2.omega_max_cm = -5.0;
  EXPECT_THROW(RamanWorkflow{opts2}, InvalidArgument);
}

TEST(Workflow, DeterministicAcrossRuns) {
  // Same system + options -> bitwise-identical spectra (no hidden global
  // randomness anywhere in the pipeline).
  const frag::BioSystem sys = protein_system(6, 77);
  WorkflowOptions opts;
  opts.sigma_cm = 15.0;
  const auto a = RamanWorkflow(opts).run(sys);
  const auto b = RamanWorkflow(opts).run(sys);
  ASSERT_EQ(a.spectrum.intensity.size(), b.spectrum.intensity.size());
  for (std::size_t i = 0; i < a.spectrum.intensity.size(); ++i)
    EXPECT_DOUBLE_EQ(a.spectrum.intensity[i], b.spectrum.intensity[i]);
}

TEST(Workflow, EmptySystemRejected) {
  RamanWorkflow wf;
  EXPECT_THROW(wf.run(frag::BioSystem{}), InvalidArgument);
}

// The graceful-degradation accounting end to end: a persistent NaN fault
// on one fragment is caught by the validator and degrades to the model
// fallback, and the workflow result names the fragment, the reason, and
// the accepting engine.
TEST(Workflow, DegradedFragmentReportedAndSpectrumStaysFinite) {
  const frag::BioSystem sys = water_cluster(4);

  fault::FaultPlan plan;
  plan.rules.push_back({fault::FaultKind::kNan, /*fragment_id=*/1});
  fault::FaultInjector injector(plan);
  const engine::ModelEngine inner;
  const fault::FaultyEngine faulty(inner, injector);

  WorkflowOptions opts;
  opts.sigma_cm = 20.0;
  opts.max_retries = 1;
  opts.enable_fallback = true;  // kModel ladder: the model surrogate
  const RamanWorkflow wf(opts);
  const WorkflowResult res = wf.run(sys, faulty);

  EXPECT_EQ(res.sweep.n_degraded, 1u);
  EXPECT_EQ(res.sweep.n_failed, 0u);
  const runtime::FragmentOutcome& o = res.sweep.outcomes[1];
  EXPECT_TRUE(o.completed);
  EXPECT_EQ(o.engine_level, 1u);
  EXPECT_EQ(o.engine, "model");
  EXPECT_EQ(o.reason, runtime::FailureReason::kInvalidResult);
  for (const double v : res.spectrum.intensity) ASSERT_TRUE(std::isfinite(v));
}

TEST(Workflow, DroppedFragmentsNeedExplicitOptIn) {
  const frag::BioSystem sys = water_cluster(4);
  fault::FaultPlan plan;
  plan.rules.push_back({fault::FaultKind::kNan, 1});

  WorkflowOptions opts;
  opts.sigma_cm = 20.0;
  opts.max_retries = 0;  // no fallback chain: the fragment is lost
  {
    fault::FaultInjector injector(plan);
    const engine::ModelEngine inner;
    const fault::FaultyEngine faulty(inner, injector);
    EXPECT_THROW(RamanWorkflow(opts).run(sys, faulty), NumericalError);
  }

  // Opting in completes the sweep minus that fragment and says so.
  opts.allow_dropped_fragments = true;
  fault::FaultInjector injector(plan);
  const engine::ModelEngine inner;
  const fault::FaultyEngine faulty(inner, injector);
  const WorkflowResult res = RamanWorkflow(opts).run(sys, faulty);
  EXPECT_EQ(res.sweep.n_failed, 1u);
  EXPECT_FALSE(res.sweep.outcomes[1].completed);
  for (const double v : res.spectrum.intensity) ASSERT_TRUE(std::isfinite(v));
}

// Decorator engine for the checkpoint/resume tests: counts compute calls
// and (optionally) starts failing after the first `fail_after` of them.
class FlakyCountingEngine final : public engine::FragmentEngine {
 public:
  explicit FlakyCountingEngine(int fail_after = -1)
      : fail_after_(fail_after) {}

  engine::FragmentResult compute(const chem::Molecule& mol) const override {
    const int k = count_.fetch_add(1);
    if (fail_after_ >= 0 && k >= fail_after_)
      throw std::runtime_error("injected node loss");
    return inner_.compute(mol);
  }
  std::string name() const override { return "flaky-model"; }
  int computes() const { return count_.load(); }

 private:
  engine::ModelEngine inner_;
  int fail_after_ = -1;
  mutable std::atomic<int> count_{0};
};

TEST(Workflow, CheckpointResumeRecomputesOnlyMissingFragments) {
  const frag::BioSystem sys = water_cluster(8);
  const std::string path = scratch_path("qfr_workflow_resume_test.bin");
  WorkflowOptions opts;
  opts.sigma_cm = 20.0;
  opts.n_leaders = 1;  // serial dispatch: deterministic failure point
  opts.max_retries = 0;
  opts.checkpoint_path = path;

  // First run dies after three fragments: the workflow reports the
  // failure but the completed prefix is already on disk.
  {
    const FlakyCountingEngine eng(/*fail_after=*/3);
    const RamanWorkflow wf(opts);
    EXPECT_THROW(wf.run(sys, eng), NumericalError);
  }

  // Resume recomputes exactly the missing fragments (the system
  // fragments into waters plus water-water pair concaps, so the count
  // comes from the report, not from the molecule count).
  const FlakyCountingEngine eng;
  opts.resume = true;
  const RamanWorkflow wf(opts);
  const WorkflowResult res = wf.run(sys, eng);
  const std::size_t n_fragments = res.sweep.n_fragments;
  ASSERT_GT(n_fragments, 3u);
  EXPECT_EQ(eng.computes(), static_cast<int>(n_fragments) - 3);
  EXPECT_EQ(res.sweep.n_resumed, 3u);
  for (const auto& o : res.sweep.outcomes) EXPECT_TRUE(o.completed);

  // The stitched spectrum is bitwise identical to an uninterrupted run
  // through the same engine path.
  const FlakyCountingEngine clean_eng;
  WorkflowOptions clean_opts = opts;
  clean_opts.checkpoint_path.clear();
  clean_opts.resume = false;
  const WorkflowResult clean = RamanWorkflow(clean_opts).run(sys, clean_eng);
  EXPECT_EQ(clean_eng.computes(), static_cast<int>(n_fragments));
  ASSERT_EQ(res.spectrum.intensity.size(), clean.spectrum.intensity.size());
  for (std::size_t i = 0; i < res.spectrum.intensity.size(); ++i)
    EXPECT_DOUBLE_EQ(res.spectrum.intensity[i], clean.spectrum.intensity[i]);

  // After the resumed run the checkpoint holds all eight fragments, so a
  // further resume recomputes nothing.
  const FlakyCountingEngine idle_eng;
  const WorkflowResult again = RamanWorkflow(opts).run(sys, idle_eng);
  EXPECT_EQ(idle_eng.computes(), 0);
  EXPECT_EQ(again.sweep.n_resumed, n_fragments);
}

TEST(Workflow, ResumeUnderAnotherFragmentationRecomputesMisshapenRecords) {
  const frag::BioSystem sys = water_cluster(8);
  const std::string path = scratch_path("qfr_workflow_refragment_test.bin");
  const std::string report_path =
      scratch_path("qfr_workflow_refragment_report.json");
  WorkflowOptions opts;
  opts.sigma_cm = 20.0;
  opts.n_leaders = 1;
  opts.checkpoint_path = path;
  {
    // Run 1 checkpoints every fragment of the MFCC decomposition.
    const engine::ModelEngine eng;
    RamanWorkflow(opts).run(sys, eng);
  }

  // Resume under a graph partition: the checkpoint's ids now name
  // fragments of other sizes, so their records do not fit.
  WorkflowOptions graph = opts;
  graph.fragmentation.policy = frag::PolicyKind::kGraphPartition;
  graph.fragmentation.n_parts = 2;
  graph.resume = true;
  graph.report_path = report_path;
  const frag::Fragmentation before =
      part::fragment_system(sys, opts.fragmentation);
  const frag::Fragmentation after =
      part::fragment_system(sys, graph.fragmentation);
  std::size_t n_misshapen = 0;
  for (std::size_t id = 0; id < after.fragments.size(); ++id)
    if (before.fragments[id].n_atoms() != after.fragments[id].n_atoms())
      ++n_misshapen;
  ASSERT_EQ(n_misshapen, after.fragments.size());

  const FlakyCountingEngine eng;
  const WorkflowResult res = RamanWorkflow(graph).run(sys, eng);
  EXPECT_EQ(res.sweep.n_corrupt_records, n_misshapen);
  EXPECT_EQ(res.sweep.n_resumed, 0u);
  EXPECT_EQ(eng.computes(), static_cast<int>(n_misshapen));

  // The recomputed spectrum is bitwise the uninterrupted one.
  WorkflowOptions clean_opts = graph;
  clean_opts.checkpoint_path.clear();
  clean_opts.report_path.clear();
  clean_opts.resume = false;
  const FlakyCountingEngine clean_eng;
  const WorkflowResult clean = RamanWorkflow(clean_opts).run(sys, clean_eng);
  ASSERT_EQ(res.spectrum.intensity.size(), clean.spectrum.intensity.size());
  for (std::size_t i = 0; i < res.spectrum.intensity.size(); ++i)
    EXPECT_EQ(res.spectrum.intensity[i], clean.spectrum.intensity[i]);

  // The run report shows what the checkpoint lost.
  std::ifstream rf(report_path);
  ASSERT_TRUE(rf.good()) << report_path;
  std::stringstream rbuf;
  rbuf << rf.rdbuf();
  const auto report = obs::Json::parse(rbuf.str());
  ASSERT_TRUE(report.has_value());
  const obs::Json* counters = report->find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("frag.checkpoint.restored"), nullptr);
  EXPECT_EQ(counters->find("frag.checkpoint.restored")->as_double(), 0.0);
  ASSERT_NE(counters->find("frag.checkpoint.corrupt_records"), nullptr);
  EXPECT_EQ(counters->find("frag.checkpoint.corrupt_records")->as_double(),
            static_cast<double>(n_misshapen));
  std::remove(path.c_str());
  std::remove(report_path.c_str());
  std::remove((path + ".outcomes.csv").c_str());
}

// Observability acceptance: an instrumented ab initio run leaves behind
// (a) a Chrome trace that parses and contains per-fragment DFPT phase
// spans, (b) a run report whose four-phase decomposition covers the
// CPSCF solve time, and (c) the per-fragment outcome CSV.
TEST(Workflow, ObservabilityArtifactsFromScfHfRun) {
  frag::BioSystem sys;
  sys.waters.push_back(chem::make_water({0, 0, 0}));
  sys.waters.push_back(chem::make_water({25.0, 0, 0}));
  const std::string trace_path = scratch_path("qfr_workflow_obs_trace.json");
  const std::string report_path = scratch_path("qfr_workflow_obs_report.json");
  WorkflowOptions opts;
  opts.engine = EngineKind::kScfHf;
  opts.sigma_cm = 30.0;
  opts.omega_max_cm = 5000.0;
  opts.trace_path = trace_path;
  opts.report_path = report_path;
  const WorkflowResult res = RamanWorkflow(opts).run(sys);
  ASSERT_GT(res.sweep.n_fragments, 0u);

  // (a) The trace is loadable JSON covering every pipeline phase plus the
  // per-fragment engine and DFPT spans.
  std::ifstream tf(trace_path);
  ASSERT_TRUE(tf.good()) << trace_path;
  std::stringstream tbuf;
  tbuf << tf.rdbuf();
  std::string err;
  const auto trace = obs::Json::parse(tbuf.str(), &err);
  ASSERT_TRUE(trace.has_value()) << err;
  const obs::Json* events = trace->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::map<std::string, int> span_count;
  for (std::size_t i = 0; i < events->size(); ++i)
    ++span_count[events->at(i).find("name")->as_string()];
  for (const char* required :
       {"workflow.fragmentation", "workflow.sweep", "workflow.assembly",
        "workflow.solve", "leader.task", "fragment.compute", "scf.solve",
        "cpscf.solve", "dfpt.p1", "dfpt.v1", "dfpt.h1"})
    EXPECT_GE(span_count[required], 1) << "missing span: " << required;
  // One compute span per fragment on this clean run.
  EXPECT_EQ(span_count["fragment.compute"],
            static_cast<int>(res.sweep.n_fragments));

  // (b) The run report is valid JSON with the documented schema, and the
  // CPSCF phase decomposition accounts for the solve time (each solver
  // iteration is p1 + induced-Fock work, so the sum must nearly cover the
  // whole-solve histogram).
  std::ifstream rf(report_path);
  ASSERT_TRUE(rf.good()) << report_path;
  std::stringstream rbuf;
  rbuf << rf.rdbuf();
  const auto report = obs::Json::parse(rbuf.str(), &err);
  ASSERT_TRUE(report.has_value()) << err;
  EXPECT_EQ(report->find("schema")->as_string(), "qfr.run_report.v1");
  const obs::Json* dfpt = report->find("dfpt");
  ASSERT_NE(dfpt, nullptr);
  const double phase_sum = dfpt->find("phases")->find("sum_seconds")->as_double();
  const double solve_seconds = dfpt->find("solve_seconds")->as_double();
  ASSERT_GT(solve_seconds, 0.0);
  EXPECT_GT(phase_sum, 0.0);
  EXPECT_NEAR(phase_sum, solve_seconds, 0.05 * solve_seconds);
  EXPECT_GT(report->find("scf")->find("solve_seconds")->as_double(), 0.0);
  const obs::Json* sched = report->find("scheduler");
  ASSERT_NE(sched, nullptr);
  EXPECT_DOUBLE_EQ(sched->find("n_tasks")->as_double(),
                   static_cast<double>(res.n_tasks));
  ASSERT_NE(report->find("leaders"), nullptr);
  EXPECT_GT(report->find("leaders")->size(), 0u);

  // (c) The outcome CSV (next to the report: no checkpoint configured)
  // has the documented header and one completed row per fragment.
  std::ifstream csv(report_path + ".outcomes.csv");
  ASSERT_TRUE(csv.good());
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line,
            "fragment_id,completed,engine,engine_level,reason,attempts,"
            "rejections,fault_retries,from_checkpoint,cache_hit,"
            "reuse_tier,wall_seconds,error,policy");
  std::size_t rows = 0;
  while (std::getline(csv, line)) {
    if (line.empty()) continue;
    ++rows;
    EXPECT_NE(line.find(",1,"), std::string::npos) << line;  // completed
    // Partition provenance: every row names the fragmentation policy.
    EXPECT_EQ(line.substr(line.size() - 5), ",mfcc") << line;
  }
  EXPECT_EQ(rows, res.sweep.n_fragments);
}

}  // namespace
}  // namespace qfr::qframan
