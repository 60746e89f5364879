#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "qfr/chem/molecule.hpp"
#include "qfr/common/error.hpp"
#include "qfr/engine/fallback_chain.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/fault/corrupting_sink.hpp"
#include "qfr/fault/fault_injector.hpp"
#include "qfr/fault/faulty_engine.hpp"
#include "qfr/fault/validator.hpp"
#include "qfr/frag/assembly.hpp"
#include "qfr/frag/checkpoint.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "scratch_path.hpp"

namespace qfr::fault {
namespace {

constexpr double kNanV = std::numeric_limits<double>::quiet_NaN();

engine::FragmentResult water_result(double x = 0.0) {
  engine::ModelEngine eng;
  return eng.compute(chem::make_water({x, 0, 0}));
}

frag::BioSystem spread_waters(int n) {
  frag::BioSystem sys;
  for (int i = 0; i < n; ++i)
    sys.waters.push_back(chem::make_water({20.0 * i, 0, 0}));
  return sys;
}

// ---------------------------------------------------------------- injector

TEST(FaultInjector, TargetedRuleFiresUntilBudgetExhausted) {
  FaultPlan plan;
  plan.rules.push_back({FaultKind::kNan, /*fragment_id=*/3,
                        /*probability=*/1.0, /*max_hits=*/2});
  FaultInjector inj(plan);
  EXPECT_EQ(inj.draw(3, FaultSite::kEngine).kind, FaultKind::kNan);
  EXPECT_EQ(inj.draw(3, FaultSite::kEngine).kind, FaultKind::kNan);
  EXPECT_EQ(inj.draw(3, FaultSite::kEngine).kind, FaultKind::kNone);
  // Other fragments never match a targeted rule.
  EXPECT_EQ(inj.draw(1, FaultSite::kEngine).kind, FaultKind::kNone);
  EXPECT_EQ(inj.n_injected(), 2u);
  EXPECT_EQ(inj.n_injected(FaultKind::kNan), 2u);
  EXPECT_EQ(inj.n_injected(FaultKind::kThrow), 0u);
}

TEST(FaultInjector, SitesHaveIndependentStreamsAndBudgets) {
  FaultPlan plan;
  plan.rules.push_back({FaultKind::kThrow, 2});
  plan.rules.push_back({FaultKind::kBitFlip, 2, 1.0, /*max_hits=*/1});
  FaultInjector inj(plan);
  // The checkpoint rule never fires at the engine site and vice versa.
  EXPECT_EQ(inj.draw(2, FaultSite::kEngine).kind, FaultKind::kThrow);
  EXPECT_EQ(inj.draw(2, FaultSite::kCheckpoint).kind, FaultKind::kBitFlip);
  EXPECT_EQ(inj.draw(2, FaultSite::kCheckpoint).kind, FaultKind::kNone);
  EXPECT_EQ(inj.draw(2, FaultSite::kEngine).kind, FaultKind::kThrow);
}

TEST(FaultInjector, ProbabilisticDrawsAreKeyedNotOrdered) {
  // Decisions depend on (fragment id, occurrence), never on the global
  // interleaving, so two injectors fed the same per-fragment sequences in
  // different global orders agree draw-for-draw.
  FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back({FaultKind::kDelay, kAnyFragment,
                        /*probability=*/0.4, /*max_hits=*/
                        static_cast<std::size_t>(-1), /*delay_seconds=*/1.5});
  FaultInjector a(plan), b(plan);
  constexpr std::size_t kFrags = 8, kOcc = 5;
  FaultKind drawn_a[kFrags][kOcc];
  for (std::size_t f = 0; f < kFrags; ++f)      // fragment-major order
    for (std::size_t o = 0; o < kOcc; ++o)
      drawn_a[f][o] = a.draw(f, FaultSite::kEngine).kind;
  std::size_t fired = 0;
  for (std::size_t o = 0; o < kOcc; ++o)        // occurrence-major order
    for (std::size_t f = 0; f < kFrags; ++f) {
      const Fault fb = b.draw(f, FaultSite::kEngine);
      EXPECT_EQ(drawn_a[f][o], fb.kind) << "fragment " << f << " occ " << o;
      if (fb.kind == FaultKind::kDelay) {
        EXPECT_DOUBLE_EQ(fb.delay_seconds, 1.5);
        ++fired;
      }
    }
  // p = 0.4 over 40 draws: some fire, some do not.
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, kFrags * kOcc);
  EXPECT_EQ(a.n_injected(), b.n_injected());
}

TEST(FaultInjector, ZeroProbabilityNeverFires) {
  FaultPlan plan;
  plan.rules.push_back({FaultKind::kThrow, kAnyFragment, /*probability=*/0.0});
  FaultInjector inj(plan);
  for (std::size_t f = 0; f < 16; ++f)
    EXPECT_EQ(inj.draw(f, FaultSite::kEngine).kind, FaultKind::kNone);
  EXPECT_EQ(inj.n_injected(), 0u);
}

TEST(FaultInjector, MixIsDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 99;
  FaultInjector a(plan), b(plan);
  EXPECT_EQ(a.mix(5, 1), b.mix(5, 1));
  EXPECT_EQ(a.mix(5, 1), a.mix(5, 1));  // no hidden state consumed
  EXPECT_NE(a.mix(5, 1), a.mix(5, 2));
  EXPECT_NE(a.mix(5, 1), a.mix(6, 1));
}

// --------------------------------------------------------------- validator

TEST(Validator, AcceptsCleanModelResult) {
  const FragmentResultValidator v;
  const Validation verdict = v.validate(water_result());
  EXPECT_TRUE(verdict.ok) << verdict.reason;
  EXPECT_TRUE(verdict.reason.empty());
}

TEST(Validator, AcceptsEmptyResult) {
  // A default-constructed result (e.g. an energy-only engine) carries no
  // matrices; every matrix check is skipped.
  const FragmentResultValidator v;
  EXPECT_TRUE(v.validate(engine::FragmentResult{}).ok);
}

TEST(Validator, RejectTable) {
  const FragmentResultValidator v;

  engine::FragmentResult nan_energy = water_result();
  nan_energy.energy = kNanV;
  EXPECT_EQ(v.validate(nan_energy).reason, "non-finite energy");

  engine::FragmentResult nan_hessian = water_result();
  nan_hessian.hessian(0, 0) = kNanV;
  EXPECT_EQ(v.validate(nan_hessian).reason, "non-finite entries in hessian");

  engine::FragmentResult inf_dalpha = water_result();
  inf_dalpha.dalpha(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(v.validate(inf_dalpha).reason, "non-finite entries in dalpha");

  engine::FragmentResult asym = water_result();
  asym.hessian(0, 5) += 1.0;  // break H = H^T
  const Validation verdict = v.validate(asym);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.reason.find("Hessian symmetry"), std::string::npos);
  EXPECT_GT(verdict.symmetry_residual, 0.0);

  engine::FragmentResult asr = water_result();
  for (std::size_t i = 0; i < asr.hessian.rows(); ++i)
    asr.hessian(i, i) += 10.0;  // symmetric, but translations now cost
  const Validation averdict = v.validate(asr);
  EXPECT_FALSE(averdict.ok);
  EXPECT_NE(averdict.reason.find("acoustic-sum-rule"), std::string::npos);

  engine::FragmentResult alpha_asym = water_result();
  alpha_asym.alpha(0, 1) += 1.0;
  EXPECT_NE(v.validate(alpha_asym).reason.find("alpha symmetry"),
            std::string::npos);
}

// ------------------------------------------------------------ faulty engine

TEST(FaultyEngine, AppliesDrawnFaults) {
  const engine::ModelEngine inner;
  FaultPlan plan;
  plan.rules.push_back({FaultKind::kThrow, 0, 1.0, 1});
  plan.rules.push_back({FaultKind::kTimeout, 1, 1.0, 1});
  plan.rules.push_back({FaultKind::kNan, 2, 1.0, 1});
  plan.rules.push_back({FaultKind::kSignFlip, 3, 1.0, 1});
  FaultInjector inj(plan);
  const FaultyEngine eng(inner, inj);
  const chem::Molecule w = chem::make_water({0, 0, 0});
  EXPECT_EQ(eng.name(), "model+faults");

  EXPECT_THROW(eng.compute(0, w), InternalError);
  EXPECT_THROW(eng.compute(1, w), TimeoutError);

  const engine::FragmentResult nan_res = eng.compute(2, w);
  EXPECT_TRUE(std::isnan(nan_res.hessian(0, 0)));

  const FragmentResultValidator v;
  const engine::FragmentResult flipped = eng.compute(3, w);
  EXPECT_FALSE(v.validate(flipped).ok);

  // Budgets exhausted: every fragment now computes cleanly.
  for (std::size_t f = 0; f < 4; ++f)
    EXPECT_TRUE(v.validate(eng.compute(f, w)).ok) << "fragment " << f;
  EXPECT_EQ(inj.n_injected(), 4u);
}

// ------------------------------------------- degradation ladder end to end

// The acceptance scenario: a persistent NaN-Hessian fault on one fragment
// is caught by the validator, retried, degraded to the fallback engine,
// and the final assembly never sees a non-finite entry.
TEST(Degradation, NanFragmentDegradesToFallbackAndAssemblyStaysFinite) {
  const frag::BioSystem sys = spread_waters(6);
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);
  ASSERT_EQ(fr.fragments.size(), 6u);

  const engine::ModelEngine inner;
  FaultPlan plan;
  plan.rules.push_back({FaultKind::kNan, /*fragment_id=*/2});  // persistent
  FaultInjector inj(plan);
  const FaultyEngine faulty(inner, inj);

  const FragmentResultValidator validator;
  engine::EngineFallbackChain chain;
  chain.push_back(std::make_unique<engine::ModelEngine>());

  runtime::RuntimeOptions opts;
  opts.n_leaders = 2;
  opts.max_retries = 1;
  opts.abort_on_failure = false;
  opts.validator = &validator;
  opts.fallback_chain = &chain;
  const runtime::MasterRuntime rt(std::move(opts));
  const runtime::RunReport report = rt.run(fr.fragments, faulty);

  EXPECT_EQ(report.n_failed(), 0u);
  EXPECT_EQ(report.n_degraded(), 1u);
  // Level 0 ran initial attempt + one retry, both poisoned; the fallback
  // engine then delivered.
  EXPECT_EQ(inj.n_injected(FaultKind::kNan), 2u);

  const runtime::FragmentOutcome& o = report.outcomes[2];
  EXPECT_TRUE(o.completed);
  EXPECT_TRUE(o.degraded());
  EXPECT_EQ(o.engine_level, 1u);
  EXPECT_EQ(o.engine, "model");  // the accepting engine, not model+faults
  EXPECT_EQ(o.reason, runtime::FailureReason::kInvalidResult);
  EXPECT_NE(o.error.find("validator"), std::string::npos);
  EXPECT_EQ(o.attempts, 3u);

  // Healthy fragments stayed on the primary engine.
  for (std::size_t f = 0; f < 6; ++f) {
    if (f == 2) continue;
    EXPECT_TRUE(report.outcomes[f].completed);
    EXPECT_EQ(report.outcomes[f].engine_level, 0u) << "fragment " << f;
    EXPECT_EQ(report.outcomes[f].engine, "model+faults");
  }

  // The poisoned result never reaches the accepted set or the assembly.
  for (const auto& r : report.results)
    EXPECT_TRUE(validator.validate(r).ok);
  const auto global =
      frag::assemble_global_properties(sys, fr.fragments, report.results);
  const la::Matrix h = global.hessian_mw.to_dense();
  for (std::size_t k = 0; k < h.size(); ++k)
    ASSERT_TRUE(std::isfinite(h.data()[k]));
}

TEST(Degradation, TransientThrowRetriedOnPrimaryWithoutDegrading) {
  const frag::BioSystem sys = spread_waters(3);
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);

  const engine::ModelEngine inner;
  FaultPlan plan;
  plan.rules.push_back({FaultKind::kThrow, 1, 1.0, /*max_hits=*/2});
  FaultInjector inj(plan);
  const FaultyEngine faulty(inner, inj);

  const FragmentResultValidator validator;
  engine::EngineFallbackChain chain;
  chain.push_back(std::make_unique<engine::ModelEngine>());

  runtime::RuntimeOptions opts;
  opts.n_leaders = 2;
  opts.max_retries = 2;
  opts.abort_on_failure = false;
  opts.validator = &validator;
  opts.fallback_chain = &chain;
  const runtime::MasterRuntime rt(std::move(opts));
  const runtime::RunReport report = rt.run(fr.fragments, faulty);

  EXPECT_EQ(report.n_failed(), 0u);
  EXPECT_EQ(report.n_degraded(), 0u);
  const runtime::FragmentOutcome& o = report.outcomes[1];
  EXPECT_TRUE(o.completed);
  EXPECT_EQ(o.engine_level, 0u);  // budget absorbed the transient fault
  EXPECT_EQ(o.attempts, 3u);
  EXPECT_TRUE(o.error.empty());
  EXPECT_EQ(o.reason, runtime::FailureReason::kNone);
}

TEST(Degradation, NoFallbackChainMeansPermanentFailure) {
  const frag::BioSystem sys = spread_waters(3);
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);

  const engine::ModelEngine inner;
  FaultPlan plan;
  plan.rules.push_back({FaultKind::kNan, 0});  // persistent
  FaultInjector inj(plan);
  const FaultyEngine faulty(inner, inj);
  const FragmentResultValidator validator;

  runtime::RuntimeOptions opts;
  opts.n_leaders = 2;
  opts.max_retries = 1;
  opts.abort_on_failure = false;
  opts.validator = &validator;
  const runtime::MasterRuntime rt(std::move(opts));
  const runtime::RunReport report = rt.run(fr.fragments, faulty);

  EXPECT_EQ(report.n_failed(), 1u);
  EXPECT_FALSE(report.outcomes[0].completed);
  EXPECT_EQ(report.outcomes[0].reason,
            runtime::FailureReason::kInvalidResult);
}

TEST(Degradation, ResumedFragmentsAreNotRedispatchedToFallbackEngines) {
  // Checkpoint-resume x fallback-chain: a fragment that degraded in run 1
  // and was checkpointed must come back as a resumed result — never be
  // dispatched again, not even to the engine it degraded to.
  const frag::BioSystem sys = spread_waters(6);
  const frag::Fragmentation fr = frag::fragment_biosystem(sys);
  ASSERT_EQ(fr.fragments.size(), 6u);
  const std::string path = "resume_fallback_ckpt.bin";
  std::remove(path.c_str());

  const engine::ModelEngine inner;
  FaultPlan plan;
  plan.rules.push_back({FaultKind::kNan, /*fragment_id=*/2});  // persistent
  const FragmentResultValidator validator;

  // Run 1: fragment 2 degrades to the fallback; every result checkpointed.
  {
    FaultInjector inj(plan);
    const FaultyEngine faulty(inner, inj);
    engine::EngineFallbackChain chain;
    chain.push_back(std::make_unique<engine::ModelEngine>());
    frag::CheckpointSink sink(path);
    runtime::RuntimeOptions opts;
    opts.n_leaders = 2;
    opts.max_retries = 1;
    opts.abort_on_failure = false;
    opts.validator = &validator;
    opts.fallback_chain = &chain;
    opts.sink = &sink;
    const runtime::MasterRuntime rt(std::move(opts));
    const runtime::RunReport rep = rt.run(fr.fragments, faulty);
    ASSERT_EQ(rep.n_failed(), 0u);
    ASSERT_EQ(rep.n_degraded(), 1u);
    ASSERT_TRUE(rep.outcomes[2].degraded());
  }

  // Interrupted-run resume: fragments 0-3 (including the degraded 2) are
  // restored from the checkpoint; 4 and 5 must be recomputed.
  const frag::CheckpointReport scan = frag::scan_checkpoint_file(path);
  ASSERT_EQ(scan.n_corrupt, 0u);
  std::vector<std::size_t> completed;
  for (const std::size_t id : scan.fragment_ids)
    if (id <= 3) completed.push_back(id);
  ASSERT_EQ(completed.size(), 4u);

  FaultInjector inj2(plan);  // same plan: frag 2 would degrade again...
  const FaultyEngine faulty2(inner, inj2);
  engine::EngineFallbackChain chain2;
  chain2.push_back(std::make_unique<engine::ModelEngine>());
  runtime::RuntimeOptions opts;
  opts.n_leaders = 2;
  opts.max_retries = 1;
  opts.abort_on_failure = false;
  opts.validator = &validator;
  opts.fallback_chain = &chain2;
  opts.completed_ids = completed;
  const runtime::MasterRuntime rt(std::move(opts));
  const runtime::RunReport rep = rt.run(fr.fragments, faulty2);

  EXPECT_EQ(rep.n_resumed, 4u);
  EXPECT_EQ(rep.n_failed(), 0u);
  EXPECT_EQ(rep.n_degraded(), 0u);
  // ...but it is never dispatched, so the fault never fires.
  EXPECT_EQ(inj2.n_injected(FaultKind::kNan), 0u);
  for (const auto& task : rep.task_log)
    for (const std::size_t id : task)
      EXPECT_GE(id, 4u) << "resumed fragment re-dispatched";

  // Resumed fragments report a consistent checkpoint provenance; the two
  // recomputed ones ran on the primary engine as usual.
  for (std::size_t id = 0; id <= 3; ++id) {
    EXPECT_TRUE(rep.outcomes[id].completed);
    EXPECT_TRUE(rep.outcomes[id].from_checkpoint);
    EXPECT_EQ(rep.outcomes[id].engine, "checkpoint");
    EXPECT_EQ(rep.outcomes[id].engine_level, 0u);
    EXPECT_EQ(rep.outcomes[id].attempts, 0u);
  }
  for (std::size_t id = 4; id <= 5; ++id) {
    EXPECT_TRUE(rep.outcomes[id].completed);
    EXPECT_FALSE(rep.outcomes[id].from_checkpoint);
    EXPECT_EQ(rep.outcomes[id].engine, "model+faults");
    EXPECT_EQ(rep.outcomes[id].engine_level, 0u);
    EXPECT_GE(rep.outcomes[id].attempts, 1u);
  }
  std::remove(path.c_str());
}

// --------------------------------------------------------- corrupting sink

TEST(CorruptingSink, BitFlipLosesExactlyThatRecord) {
  const std::string path = scratch_path("qfr_fault_bitflip_test.bin");
  FaultPlan plan;
  plan.rules.push_back({FaultKind::kBitFlip, 1, 1.0, /*max_hits=*/1});
  FaultInjector inj(plan);

  const engine::FragmentResult r0 = water_result(0.0);
  const engine::FragmentResult r1 = water_result(10.0);
  const engine::FragmentResult r2 = water_result(20.0);
  {
    CorruptingCheckpointSink sink(path, inj);
    sink.on_result(0, r0);
    sink.on_result(1, r1);
    sink.on_result(2, r2);
    EXPECT_FALSE(sink.dead());
    EXPECT_EQ(sink.n_written(), 3u);
  }
  EXPECT_EQ(inj.n_injected(FaultKind::kBitFlip), 1u);

  const frag::CheckpointReport scan = frag::scan_checkpoint_file(path);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.n_corrupt, 1u);
  ASSERT_EQ(scan.corrupt_ids.size(), 1u);
  EXPECT_EQ(scan.corrupt_ids[0], 1u);
  // The flanking records survive intact.
  ASSERT_EQ(scan.fragment_ids.size(), 2u);
  EXPECT_EQ(scan.fragment_ids[0], 0u);
  EXPECT_EQ(scan.fragment_ids[1], 2u);
  EXPECT_DOUBLE_EQ(scan.results[0].energy, r0.energy);
  EXPECT_DOUBLE_EQ(scan.results[1].energy, r2.energy);
}

TEST(CorruptingSink, TruncationDropsTailAndKillsSink) {
  const std::string path = scratch_path("qfr_fault_truncate_test.bin");
  FaultPlan plan;
  plan.rules.push_back({FaultKind::kTruncate, 1});
  FaultInjector inj(plan);

  const engine::FragmentResult r0 = water_result(0.0);
  {
    CorruptingCheckpointSink sink(path, inj);
    sink.on_result(0, r0);
    sink.on_result(1, water_result(10.0));
    EXPECT_TRUE(sink.dead());
    sink.on_result(2, water_result(20.0));  // dead sink: dropped
    EXPECT_EQ(sink.n_written(), 2u);
  }

  const frag::CheckpointReport scan = frag::scan_checkpoint_file(path);
  EXPECT_TRUE(scan.truncated);
  EXPECT_EQ(scan.n_corrupt, 0u);
  ASSERT_EQ(scan.fragment_ids.size(), 1u);
  EXPECT_EQ(scan.fragment_ids[0], 0u);
  EXPECT_DOUBLE_EQ(scan.results[0].energy, r0.energy);
}

// A fault plan reproduces the same corruption bit-for-bit across runs.
TEST(CorruptingSink, CorruptionIsDeterministic) {
  const std::string a = scratch_path("qfr_fault_det_a.bin");
  const std::string b = scratch_path("qfr_fault_det_b.bin");
  FaultPlan plan;
  plan.seed = 31;
  plan.rules.push_back({FaultKind::kBitFlip, 0, 1.0, 1});
  for (const std::string& path : {a, b}) {
    FaultInjector inj(plan);
    CorruptingCheckpointSink sink(path, inj);
    sink.on_result(0, water_result(0.0));
    sink.on_result(1, water_result(10.0));
  }
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_EQ(frag::scan_checkpoint_file(a).corrupt_ids,
            frag::scan_checkpoint_file(b).corrupt_ids);
}

}  // namespace
}  // namespace qfr::fault
