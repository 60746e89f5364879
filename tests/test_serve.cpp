#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "qfr/chem/molecule.hpp"
#include "qfr/chem/protein.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/fault/chaos.hpp"
#include "qfr/obs/json.hpp"
#include "qfr/qframan/workflow.hpp"
#include "qfr/serve/server.hpp"
#include "scratch_path.hpp"

namespace qfr::serve {
namespace {

frag::BioSystem water_cluster(std::size_t n, std::uint64_t seed = 5) {
  frag::BioSystem sys;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    sys.waters.push_back(chem::make_water(
        {static_cast<double>(7 * (i % 10)), static_cast<double>(7 * (i / 10)),
         0.0},
        rng.uniform(0, 6.28)));
  return sys;
}

SpectrumRequest water_request(std::size_t n, std::uint64_t seed = 5) {
  SpectrumRequest req;
  req.system = water_cluster(n, seed);
  req.sigma_cm = 20.0;
  req.omega_points = 400;
  return req;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ---------------------------------------------------------------------------
// Admission control (pure, clock-agnostic)

TEST(TokenBucket, RefillsAtRateUpToBurst) {
  TokenBucket bucket({/*rate=*/10.0, /*burst=*/2.0});
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.try_acquire(0.0));  // burst spent
  EXPECT_FALSE(bucket.try_acquire(0.05)); // only half a token back
  EXPECT_TRUE(bucket.try_acquire(0.1));   // one token refilled
  // A long idle period refills to the cap, not beyond.
  EXPECT_TRUE(bucket.try_acquire(100.0));
  EXPECT_TRUE(bucket.try_acquire(100.0));
  EXPECT_FALSE(bucket.try_acquire(100.0));
}

TEST(Admission, HardCapShedBandAndQuotasInOrder) {
  AdmissionOptions opts;
  opts.max_pending = 4;
  opts.shed_fraction = 0.5;  // shed band starts at 2 pending
  opts.shed_priority_ceiling = 0;
  opts.tenant_quota = {1000.0, 1000.0};
  AdmissionController adm(opts);
  // Below the shed band everyone gets the primary engine.
  EXPECT_EQ(adm.decide("a", 0, 0, 0.0), AdmitDecision::kAdmit);
  EXPECT_EQ(adm.decide("a", 0, 1, 0.0), AdmitDecision::kAdmit);
  // In the band only sheddable priorities are degraded.
  EXPECT_EQ(adm.decide("a", 0, 2, 0.0), AdmitDecision::kAdmitShed);
  EXPECT_EQ(adm.decide("a", 1, 2, 0.0), AdmitDecision::kAdmit);
  // The hard cap rejects regardless of priority.
  EXPECT_EQ(adm.decide("a", 5, 4, 0.0), AdmitDecision::kOverloaded);
}

TEST(Admission, QuotaIsPerTenantAndRejectionsDoNotConsumeTokens) {
  AdmissionOptions opts;
  opts.max_pending = 2;
  opts.tenant_quota = {/*rate=*/0.0, /*burst=*/1.0};  // one request, ever
  AdmissionController adm(opts);
  EXPECT_EQ(adm.decide("a", 0, 0, 0.0), AdmitDecision::kAdmit);
  EXPECT_EQ(adm.decide("a", 0, 0, 0.0), AdmitDecision::kQuotaExceeded);
  // Tenant b has its own bucket.
  EXPECT_EQ(adm.decide("b", 0, 0, 0.0), AdmitDecision::kAdmit);
  // An overload rejection while a's bucket is empty must not matter — but
  // also a rejection must never have consumed b's remaining tokens.
  EXPECT_EQ(adm.decide("b", 0, 2, 0.0), AdmitDecision::kOverloaded);
  EXPECT_EQ(adm.decide("b", 0, 0, 0.0), AdmitDecision::kQuotaExceeded);
}

// ---------------------------------------------------------------------------
// Server basics

/// Parse a qfr.run_report.v1 document.
obs::Json parse_report(const std::string& text) {
  std::string err;
  std::optional<obs::Json> j = obs::Json::parse(text, &err);
  EXPECT_TRUE(j.has_value()) << err;
  return j.value_or(obs::Json::object());
}

double report_value(const obs::Json& report, std::string_view section,
                    std::string_view key) {
  const obs::Json* s = report.find(section);
  const obs::Json* v = s != nullptr ? s->find(key) : nullptr;
  EXPECT_NE(v, nullptr) << section << "." << key;
  return v != nullptr ? v->as_double() : -1.0;
}

double histogram_count(const obs::Json& report, std::string_view name) {
  const obs::Json* metrics = report.find("metrics");
  const obs::Json* hists =
      metrics != nullptr ? metrics->find("histograms") : nullptr;
  const obs::Json* h = hists != nullptr ? hists->find(name) : nullptr;
  EXPECT_NE(h, nullptr) << name;
  return h != nullptr ? h->find("count")->as_double() : -1.0;
}

/// Metric names of one kind ("counters", "gauges", "histograms") in a
/// run report's registry dump.
std::vector<std::string> metric_names(const obs::Json& report,
                                      std::string_view kind) {
  std::vector<std::string> names;
  const obs::Json* metrics = report.find("metrics");
  const obs::Json* group = metrics != nullptr ? metrics->find(kind) : nullptr;
  EXPECT_NE(group, nullptr) << kind;
  if (group != nullptr)
    for (const auto& [name, value] : group->members()) names.push_back(name);
  return names;
}

/// The same spectrum request through a solo RamanWorkflow and through the
/// serving path (shared pool, per-request scheduler, no cache): the
/// spectra must be bitwise identical and the two run reports must agree.
void expect_serve_matches_workflow(const frag::BioSystem& system,
                                   bool expect_lanczos,
                                   const std::string& tag) {
  const std::string report_path =
      scratch_path("qfr_serve_vs_workflow_" + tag + ".json");
  qframan::WorkflowOptions wopts;
  wopts.sigma_cm = 20.0;
  wopts.omega_points = 400;
  wopts.report_path = report_path;
  const qframan::WorkflowResult solo =
      qframan::RamanWorkflow(wopts).run(system);
  std::string solo_text;
  {
    std::ifstream is(report_path);
    solo_text.assign(std::istreambuf_iterator<char>(is), {});
  }
  std::remove(report_path.c_str());
  std::remove((report_path + ".outcomes.csv").c_str());
  EXPECT_EQ(solo.used_lanczos, expect_lanczos);

  ServerOptions sopts;
  sopts.n_leaders = 2;
  Server server(sopts);
  SpectrumRequest req;
  req.system = system;
  req.sigma_cm = 20.0;
  req.omega_points = 400;
  RequestHandle h = server.submit(req);
  ASSERT_TRUE(h.admitted());
  const RequestOutcome& out = h.wait();
  ASSERT_EQ(out.state, RequestState::kCompleted) << out.error;
  EXPECT_EQ(out.used_lanczos, expect_lanczos);
  ASSERT_EQ(out.spectrum.intensity.size(), solo.spectrum.intensity.size());
  for (std::size_t i = 0; i < out.spectrum.intensity.size(); ++i) {
    EXPECT_EQ(out.spectrum.omega_cm[i], solo.spectrum.omega_cm[i]);
    EXPECT_EQ(out.spectrum.intensity[i], solo.spectrum.intensity[i]) << i;
  }

  const RequestReport& rep = out.report;
  EXPECT_EQ(rep.n_fragments, solo.sweep.n_fragments);
  EXPECT_EQ(rep.n_failed, 0u);
  EXPECT_FALSE(rep.shed);
  EXPECT_GE(rep.started_at, rep.submitted_at);
  EXPECT_GE(rep.finished_at, rep.started_at);
  ASSERT_EQ(rep.outcomes.size(), solo.sweep.outcomes.size());
  for (std::size_t i = 0; i < rep.outcomes.size(); ++i) {
    EXPECT_EQ(rep.outcomes[i].completed, solo.sweep.outcomes[i].completed);
    EXPECT_EQ(rep.outcomes[i].engine, solo.sweep.outcomes[i].engine);
    EXPECT_EQ(rep.outcomes[i].engine_level,
              solo.sweep.outcomes[i].engine_level);
  }

  // Both run reports are qfr.run_report.v1 documents with the same sweep
  // accounting, and both carry the runtime's per-fragment compute
  // histogram: one accepted attempt per fragment.
  const obs::Json served = parse_report(rep.run_report_json);
  const obs::Json workflow = parse_report(solo_text);
  for (const obs::Json* j : {&served, &workflow}) {
    ASSERT_NE(j->find("schema"), nullptr);
    EXPECT_EQ(j->find("schema")->as_string(), "qfr.run_report.v1");
    EXPECT_EQ(histogram_count(*j, "fragment.compute.seconds"),
              static_cast<double>(rep.n_fragments));
  }
  EXPECT_EQ(report_value(served, "run", "n_fragments"),
            report_value(workflow, "run", "n_fragments"));
  EXPECT_EQ(report_value(served, "scheduler", "n_failed"), 0.0);
  // Per-leader load: one entry per leader slot (pool slot for serve),
  // and every fragment was computed by exactly one of them.
  for (const auto& [j, n_slots] :
       {std::pair{&served, sopts.n_leaders},
        std::pair{&workflow, wopts.n_leaders}}) {
    const obs::Json* leaders = j->find("leaders");
    ASSERT_NE(leaders, nullptr);
    ASSERT_EQ(leaders->size(), n_slots);
    double fragments = 0.0;
    for (std::size_t l = 0; l < leaders->size(); ++l)
      fragments += leaders->at(l).find("fragments")->as_double();
    EXPECT_EQ(fragments, report_value(*j, "run", "n_fragments"));
  }

  // One pipeline behind both entry points: the same metric names, the
  // same sweep accounting (wall time aside) and the same partition
  // provenance.
  for (const char* kind : {"counters", "gauges", "histograms"})
    EXPECT_EQ(metric_names(served, kind), metric_names(workflow, kind))
        << kind;
  const obs::Json* served_sched = served.find("scheduler");
  const obs::Json* workflow_sched = workflow.find("scheduler");
  ASSERT_NE(served_sched, nullptr);
  ASSERT_NE(workflow_sched, nullptr);
  EXPECT_EQ(served_sched->size(), workflow_sched->size());
  for (const auto& [key, value] : workflow_sched->members()) {
    if (key == "makespan_seconds") continue;
    const obs::Json* v = served_sched->find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_EQ(v->dump(), value.dump()) << key;
  }
  const obs::Json* served_frag = served.find("fragmentation");
  const obs::Json* workflow_frag = workflow.find("fragmentation");
  ASSERT_NE(served_frag, nullptr);
  ASSERT_NE(workflow_frag, nullptr);
  EXPECT_EQ(served_frag->dump(), workflow_frag->dump());
}

TEST(Serve, CompletesAndMatchesSoloWorkflowBitwise) {
  // 18 atoms: the exact solver branch.
  expect_serve_matches_workflow(water_cluster(6), /*expect_lanczos=*/false,
                                "exact");
}

TEST(Serve, MatchesSoloWorkflowBitwiseOnTheLanczosBranch) {
  // A solvated peptide above 3N = 600: the Lanczos+GAGQ branch.
  frag::BioSystem sys;
  chem::ProteinBuildOptions popts;
  popts.n_residues = 8;
  popts.seed = 7;
  sys.chains.push_back(chem::build_synthetic_protein(popts));
  chem::WaterBoxOptions wbox;
  wbox.edge_angstrom = 20.0;
  wbox.seed = 3;
  sys.waters = chem::build_water_box(wbox, sys.chains[0].mol);
  const geom::Vec3 center = sys.chains[0].mol.centroid();
  std::sort(sys.waters.begin(), sys.waters.end(),
            [&](const chem::Molecule& a, const chem::Molecule& b) {
              return (a.centroid() - center).norm() <
                     (b.centroid() - center).norm();
            });
  ASSERT_GE(sys.waters.size(), 40u);
  sys.waters.resize(40);
  ASSERT_GT(3 * sys.n_atoms(), 600u);
  expect_serve_matches_workflow(sys, /*expect_lanczos=*/true, "lanczos");
}

TEST(Serve, KillDrillRevocationsReachTheRunReport) {
  // A leader-kill drill revokes the leases of the task the pool slot
  // held; the request's run report must count them.
  fault::FaultPlan plan;
  fault::FaultRule kill;
  kill.kind = fault::FaultKind::kLeaderKill;
  kill.fragment_id = 0;  // the kLeader site is keyed on the pool slot
  kill.max_hits = 1;
  plan.rules.push_back(kill);
  fault::FaultInjector injector(plan);
  ServerOptions sopts;
  sopts.n_leaders = 1;
  sopts.fault_injector = &injector;
  Server server(sopts);
  RequestHandle h = server.submit(water_request(6));
  const RequestOutcome& out = h.wait();
  ASSERT_EQ(out.state, RequestState::kCompleted) << out.error;
  EXPECT_EQ(server.stats().leader_crash_drills, 1u);

  // In this fault-free sweep only a revocation re-dispatches a fragment,
  // so the extra attempts are the scheduler's n_revoked().
  EXPECT_EQ(out.report.n_retries, 0u);
  EXPECT_EQ(out.report.n_requeued, 0u);
  std::size_t revoked = 0;
  for (const runtime::FragmentOutcome& o : out.report.outcomes)
    revoked += o.attempts - 1;
  const obs::Json report = parse_report(out.report.run_report_json);
  const double reported =
      report_value(report, "scheduler", "n_leases_revoked");
  EXPECT_GE(reported, 1.0);
  EXPECT_EQ(reported, static_cast<double>(revoked));
}

TEST(Serve, TypedRejectionsUnderOverloadAndQuota) {
  ServerOptions sopts;
  sopts.n_leaders = 1;
  sopts.admission.max_pending = 2;
  sopts.admission.shed_fraction = 2.0;  // disable the shed band here
  sopts.admission.quotas_enabled = false;
  Server server(sopts);
  // Two admitted requests saturate the bound while the single leader
  // works; the third must be rejected kOverloaded, immediately terminal.
  // The backlog requests are heavy (hundreds of fragments) so the leader
  // cannot drain one inside the submit window even on a loaded machine;
  // they are cancelled afterwards instead of computed to completion.
  RequestHandle a = server.submit(water_request(80));
  RequestHandle b = server.submit(water_request(80));
  RequestHandle c = server.submit(water_request(2));
  EXPECT_TRUE(a.admitted());
  EXPECT_TRUE(b.admitted());
  EXPECT_EQ(c.admit_status(), ServeStatus::kOverloaded);
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.state(), RequestState::kRejected);
  EXPECT_EQ(c.outcome().state, RequestState::kRejected);
  EXPECT_FALSE(c.outcome().error.empty());
  // The rejection is counted at submit time, before the backlog drains.
  EXPECT_EQ(server.stats().rejected_overload, 1u);
  a.cancel();
  b.cancel();

  // Quotas: a strict per-tenant bucket rejects the flooder but not the
  // other tenant.
  ServerOptions qopts;
  qopts.n_leaders = 1;
  qopts.admission.max_pending = 16;
  qopts.admission.tenant_quota = {0.0, 2.0};
  Server quota_server(qopts);
  SpectrumRequest req = water_request(2);
  req.tenant = "flood";
  EXPECT_TRUE(quota_server.submit(req).admitted());
  EXPECT_TRUE(quota_server.submit(req).admitted());
  RequestHandle rejected = quota_server.submit(req);
  EXPECT_EQ(rejected.admit_status(), ServeStatus::kQuotaExceeded);
  SpectrumRequest other = water_request(2);
  other.tenant = "polite";
  EXPECT_TRUE(quota_server.submit(other).admitted());
  EXPECT_EQ(quota_server.stats().rejected_quota, 1u);
}

TEST(Serve, ShedsLowPriorityUnderSoftOverloadWithProvenance) {
  ServerOptions sopts;
  sopts.n_leaders = 1;
  sopts.admission.max_pending = 8;
  sopts.admission.shed_fraction = 0.125;  // band opens at 1 pending
  sopts.admission.quotas_enabled = false;
  sopts.enable_fallback = true;  // model chain: level 1 = model surrogate
  Server server(sopts);
  // `first` holds the server one request deep while low and high are
  // submitted: two waters through the ab initio HF engine are seconds of
  // work for the single leader, far beyond the submit window even on a
  // loaded machine, and it is cancelled once both are admitted (the SCF
  // iterations stop on the request token) instead of being computed to
  // completion.
  SpectrumRequest first_req = water_request(2);
  first_req.engine = qframan::EngineKind::kScfHf;
  RequestHandle first = server.submit(first_req);
  ASSERT_TRUE(first.admitted());
  // With one request pending, a low-priority submit is shed while a
  // high-priority one keeps the primary engine.
  RequestHandle low = server.submit(water_request(3));
  SpectrumRequest high_req = water_request(3);
  high_req.priority = 2;
  RequestHandle high = server.submit(high_req);
  ASSERT_TRUE(low.admitted());
  ASSERT_TRUE(high.admitted());
  first.cancel();

  const RequestOutcome& low_out = low.wait();
  const RequestOutcome& high_out = high.wait();
  EXPECT_EQ(first.wait().state, RequestState::kCancelled);
  ASSERT_EQ(low_out.state, RequestState::kCompleted) << low_out.error;
  ASSERT_EQ(high_out.state, RequestState::kCompleted) << high_out.error;
  EXPECT_TRUE(low_out.report.shed);
  EXPECT_GE(low_out.report.engine_level_start, 1u);
  // Shed provenance reaches the per-fragment outcomes too.
  for (const runtime::FragmentOutcome& o : low_out.report.outcomes)
    EXPECT_GE(o.engine_level, 1u);
  EXPECT_FALSE(high_out.report.shed);
  EXPECT_EQ(high_out.report.engine_level_start, 0u);
  EXPECT_GE(server.stats().shed, 1u);
}

TEST(Serve, CrossTenantCacheDedup) {
  ServerOptions sopts;
  sopts.n_leaders = 2;
  sopts.cache.enabled = true;
  Server server(sopts);
  SpectrumRequest a = water_request(5, /*seed=*/11);
  a.tenant = "alice";
  SpectrumRequest b = water_request(5, /*seed=*/11);  // identical geometry
  b.tenant = "bob";
  RequestHandle ha = server.submit(a);
  const RequestOutcome& out_a = ha.wait();
  ASSERT_EQ(out_a.state, RequestState::kCompleted) << out_a.error;
  RequestHandle hb = server.submit(b);
  const RequestOutcome& out_b = hb.wait();
  ASSERT_EQ(out_b.state, RequestState::kCompleted) << out_b.error;
  // Bob's whole sweep is served from Alice's completed work.
  EXPECT_EQ(out_b.report.n_cache_hits, out_b.report.n_fragments);
  ASSERT_NE(server.result_cache(), nullptr);
  EXPECT_GT(server.result_cache()->stats().hits, 0u);
  // Cached results stay physical: spectra agree to tight tolerance,
  // normalized by the peak (the canonical-frame round trip of the cache
  // leaves ~1e-6-relative noise on near-zero bins).
  ASSERT_EQ(out_a.spectrum.intensity.size(), out_b.spectrum.intensity.size());
  double peak = 0.0, max_diff = 0.0;
  for (std::size_t i = 0; i < out_a.spectrum.intensity.size(); ++i) {
    peak = std::max(peak, std::abs(out_a.spectrum.intensity[i]));
    max_diff = std::max(max_diff,
                        std::abs(out_a.spectrum.intensity[i] -
                                 out_b.spectrum.intensity[i]));
  }
  ASSERT_GT(peak, 0.0);
  EXPECT_LT(max_diff / peak, 1e-6);
}

double relative_l2(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double diff = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    diff += (a[i] - b[i]) * (a[i] - b[i]);
    norm += b[i] * b[i];
  }
  return std::sqrt(diff / norm);
}

TEST(Serve, SharedCacheKeepsHfAndLdaResultsApart) {
  // One shared cache, an HF request and then an LDA request for the same
  // water: the LDA sweep must compute its own result, not be served the
  // HF one from the cache, and match a direct LDA workflow run.
  const std::size_t n_waters = 1;
  qframan::WorkflowOptions wopts;
  wopts.engine = qframan::EngineKind::kScfLda;
  wopts.sigma_cm = 20.0;
  wopts.omega_points = 400;
  const qframan::WorkflowResult solo =
      qframan::RamanWorkflow(wopts).run(water_cluster(n_waters));

  ServerOptions sopts;
  sopts.n_leaders = 1;
  sopts.cache.enabled = true;
  Server server(sopts);
  SpectrumRequest hf = water_request(n_waters);
  hf.engine = qframan::EngineKind::kScfHf;
  SpectrumRequest lda = water_request(n_waters);
  lda.engine = qframan::EngineKind::kScfLda;
  RequestHandle h_hf = server.submit(hf);
  const RequestOutcome& out_hf = h_hf.wait();
  ASSERT_EQ(out_hf.state, RequestState::kCompleted) << out_hf.error;
  RequestHandle h_lda = server.submit(lda);
  const RequestOutcome& out_lda = h_lda.wait();
  ASSERT_EQ(out_lda.state, RequestState::kCompleted) << out_lda.error;

  EXPECT_EQ(out_lda.report.n_cache_hits, 0u);
  EXPECT_LT(relative_l2(out_lda.spectrum.intensity, solo.spectrum.intensity),
            1e-6);
  EXPECT_GT(relative_l2(out_lda.spectrum.intensity, out_hf.spectrum.intensity),
            0.1);
}

TEST(Serve, ClientCancelIsPromptAndTerminal) {
  ServerOptions sopts;
  sopts.n_leaders = 1;
  Server server(sopts);
  RequestHandle h = server.submit(water_request(60));
  ASSERT_TRUE(h.admitted());
  sleep_ms(2);
  // On a loaded machine the 2 ms sleep can overshoot the whole request,
  // so the cancel may race completion either way. The contract under
  // test is coherence: cancel() returning true PROMISES a kCancelled
  // outcome; returning false promises the request already reached a
  // different terminal state — never a lost request.
  const bool accepted = h.cancel();
  const RequestOutcome& out = h.wait();
  if (accepted) {
    EXPECT_EQ(out.state, RequestState::kCancelled);
    EXPECT_EQ(server.stats().cancelled, 1u);
  } else {
    EXPECT_EQ(out.state, RequestState::kCompleted);
    EXPECT_EQ(server.stats().completed, 1u);
  }
  EXPECT_FALSE(h.cancel());  // already terminal
  // Cancelled, not abandoned: every fragment is terminal — completed
  // before the cancel or explicitly kCancelled.
  for (const runtime::FragmentOutcome& o : out.report.outcomes)
    EXPECT_TRUE(o.completed ||
                o.reason == runtime::FailureReason::kCancelled)
        << "fragment " << o.fragment_id << " left in limbo";
}

TEST(Serve, DeadlineExpiryCancelsTheSweep) {
  ServerOptions sopts;
  sopts.n_leaders = 1;
  sopts.reaper_interval = 0.001;
  Server server(sopts);
  // The sweep must not be able to outrun the deadline even in a warm
  // process: ~1700 fragments of work against a 2 ms budget.
  SpectrumRequest req = water_request(400);
  req.deadline_seconds = 0.002;
  const double t0 = server.now();
  RequestHandle h = server.submit(req);
  ASSERT_TRUE(h.admitted());
  const RequestOutcome& out = h.wait();
  const double elapsed = server.now() - t0;
  EXPECT_EQ(out.state, RequestState::kDeadlineExpired);
  EXPECT_LT(elapsed, 5.0);  // promptly reaped, not run to completion
  for (const runtime::FragmentOutcome& o : out.report.outcomes)
    EXPECT_TRUE(o.completed ||
                o.reason == runtime::FailureReason::kCancelled);
  EXPECT_EQ(server.stats().deadline_expired, 1u);
}

TEST(Serve, PriorityAndFairShareOrderTheBacklog) {
  ServerOptions sopts;
  sopts.n_leaders = 1;
  sopts.admission.quotas_enabled = false;
  sopts.admission.max_pending = 32;
  Server server(sopts);
  // Build a backlog of low-priority requests, then submit (last) one
  // high-priority request. A blocker first in line (two waters through
  // the ab initio HF engine, seconds of work) keeps the single leader off
  // the backlog while it is submitted, so no low request can finish
  // before the high one arrives; it is cancelled once the high one is
  // admitted.
  SpectrumRequest blocker_req = water_request(2);
  blocker_req.engine = qframan::EngineKind::kScfHf;
  blocker_req.tenant = "bulk";
  RequestHandle blocker = server.submit(blocker_req);
  std::vector<RequestHandle> low;
  for (int i = 0; i < 4; ++i) {
    SpectrumRequest req = water_request(8);
    req.tenant = "bulk";
    low.push_back(server.submit(req));
  }
  SpectrumRequest urgent = water_request(8);
  urgent.tenant = "urgent";
  urgent.priority = 5;
  RequestHandle high = server.submit(urgent);
  ASSERT_TRUE(high.admitted());
  blocker.cancel();
  EXPECT_EQ(blocker.wait().state, RequestState::kCancelled);
  const RequestOutcome& high_out = high.wait();
  ASSERT_EQ(high_out.state, RequestState::kCompleted) << high_out.error;
  std::size_t lows_before_high = 0;
  for (RequestHandle& h : low) {
    const RequestOutcome& o = h.wait();
    ASSERT_EQ(o.state, RequestState::kCompleted) << o.error;
    if (o.report.finished_at <= high_out.report.finished_at)
      ++lows_before_high;
  }
  // The single leader may already be inside at most one low request when
  // the high-priority one arrives; everyone else must yield to it.
  EXPECT_LE(lows_before_high, 1u);
}

TEST(Serve, ShutdownDrainsAndRejectsNewWork) {
  ServerOptions sopts;
  sopts.n_leaders = 2;
  Server server(sopts);
  std::vector<RequestHandle> handles;
  for (int i = 0; i < 3; ++i) handles.push_back(server.submit(water_request(4)));
  server.shutdown(/*drain=*/true);
  for (RequestHandle& h : handles) {
    ASSERT_TRUE(h.done());
    EXPECT_EQ(h.outcome().state, RequestState::kCompleted)
        << h.outcome().error;
  }
  RequestHandle late = server.submit(water_request(2));
  EXPECT_EQ(late.admit_status(), ServeStatus::kShuttingDown);
  EXPECT_EQ(late.state(), RequestState::kRejected);
}

TEST(Serve, NonDrainShutdownCancelsActiveRequests) {
  ServerOptions sopts;
  sopts.n_leaders = 1;
  Server server(sopts);
  RequestHandle big = server.submit(water_request(120));
  ASSERT_TRUE(big.admitted());
  sleep_ms(2);
  server.shutdown(/*drain=*/false);
  ASSERT_TRUE(big.done());
  // Either it squeaked through or it was cancelled — never lost.
  const RequestState st = big.outcome().state;
  EXPECT_TRUE(st == RequestState::kCancelled ||
              st == RequestState::kCompleted);
}

// ---------------------------------------------------------------------------
// Serve chaos

TEST(ServeChaos, GeneratorIsSeededAndBounded) {
  fault::ServeChaosOptions opts;
  opts.n_requests = 40;
  const std::vector<fault::ServeChaosEvent> a = fault::serve_chaos_events(opts);
  const std::vector<fault::ServeChaosEvent> b = fault::serve_chaos_events(opts);
  ASSERT_EQ(a.size(), 40u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].geometry_seed, b[i].geometry_seed);
    EXPECT_LT(a[i].tenant, opts.n_tenants);
    EXPECT_GE(a[i].n_waters, opts.min_waters);
    EXPECT_LE(a[i].n_waters, opts.max_waters);
    EXPECT_LE(a[i].at, opts.horizon);
    if (i > 0) EXPECT_GE(a[i].at, a[i - 1].at);
  }
  opts.seed = 78;
  const std::vector<fault::ServeChaosEvent> c = fault::serve_chaos_events(opts);
  bool differs = false;
  for (std::size_t i = 0; i < c.size(); ++i)
    if (c[i].at != a[i].at || c[i].n_waters != a[i].n_waters) differs = true;
  EXPECT_TRUE(differs);
}

/// Replay one seeded serve chaos schedule against a live server and check
/// the ledger invariants the issue demands: no request lost or
/// double-completed, deadline-expired requests cancelled (not abandoned),
/// accepted results identical to the solo-workflow baseline.
void run_serve_chaos(std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);
  fault::ServeChaosOptions copts;
  copts.seed = seed;
  copts.n_requests = 30;
  copts.horizon = 0.05;
  copts.deadline_min = 0.005;
  copts.deadline_max = 0.2;
  const std::vector<fault::ServeChaosEvent> events =
      fault::serve_chaos_events(copts);

  // Solo-workflow baselines per distinct geometry (no cache, no serving).
  std::map<std::pair<std::uint64_t, std::size_t>, spectra::RamanSpectrum>
      baselines;
  qframan::WorkflowOptions wopts;
  wopts.sigma_cm = 20.0;
  wopts.omega_points = 400;
  for (const fault::ServeChaosEvent& e : events) {
    const auto key = std::make_pair(e.geometry_seed, e.n_waters);
    if (baselines.count(key) != 0u) continue;
    baselines[key] = qframan::RamanWorkflow(wopts)
                         .run(water_cluster(e.n_waters, e.geometry_seed))
                         .spectrum;
  }

  // Leader-site chaos: every pool slot takes a bounded number of kill
  // drills (task dropped, leases revoked, slot resumes).
  fault::FaultPlan plan;
  plan.seed = seed;
  fault::FaultRule kill;
  kill.kind = fault::FaultKind::kLeaderKill;
  kill.probability = 0.1;
  kill.max_hits = 3;
  plan.rules.push_back(kill);
  fault::FaultInjector injector(plan);

  ServerOptions sopts;
  sopts.n_leaders = 3;
  sopts.admission.max_pending = 10;
  sopts.admission.shed_fraction = 0.6;
  sopts.admission.tenant_quota = {/*rate=*/200.0, /*burst=*/8.0};
  sopts.retry_backoff_base = 0.001;
  sopts.retry_backoff_max = 0.01;
  sopts.cache.enabled = true;
  sopts.fault_injector = &injector;
  sopts.reaper_interval = 0.001;
  Server server(sopts);

  struct Submitted {
    RequestHandle handle;
    fault::ServeChaosEvent event;
    bool cancel_fired = false;
  };
  std::vector<Submitted> submitted;
  submitted.reserve(events.size());
  const double t0 = server.now();
  std::size_t next_event = 0;
  for (;;) {
    const double now = server.now() - t0;
    while (next_event < events.size() && events[next_event].at <= now) {
      const fault::ServeChaosEvent& e = events[next_event++];
      SpectrumRequest req = water_request(e.n_waters, e.geometry_seed);
      req.tenant = "tenant" + std::to_string(e.tenant);
      req.priority = e.priority;
      req.deadline_seconds = e.deadline_seconds;
      submitted.push_back({server.submit(req), e, false});
    }
    bool pending = next_event < events.size();
    for (Submitted& s : submitted)
      if (s.event.cancel && !s.cancel_fired) {
        if (now >= s.event.at + s.event.cancel_after) {
          s.handle.cancel();  // may race completion; either is legal
          s.cancel_fired = true;
        } else {
          pending = true;
        }
      }
    if (!pending) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  server.shutdown(/*drain=*/true);

  // Ledger: every submitted request is terminal exactly once, with a
  // consistent typed outcome.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, events.size());
  std::size_t accepted = 0, rejected = 0;
  std::map<RequestState, std::size_t> by_state;
  for (Submitted& s : submitted) {
    ASSERT_TRUE(s.handle.done()) << "request " << s.handle.id() << " lost";
    const RequestOutcome& out = s.handle.outcome();
    EXPECT_TRUE(is_terminal(out.state));
    ++by_state[out.state];
    if (s.handle.admitted()) ++accepted; else ++rejected;
    if (out.state == RequestState::kCompleted) {
      EXPECT_TRUE(out.error.empty());
      // No lost or double-completed fragments inside the request.
      EXPECT_EQ(out.report.n_failed, 0u);
      for (const runtime::FragmentOutcome& o : out.report.outcomes)
        EXPECT_TRUE(o.completed);
      // Accepted results are baseline-identical (model engine at every
      // level, so even shed requests must reproduce the solo spectrum;
      // the cache round trip allows last-bit noise).
      const auto key =
          std::make_pair(s.event.geometry_seed, s.event.n_waters);
      const spectra::RamanSpectrum& ref = baselines.at(key);
      ASSERT_EQ(out.spectrum.intensity.size(), ref.intensity.size());
      double peak = 0.0, max_diff = 0.0;
      for (std::size_t i = 0; i < ref.intensity.size(); ++i) {
        peak = std::max(peak, std::abs(ref.intensity[i]));
        max_diff = std::max(
            max_diff,
            std::abs(out.spectrum.intensity[i] - ref.intensity[i]));
      }
      ASSERT_GT(peak, 0.0);
      EXPECT_LT(max_diff / peak, 1e-6)
          << "request " << s.handle.id() << " diverged from its baseline";
    } else if (out.state == RequestState::kDeadlineExpired ||
               out.state == RequestState::kCancelled) {
      // Cancelled, not abandoned: every fragment terminal.
      for (const runtime::FragmentOutcome& o : out.report.outcomes)
        EXPECT_TRUE(o.completed ||
                    o.reason == runtime::FailureReason::kCancelled);
    } else if (out.state == RequestState::kFailed) {
      ADD_FAILURE() << "request " << s.handle.id()
                    << " failed: " << out.error;
    }
  }
  EXPECT_EQ(accepted, stats.admitted);
  EXPECT_EQ(rejected,
            stats.rejected_overload + stats.rejected_quota +
                stats.rejected_shutdown);
  EXPECT_EQ(by_state[RequestState::kCompleted], stats.completed);
  EXPECT_EQ(by_state[RequestState::kCancelled], stats.cancelled);
  EXPECT_EQ(by_state[RequestState::kDeadlineExpired],
            stats.deadline_expired);
  EXPECT_EQ(stats.active, 0u);
  // The duplicate geometries of the schedule must have produced
  // cross-request cache hits.
  ASSERT_NE(server.result_cache(), nullptr);
  EXPECT_GT(server.result_cache()->stats().hits, 0u);
}

TEST(Serve, ChaosSingleSeed) { run_serve_chaos(101); }

TEST(ServeChaosSoak, ManySeeds) {
  for (std::uint64_t seed = 200; seed < 208; ++seed) run_serve_chaos(seed);
}

}  // namespace
}  // namespace qfr::serve
