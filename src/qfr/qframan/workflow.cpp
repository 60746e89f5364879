#include "qfr/qframan/workflow.hpp"

#include <fstream>

#include "qfr/common/error.hpp"
#include "qfr/frag/checkpoint.hpp"
#include "qfr/common/log.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/engine/scf_engine.hpp"
#include "qfr/obs/export.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/part/policy.hpp"
#include "qfr/spectra/infrared.hpp"

namespace qfr::qframan {

std::unique_ptr<engine::FragmentEngine> make_engine(EngineKind kind,
                                                    bool batched_gemm) {
  switch (kind) {
    case EngineKind::kModel:
      return std::make_unique<engine::ModelEngine>();
    case EngineKind::kScfHf: {
      engine::ScfEngineOptions opts;
      opts.xc = scf::XcModel::kHartreeFock;
      opts.batched_gemm = batched_gemm;
      return std::make_unique<engine::ScfEngine>(opts);
    }
    case EngineKind::kScfLda: {
      engine::ScfEngineOptions opts;
      opts.xc = scf::XcModel::kLda;
      // Analytic gradients cover HF only; LDA falls back to energy FD.
      opts.hessian_mode = engine::HessianMode::kEnergyFd;
      opts.batched_gemm = batched_gemm;
      return std::make_unique<engine::ScfEngine>(opts);
    }
  }
  QFR_ASSERT(false, "unknown engine kind");
  return nullptr;
}

engine::EngineFallbackChain make_fallback_chain(EngineKind kind,
                                                bool batched_gemm) {
  engine::EngineFallbackChain chain;
  if (kind == EngineKind::kScfHf) {
    // Same physics, hardier numerics: the energy-FD Hessian needs only
    // converged energies, not analytic gradients.
    engine::ScfEngineOptions opts;
    opts.xc = scf::XcModel::kHartreeFock;
    opts.hessian_mode = engine::HessianMode::kEnergyFd;
    opts.batched_gemm = batched_gemm;
    chain.push_back(std::make_unique<engine::ScfEngine>(opts));
  }
  // Last resort for every ladder: the classical surrogate always returns
  // a finite, sum-rule-exact result.
  chain.push_back(std::make_unique<engine::ModelEngine>());
  return chain;
}

SolvedSpectra solve_spectra(const frag::GlobalProperties& props,
                            const la::Vector& axis, double sigma_cm,
                            SolverKind solver, int lanczos_steps,
                            bool compute_ir) {
  if (solver == SolverKind::kAuto)
    solver = props.hessian_mw.rows() <= 600 ? SolverKind::kExact
                                            : SolverKind::kLanczosGagq;
  SolvedSpectra out;
  if (solver == SolverKind::kExact) {
    const la::Matrix dense = props.hessian_mw.to_dense();
    out.raman =
        spectra::raman_spectrum_exact(dense, props.dalpha_mw, axis, sigma_cm);
    if (compute_ir)
      out.ir = spectra::ir_spectrum_exact(dense, props.dmu_mw, axis, sigma_cm);
    return out;
  }
  spectra::LanczosOptions lopts;
  lopts.steps = lanczos_steps;
  const bool gagq = solver == SolverKind::kLanczosGagq;
  out.raman = spectra::raman_spectrum_lanczos(
      props.hessian_mw, props.dalpha_mw, axis, sigma_cm, lopts, gagq);
  if (compute_ir)
    out.ir = spectra::ir_spectrum_lanczos(props.hessian_mw, props.dmu_mw,
                                          axis, sigma_cm, lopts, gagq);
  out.used_lanczos = true;
  return out;
}

std::string decorate_artifact_path(const std::string& path,
                                   const std::string& suffix) {
  if (path.empty() || suffix.empty()) return path;
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return path + suffix;
  return path.substr(0, dot) + suffix + path.substr(dot);
}

RamanWorkflow::RamanWorkflow(WorkflowOptions options)
    : options_(std::move(options)) {
  QFR_REQUIRE(options_.omega_points >= 2 &&
                  options_.omega_max_cm > options_.omega_min_cm,
              "bad spectrum axis");
  QFR_REQUIRE(options_.lanczos_steps >= 2, "need at least 2 Lanczos steps");
}

WorkflowResult RamanWorkflow::run(const frag::BioSystem& system) const {
  const std::unique_ptr<engine::FragmentEngine> eng =
      make_engine(options_.engine, options_.batched_gemm);
  return run(system, *eng);
}

WorkflowResult RamanWorkflow::run(const frag::BioSystem& system,
                                  const engine::FragmentEngine& eng) const {
  QFR_REQUIRE(system.n_atoms() > 0, "empty biosystem");
  WorkflowResult out;

  // Per-run artifact paths: the suffix hook keeps one options object
  // reusable across trajectory frames without overwriting its artifacts.
  const std::string checkpoint_path =
      decorate_artifact_path(options_.checkpoint_path,
                             options_.artifact_suffix);
  const std::string trace_path =
      decorate_artifact_path(options_.trace_path, options_.artifact_suffix);
  const std::string report_path =
      decorate_artifact_path(options_.report_path, options_.artifact_suffix);

  // Observability: use the caller's session, or spin up a private one
  // when an export path asks for artifacts without a session to fill.
  std::unique_ptr<obs::Session> owned_session;
  obs::Session* session = options_.obs;
  if (session == nullptr &&
      (!options_.trace_path.empty() || !options_.report_path.empty())) {
    owned_session = std::make_unique<obs::Session>();
    session = owned_session.get();
  }
  // Ambient on the master thread; MasterRuntime re-installs it per
  // leader/worker thread from RuntimeOptions::obs.
  obs::ScopedSession ambient(session);

  // 1. Fragmentation (the master's decomposition step), dispatched to the
  // policy selected in FragmentationOptions (MFCC or graph partition).
  frag::Fragmentation fr = [&] {
    obs::SpanGuard span(session, "workflow.fragmentation", "workflow");
    return part::fragment_system(system, options_.fragmentation);
  }();
  out.fragmentation_stats = fr.stats;
  if (session != nullptr) {
    obs::MetricsRegistry& m = session->metrics();
    m.gauge("qfr.part.n_parts").set(static_cast<double>(fr.stats.n_parts));
    m.gauge("qfr.part.n_cut_bonds")
        .set(static_cast<double>(fr.stats.n_cut_bonds));
    m.gauge("qfr.part.balance_factor").set(fr.stats.balance_factor);
    m.gauge("qfr.part.n_multicut_atoms")
        .set(static_cast<double>(fr.stats.n_multicut_atoms));
  }
  QFR_LOG_INFO("fragmented system: ", fr.stats.total_fragments,
               " fragments over ", system.n_atoms(), " atoms");
  const std::size_t n_fragments = fr.fragments.size();

  // 2a. Checkpoint resume: recover the completed prefix of an earlier
  // sweep so only the missing fragments are recomputed.
  std::vector<engine::FragmentResult> restored(n_fragments);
  std::vector<std::size_t> completed_ids;
  std::size_t n_corrupt_records = 0;
  if (options_.resume && !checkpoint_path.empty()) {
    std::ifstream probe(checkpoint_path, std::ios::binary);
    if (probe.good()) {
      frag::CheckpointReport scan = frag::scan_checkpoint(probe);
      n_corrupt_records = scan.n_corrupt;
      for (std::size_t k = 0; k < scan.fragment_ids.size(); ++k) {
        const std::size_t id = scan.fragment_ids[k];
        // Ids beyond the current fragmentation mean the checkpoint
        // belongs to a different decomposition; skip them.
        if (id >= n_fragments) continue;
        // So does a record shaped for another fragment: assembly would
        // reject it only after the whole sweep, so recompute it now.
        const std::size_t dim = 3 * fr.fragments[id].n_atoms();
        const engine::FragmentResult& r = scan.results[k];
        if (r.hessian.rows() != dim || r.hessian.cols() != dim ||
            r.dalpha.cols() != dim) {
          ++n_corrupt_records;
          continue;
        }
        if (restored[id].hessian.size() == 0) completed_ids.push_back(id);
        restored[id] = std::move(scan.results[k]);
      }
      QFR_LOG_INFO("resume: ", completed_ids.size(), " of ", n_fragments,
                   " fragments restored from '", checkpoint_path,
                   "'");
      if (n_corrupt_records > 0)
        QFR_LOG_WARN("resume: skipped ", n_corrupt_records,
                     " corrupt or misshapen checkpoint record(s); those "
                     "fragments will be recomputed");
    }
    if (session != nullptr) {
      obs::MetricsRegistry& m = session->metrics();
      m.counter("frag.checkpoint.restored")
          .add(static_cast<std::int64_t>(completed_ids.size()));
      m.counter("frag.checkpoint.corrupt_records")
          .add(static_cast<std::int64_t>(n_corrupt_records));
    }
  }

  // 2b. Per-fragment quantum sweep through the hierarchical runtime. The
  // sink rewrites the restored records first (the writer truncates), so
  // the file always holds every completed fragment.
  std::unique_ptr<frag::CheckpointSink> sink;
  if (!checkpoint_path.empty()) {
    sink = std::make_unique<frag::CheckpointSink>(checkpoint_path);
    for (const std::size_t id : completed_ids)
      sink->writer().append(id, restored[id]);
  }
  const fault::FragmentResultValidator validator(options_.validator);
  engine::EngineFallbackChain chain;
  if (options_.enable_fallback)
    chain = make_fallback_chain(options_.engine, options_.batched_gemm);

  // Content-addressed result cache: one instance for the whole sweep,
  // gated by the same validator that fences the scheduler, so a result
  // the sweep would reject is never remembered either. A caller-owned
  // shared_cache (one cache across trajectory frames or server requests)
  // takes precedence; its owner configures filters and persistence.
  std::unique_ptr<cache::ResultCache> result_cache;
  if (options_.shared_cache == nullptr && options_.cache.enabled) {
    result_cache = std::make_unique<cache::ResultCache>(options_.cache);
    if (options_.validate_results)
      result_cache->set_insert_filter(
          [&validator](const engine::FragmentResult& r) {
            return validator.validate(r).ok;
          });
  }

  runtime::RuntimeOptions ropts;
  ropts.n_leaders = options_.n_leaders;
  ropts.workers_per_leader = options_.workers_per_leader;
  ropts.straggler_timeout = options_.straggler_timeout;
  ropts.max_retries = options_.max_retries;
  ropts.abort_on_failure = false;  // failures reported below, after flush
  ropts.sink = sink.get();
  ropts.completed_ids = completed_ids;
  if (options_.validate_results) ropts.validator = &validator;
  if (!chain.empty()) ropts.fallback_chain = &chain;
  ropts.cache = options_.shared_cache != nullptr ? options_.shared_cache
                                                 : result_cache.get();
  ropts.transport = options_.transport;
  ropts.supervision.enabled = options_.supervise;
  ropts.supervision.heartbeat_timeout = options_.heartbeat_timeout;
  ropts.supervision.poll_interval = options_.supervisor_poll_interval;
  ropts.obs = session;
  const runtime::MasterRuntime rt(std::move(ropts));
  WallTimer engine_timer;
  runtime::RunReport report = [&] {
    obs::SpanGuard span(session, "workflow.sweep", "workflow");
    return rt.run(fr.fragments, eng);
  }();
  out.engine_seconds = engine_timer.seconds();
  out.n_tasks = report.n_tasks;
  for (const std::size_t id : completed_ids)
    report.results[id] = std::move(restored[id]);

  out.sweep.n_fragments = n_fragments;
  out.sweep.n_tasks = report.n_tasks;
  out.sweep.n_requeued = report.n_requeued;
  out.sweep.n_retries = report.n_retries;
  out.sweep.n_fault_retries = report.n_fault_retries;
  out.sweep.n_reject_retries = report.n_reject_retries;
  out.sweep.n_rejected = report.n_rejected;
  out.sweep.n_resumed = report.n_resumed;
  out.sweep.n_degraded = report.n_degraded();
  out.sweep.n_cache_hits = report.n_cache_hits();
  out.sweep.n_reuse_exact = report.n_reuse_exact();
  out.sweep.n_reuse_refresh = report.n_reuse_refresh();
  out.sweep.n_corrupt_records = n_corrupt_records;
  if (result_cache != nullptr) {
    const cache::CacheStats cs = result_cache->stats();
    QFR_LOG_INFO("result cache: ", cs.hits, " hit(s), ", cs.misses,
                 " miss(es), ", cs.inflight_waits, " in-flight wait(s), ",
                 cs.evictions, " eviction(s); hit rate ", cs.hit_rate());
  }
  out.sweep.n_leader_crashes = report.n_leader_crashes;
  out.sweep.n_leader_hangs = report.n_leader_hangs;
  out.sweep.n_leases_revoked = report.n_leases_revoked;
  out.sweep.n_cancelled = report.n_cancelled;
  out.sweep.outcomes = report.outcomes;
  const std::size_t n_bad = report.n_failed();
  if (n_bad > 0 && !options_.allow_dropped_fragments) {
    // The checkpoint already holds every completed fragment, so a re-run
    // with resume=true recomputes only the failures.
    QFR_NUMERIC_FAIL("fragment sweep failed for "
                     << n_bad << " of " << n_fragments
                     << " fragments (completed work checkpointed): "
                     << runtime::first_failure(report.outcomes));
  }
  out.sweep.n_dropped = n_bad;

  // 3. Eq. (1) assembly into global properties. Dropped fragments (only
  // possible under allow_dropped_fragments) are skipped rather than fed
  // in as empty results.
  frag::AssemblyOptions aopts = options_.assembly;
  if (out.sweep.n_dropped > 0) aopts.skip_missing_results = true;
  {
    obs::SpanGuard span(session, "workflow.assembly", "workflow");
    out.properties = frag::assemble_global_properties(
        system, fr.fragments, report.results, aopts);
  }

  // 4. Spectral solve.
  const la::Vector axis = spectra::wavenumber_axis(
      options_.omega_min_cm, options_.omega_max_cm, options_.omega_points);
  WallTimer solver_timer;
  {
    obs::SpanGuard solve_span(session, "workflow.solve", "workflow");
    SolvedSpectra solved = solve_spectra(
        out.properties, axis, options_.sigma_cm, options_.solver,
        options_.lanczos_steps, options_.compute_ir);
    out.spectrum = std::move(solved.raman);
    out.ir_spectrum = std::move(solved.ir);
    out.used_lanczos = solved.used_lanczos;
  }
  out.solver_seconds = solver_timer.seconds();

  // 5. Observability artifacts. Written last so the trace covers every
  // workflow phase; the outcome CSV rides next to the checkpoint (the
  // chaos-triage pairing: which fragment, which engine, how long).
  if (session != nullptr) {
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      if (os.good()) {
        session->tracer().write_chrome_trace(os);
      } else {
        QFR_LOG_WARN("cannot write trace to '", trace_path, "'");
      }
    }
    if (!report_path.empty()) {
      obs::RunContext ctx;
      ctx.engine = eng.name();
      ctx.n_fragments = n_fragments;
      ctx.engine_seconds = out.engine_seconds;
      ctx.solver_seconds = out.solver_seconds;
      ctx.fragmentation_policy = fr.stats.policy;
      ctx.n_cut_bonds = fr.stats.n_cut_bonds;
      ctx.balance_factor = fr.stats.balance_factor;
      std::ofstream os(report_path);
      if (os.good()) {
        obs::write_run_report_json(os, *session, &report, ctx);
      } else {
        QFR_LOG_WARN("cannot write run report to '", report_path, "'");
      }
      const std::string csv_path =
          (!checkpoint_path.empty() ? checkpoint_path : report_path) +
          ".outcomes.csv";
      std::ofstream csv(csv_path);
      if (csv.good()) {
        obs::write_outcomes_csv(csv, report.outcomes,
                                &report.fragment_seconds, fr.stats.policy);
      } else {
        QFR_LOG_WARN("cannot write outcome CSV to '", csv_path, "'");
      }
    }
  }
  return out;
}

}  // namespace qfr::qframan
