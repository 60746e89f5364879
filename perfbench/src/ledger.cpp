#include "ledger.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <utility>

#include "qfr/cache/canonical.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/dfpt/response.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/fault/validator.hpp"
#include "qfr/frag/assembly.hpp"
#include "qfr/frag/checkpoint.hpp"
#include "qfr/integrals/gradients.hpp"
#include "qfr/la/batched_executor.hpp"
#include "qfr/part/policy.hpp"
#include "qfr/runtime/wire.hpp"
#include "qfr/scf/scf.hpp"

namespace perfbench {

namespace fs_ = qfr::frag;
using qfr::engine::FragmentResult;

// --- instruments -----------------------------------------------------------

FragmentResult TimedEngine::compute(const qfr::chem::Molecule& mol) const {
  const double t0 = now_s();
  return timed(t0, inner_.compute(mol));
}

FragmentResult TimedEngine::compute(std::size_t id,
                                    const qfr::chem::Molecule& mol) const {
  const double t0 = now_s();
  return timed(t0, inner_.compute(id, mol));
}

FragmentResult TimedEngine::compute(
    std::size_t id, const qfr::chem::Molecule& mol,
    const std::vector<qfr::chem::Bond>& bonds) const {
  const double t0 = now_s();
  return timed(t0, inner_.compute(id, mol, bonds));
}

FragmentResult TimedEngine::timed(double t0, FragmentResult r) const {
  const double t1 = now_s();
  static std::atomic<int> next_tid{1};
  thread_local const int tid = next_tid++;
  std::lock_guard<std::mutex> lock(mu_);
  calls_.push_back({t0, t1, r.reuse_tier, tid});
  return r;
}

std::vector<TimedEngine::Call> TimedEngine::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(calls_, {});
}

void TimedSink::on_result(std::size_t id, const FragmentResult& r) {
  const double t0 = now_s();
  inner_.on_result(id, r);
  seconds_ += now_s() - t0;
}

// --- composed pipeline -----------------------------------------------------

Composed compose(const fs_::BioSystem& sys,
                 const qfr::qframan::WorkflowOptions& opts,
                 const qfr::engine::FragmentEngine& eng, Tracer* tracer) {
  QFR_REQUIRE(!opts.enable_fallback && !opts.supervise &&
                  !opts.cache.enabled && opts.shared_cache == nullptr,
              "the composed pipeline mirrors only the options the "
              "benchmark workloads use");
  Composed c;
  Tracer::Scope whole(tracer, "pipeline");

  {
    Tracer::Scope span(tracer, "part.fragment_system");
    c.fragmentation = qfr::part::fragment_system(sys, opts.fragmentation);
    c.part_s = span.seconds();
  }

  std::unique_ptr<fs_::CheckpointSink> checkpoint;
  std::unique_ptr<TimedSink> timed_sink;
  if (!opts.checkpoint_path.empty()) {
    // Opening truncates the previous run's file, which is not free.
    Tracer::Scope span(tracer, "frag.checkpoint_open");
    checkpoint = std::make_unique<fs_::CheckpointSink>(opts.checkpoint_path);
    timed_sink = std::make_unique<TimedSink>(*checkpoint);
    c.checkpoint_s += span.seconds();
  }
  const qfr::fault::FragmentResultValidator validator(opts.validator);
  qfr::runtime::RuntimeOptions ropts;
  ropts.n_leaders = opts.n_leaders;
  ropts.workers_per_leader = opts.workers_per_leader;
  ropts.straggler_timeout = opts.straggler_timeout;
  ropts.max_retries = opts.max_retries;
  ropts.abort_on_failure = false;
  ropts.sink = timed_sink.get();
  if (opts.validate_results) ropts.validator = &validator;
  ropts.transport = opts.transport;
  const qfr::runtime::MasterRuntime rt(std::move(ropts));
  {
    Tracer::Scope span(tracer, "runtime.sweep");
    c.report = rt.run(c.fragmentation.fragments, eng);
    c.sweep_s = span.seconds();
  }
  if (timed_sink != nullptr) {
    Tracer::Scope span(tracer, "frag.checkpoint_close");
    checkpoint.reset();  // flush and close before measuring the file
    c.checkpoint_sink_s = timed_sink->seconds();
    c.checkpoint_s += c.checkpoint_sink_s + span.seconds();
    std::ifstream probe(opts.checkpoint_path,
                        std::ios::binary | std::ios::ate);
    c.checkpoint_bytes = probe.good() ? static_cast<double>(probe.tellg())
                                      : 0.0;
  }
  const std::size_t n_bad = c.report.n_failed();
  if (n_bad > 0)
    QFR_NUMERIC_FAIL("composed sweep: " << n_bad << " fragment(s) failed");

  qfr::frag::GlobalProperties props;
  {
    const double rss0 = peak_rss_mb();
    Tracer::Scope span(tracer, "frag.assemble_global_properties");
    props = fs_::assemble_global_properties(sys, c.fragmentation.fragments,
                                            c.report.results, opts.assembly);
    c.assemble_s = span.seconds();
    c.assemble_rss_mb = peak_rss_mb() - rss0;
  }

  const std::size_t dim = props.hessian_mw.rows();
  qfr::qframan::SolverKind solver = opts.solver;
  if (solver == qfr::qframan::SolverKind::kAuto)
    solver = dim <= 600 ? qfr::qframan::SolverKind::kExact
                        : qfr::qframan::SolverKind::kLanczosGagq;
  const qfr::la::Vector axis = qfr::spectra::wavenumber_axis(
      opts.omega_min_cm, opts.omega_max_cm, opts.omega_points);
  const double rss0 = peak_rss_mb();
  if (solver == qfr::qframan::SolverKind::kExact) {
    Tracer::Scope span(tracer, "spectra.raman_spectrum_exact");
    const qfr::la::Matrix dense = props.hessian_mw.to_dense();
    c.spectrum = qfr::spectra::raman_spectrum_exact(dense, props.dalpha_mw,
                                                    axis, opts.sigma_cm);
    c.solve_s = span.seconds();
  } else {
    Tracer::Scope span(tracer, "spectra.raman_spectrum_lanczos");
    const qfr::la::CsrMatrix& h = props.hessian_mw;
    const qfr::spectra::MatVec op = [&](std::span<const double> x,
                                        std::span<double> y) {
      const double t0 = now_s();
      h.matvec(1.0, x, 0.0, y);
      const double t1 = now_s();
      c.matvec_s += t1 - t0;
      ++c.matvecs;
      if (tracer != nullptr) tracer->add("spectra.matvec", t0, t1);
    };
    qfr::spectra::LanczosOptions lopts;
    lopts.steps = opts.lanczos_steps;
    c.spectrum = qfr::spectra::raman_spectrum_lanczos(
        op, h.rows(), props.dalpha_mw, axis, opts.sigma_cm, lopts,
        solver == qfr::qframan::SolverKind::kLanczosGagq);
    c.solve_s = span.seconds();
  }
  c.solve_rss_mb = peak_rss_mb() - rss0;
  c.wall_s = whole.seconds();
  return c;
}

void accumulate(Composed& total, Composed&& run) {
  auto append = [](auto& into, auto& from) {
    into.insert(into.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
  };
  append(total.fragmentation.fragments, run.fragmentation.fragments);
  qfr::runtime::RunReport& t = total.report;
  qfr::runtime::RunReport& r = run.report;
  append(t.results, r.results);
  append(t.outcomes, r.outcomes);
  append(t.fragment_seconds, r.fragment_seconds);
  if (t.leaders.size() < r.leaders.size()) t.leaders.resize(r.leaders.size());
  for (std::size_t i = 0; i < r.leaders.size(); ++i) {
    t.leaders[i].busy_seconds += r.leaders[i].busy_seconds;
    t.leaders[i].tasks += r.leaders[i].tasks;
    t.leaders[i].fragments += r.leaders[i].fragments;
  }
  t.n_tasks += r.n_tasks;
  t.n_retries += r.n_retries;
  total.wall_s += run.wall_s;
  total.part_s += run.part_s;
  total.sweep_s += run.sweep_s;
  total.assemble_s += run.assemble_s;
  total.assemble_rss_mb = std::max(total.assemble_rss_mb, run.assemble_rss_mb);
  total.solve_s += run.solve_s;
  total.solve_rss_mb = std::max(total.solve_rss_mb, run.solve_rss_mb);
  total.matvec_s += run.matvec_s;
  total.matvecs += run.matvecs;
  total.checkpoint_s += run.checkpoint_s;
  total.checkpoint_sink_s += run.checkpoint_sink_s;
  total.checkpoint_bytes += run.checkpoint_bytes;
}

// --- runtime-layer metrics -------------------------------------------------

void sweep_metrics(const Composed& c, std::size_t threads, Outcome& out) {
  const qfr::runtime::RunReport& r = c.report;
  const double frag_total = sum(r.fragment_seconds);
  const double capacity = c.sweep_s * static_cast<double>(threads);
  double busy_max = 0.0, busy_sum = 0.0;
  for (const qfr::runtime::LeaderStats& l : r.leaders) {
    busy_max = std::max(busy_max, l.busy_seconds);
    busy_sum += l.busy_seconds;
  }
  const double busy_mean =
      r.leaders.empty() ? 0.0 : busy_sum / static_cast<double>(r.leaders.size());
  std::vector<double> computed;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i)
    if (r.outcomes[i].completed &&
        r.outcomes[i].reuse_tier == qfr::engine::ReuseTier::kComputed)
      computed.push_back(r.fragment_seconds[i]);

  out.set("part.fragment_s", c.part_s, "s");
  out.set("part.fragments",
          static_cast<double>(c.fragmentation.fragments.size()), "count");
  out.set("runtime.sweep_s", c.sweep_s, "s");
  out.set("runtime.core_util", capacity > 0.0 ? frag_total / capacity : 0.0,
          "ratio");
  out.set("runtime.idle_s", std::max(0.0, capacity - frag_total), "s");
  out.set("runtime.leader_imbalance",
          busy_mean > 0.0 ? busy_max / busy_mean : 0.0, "ratio");
  out.set("runtime.tasks", static_cast<double>(r.n_tasks), "count");
  out.set("runtime.retries", static_cast<double>(r.n_retries), "count");
  out.set("engine.fragment_p50_s", median(computed), "s");
  out.set("engine.fragment_tail_s", tail(computed).value, "s");
  out.set("frag.checkpoint_s", c.checkpoint_s, "s");
  out.set("frag.checkpoint_bytes", c.checkpoint_bytes, "B");
  out.set("frag.assemble_s", c.assemble_s, "s");
  out.set("frag.assemble_rss_mb", c.assemble_rss_mb, "MB");
  out.set("spectra.solve_s", c.solve_s, "s");
  out.set("spectra.rss_mb", c.solve_rss_mb, "MB");
  out.set("spectra.matvec_s", c.matvec_s, "s");
  out.set("spectra.matvecs", static_cast<double>(c.matvecs), "count");
}

// --- engine-internal replay ------------------------------------------------

namespace {

/// Points ScfEngine evaluates for an n-atom fragment, by kind of work.
struct PointCounts {
  double scf = 0.0;       ///< context builds and SCF solves
  double dfpt = 0.0;      ///< polarizability solves
  double gradient = 0.0;  ///< analytic gradients
};

PointCounts point_counts(std::size_t n_atoms, bool gradient_mode) {
  const double dim = 3.0 * static_cast<double>(n_atoms);
  PointCounts p;
  p.dfpt = 1.0 + 2.0 * dim;  // equilibrium + single displacements
  if (gradient_mode) {
    p.scf = 1.0 + 2.0 * dim;
    p.gradient = 2.0 * dim;
  } else {
    // Energy-only double displacements: four per coordinate pair.
    p.scf = 1.0 + 2.0 * dim + 2.0 * dim * (dim - 1.0);
  }
  return p;
}

bool is_scf(qfr::qframan::EngineKind kind) {
  return kind != qfr::qframan::EngineKind::kModel;
}

/// Per-point costs of the engine-internal layers, averaged over `sample`.
struct PointReplay {
  double context_s = 0.0;   ///< scf::ScfContext::build
  double scf_s = 0.0;       ///< warm-started scf::ScfSolver::solve
  double gradient_s = 0.0;  ///< ints::rhf_gradient (gradient mode only)
  double dfpt_s = 0.0;      ///< dfpt::ResponseEngine::polarizability
  double scf_iterations = 0.0;
  double dfpt_iterations = 0.0;
};

PointReplay replay_points(std::span<const fs_::Fragment> sample,
                          qfr::qframan::EngineKind kind, std::uint64_t seed,
                          Tracer* tracer) {
  PointReplay total;
  if (sample.empty() || !is_scf(kind)) return total;
  const bool hf = kind == qfr::qframan::EngineKind::kScfHf;
  const qfr::scf::XcModel xc =
      hf ? qfr::scf::XcModel::kHartreeFock : qfr::scf::XcModel::kLda;
  qfr::Rng rng(seed ^ 0x7265706c6179ull);
  for (const fs_::Fragment& f : sample) {
    // Equilibrium state (the warm start of every displaced point).
    auto ctx0 = std::make_shared<qfr::scf::ScfContext>(
        qfr::scf::ScfContext::build(f.mol));
    qfr::scf::ScfOptions sopts;
    sopts.xc = xc;
    sopts.energy_tolerance = 1e-12;
    sopts.commutator_tolerance = 1e-9;
    const qfr::scf::ScfResult eq = qfr::scf::ScfSolver(ctx0, sopts).solve();

    const std::size_t coord = rng.below(3 * f.mol.size());
    qfr::geom::Vec3 delta;
    delta[static_cast<int>(coord % 3)] = 5e-3;
    const qfr::chem::Molecule mol = f.mol.displaced(coord / 3, delta);

    // Two passes over the same point; only the second (warm) one counts,
    // as the sweep's computes run warm too.
    for (int pass = 0; pass < 2; ++pass) {
      PointReplay p;
      qfr::la::BatchedExecutor exec(
          qfr::la::BatchedExecutor::Policy::kBatched);
      sopts.batch = &exec;
      Tracer* const t = pass == 1 ? tracer : nullptr;
      std::shared_ptr<qfr::scf::ScfContext> ctx;
      {
        Tracer::Scope span(t, "integrals.context_build");
        ctx = std::make_shared<qfr::scf::ScfContext>(
            qfr::scf::ScfContext::build(mol));
        p.context_s = span.seconds();
      }
      qfr::scf::ScfResult res;
      {
        Tracer::Scope span(t, "scf.solve");
        res = qfr::scf::ScfSolver(ctx, sopts).solve(&eq.density);
        p.scf_s = span.seconds();
      }
      p.scf_iterations = res.iterations;
      if (hf) {
        Tracer::Scope span(t, "integrals.rhf_gradient");
        const qfr::la::Vector g = qfr::ints::rhf_gradient(*ctx, res);
        p.gradient_s = span.seconds();
        QFR_REQUIRE(!g.empty(), "empty gradient");
      }
      {
        qfr::dfpt::DfptOptions dopts;
        dopts.tolerance = 1e-10;
        dopts.batch = &exec;
        Tracer::Scope span(t, "dfpt.polarizability");
        qfr::dfpt::ResponseEngine engine(ctx, res, xc, dopts);
        const qfr::dfpt::PolarizabilityResult pol = engine.polarizability();
        p.dfpt_s = span.seconds();
        p.dfpt_iterations = pol.total_iterations;
      }
      if (pass == 1) {
        total.context_s += p.context_s;
        total.scf_s += p.scf_s;
        total.gradient_s += p.gradient_s;
        total.dfpt_s += p.dfpt_s;
        total.scf_iterations += p.scf_iterations;
        total.dfpt_iterations += p.dfpt_iterations;
      }
    }
  }
  const double n = static_cast<double>(sample.size());
  total.context_s /= n;
  total.scf_s /= n;
  total.gradient_s /= n;
  total.dfpt_s /= n;
  total.scf_iterations /= n;
  total.dfpt_iterations /= n;
  return total;
}

}  // namespace

void engine_ledger(const Composed& c, qfr::qframan::EngineKind kind,
                   std::uint64_t seed, Tracer* tracer, Outcome& out) {
  const qfr::runtime::RunReport& r = c.report;
  const auto& frags = c.fragmentation.fragments;
  qfr::dfpt::PhaseTimes phases;
  double flops = 0.0, displacements = 0.0, computed_seconds = 0.0;
  PointCounts points;
  std::vector<fs_::Fragment> computed;
  const bool hf = kind == qfr::qframan::EngineKind::kScfHf;
  for (std::size_t i = 0; i < r.results.size(); ++i) {
    // Transported and refreshed results carry their anchor's counters;
    // only fresh computes did the work.
    if (!r.outcomes[i].completed ||
        r.outcomes[i].reuse_tier != qfr::engine::ReuseTier::kComputed)
      continue;
    phases += r.results[i].phase_times;
    flops += static_cast<double>(r.results[i].flops);
    displacements += r.results[i].displacement_tasks;
    computed_seconds += r.fragment_seconds[i];
    const PointCounts p = point_counts(frags[i].mol.size(), hf);
    points.scf += p.scf;
    points.dfpt += p.dfpt;
    points.gradient += p.gradient;
    computed.push_back(frags[i]);
  }

  // A seeded sample of the computed fragments, replayed one point each.
  std::vector<fs_::Fragment> sample;
  if (is_scf(kind) && !computed.empty()) {
    qfr::Rng rng(seed ^ 0x73616d706c65ull);
    for (int k = 0; k < 2; ++k)
      sample.push_back(computed[rng.below(computed.size())]);
  }
  const PointReplay p = replay_points(sample, kind, seed, tracer);
  const double context_s = p.context_s * points.scf;
  const double scf_s = p.scf_s * points.scf;
  const double gradient_s = p.gradient_s * points.gradient;
  const double dfpt_s = p.dfpt_s * points.dfpt;
  const double dfpt_total = phases.total();

  out.set("engine.displacements", displacements, "count");
  out.set("engine.gemm_flops", flops, "flop");
  out.set("integrals.context_s", context_s, "s");
  out.set("integrals.gradient_s", gradient_s, "s");
  out.set("scf.solve_s", scf_s, "s");
  out.set("scf.iterations", p.scf_iterations, "count");
  out.set("dfpt.p1_s", phases.p1, "s");
  out.set("dfpt.n1_s", phases.n1, "s");
  out.set("dfpt.v1_s", phases.v1, "s");
  out.set("dfpt.h1_s", phases.h1, "s");
  out.set("dfpt.iterations", p.dfpt_iterations, "count");
  out.set("la.dfpt_gflops", dfpt_total > 0.0 ? flops / dfpt_total / 1e9 : 0.0,
          "GFLOP/s");
  out.set("ledger.replay_frac",
          computed_seconds > 0.0 && is_scf(kind)
              ? (context_s + scf_s + gradient_s + dfpt_s) / computed_seconds
              : 0.0,
          "ratio");
}

// --- transport -------------------------------------------------------------

double process_startup_s(std::size_t n_leaders, std::size_t workers,
                         int reps) {
  fs_::Fragment tiny;
  tiny.mol = qfr::chem::make_water({0.0, 0.0, 0.0});
  tiny.atom_map = {0, 1, 2};
  tiny.bonds = {{0, 1}, {0, 2}};
  const std::vector<fs_::Fragment> frags{tiny};
  const qfr::engine::ModelEngine model;
  qfr::runtime::RuntimeOptions ropts;
  ropts.n_leaders = n_leaders;
  ropts.workers_per_leader = workers;
  ropts.transport = qfr::runtime::TransportKind::kProcess;
  const qfr::runtime::MasterRuntime rt(ropts);
  std::vector<double> walls;
  for (int k = 0; k < reps; ++k) {
    const double t0 = now_s();
    const qfr::runtime::RunReport r = rt.run(frags, model);
    walls.push_back(now_s() - t0);
    QFR_REQUIRE(r.n_failed() == 0, "start-up probe fragment failed");
  }
  return median(walls);
}

WireReplay replay_wire(const qfr::runtime::RunReport& report) {
  namespace wire = qfr::runtime::wire;
  WireReplay w;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    wire::ResultMsg msg;
    msg.fragment_id = i;
    msg.epoch = 1;
    msg.seconds = report.fragment_seconds[i];
    msg.result = report.results[i];
    const double t0 = now_s();
    const std::string frame =
        wire::encode_frame(wire::MsgType::kResult, wire::encode_result(msg));
    const double t1 = now_s();
    wire::FrameReader reader;
    reader.append(frame);
    wire::Frame f;
    wire::ResultMsg back;
    const bool ok = reader.next(&f) == wire::DecodeStatus::kFrame &&
                    wire::decode_result(f.payload, &back);
    const double t2 = now_s();
    w.encode_s += t1 - t0;
    w.decode_s += t2 - t1;
    w.bytes += static_cast<double>(frame.size());
    w.round_trip_ok = w.round_trip_ok && ok && back.fragment_id == i &&
                      back.result.hessian.size() == msg.result.hessian.size();
  }
  return w;
}

double replay_canonicalize(std::span<const fs_::Fragment> fragments,
                           double tolerance, const std::string& ns) {
  const double t0 = now_s();
  std::size_t guard = 0;
  for (const fs_::Fragment& f : fragments)
    guard += qfr::cache::canonicalize(f.mol, tolerance, ns).perm.size();
  QFR_REQUIRE(fragments.empty() || guard > 0, "empty canonicalization");
  return now_s() - t0;
}

}  // namespace perfbench
