#include "workloads.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "ledger.hpp"
#include "qfr/cache/store.hpp"
#include "qfr/chem/amino_acid.hpp"
#include "qfr/chem/molecule.hpp"
#include "qfr/chem/protein.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/common/units.hpp"
#include "qfr/fault/faulty_engine.hpp"
#include "qfr/fault/validator.hpp"
#include "qfr/qframan/workflow.hpp"
#include "qfr/serve/server.hpp"
#include "qfr/traj/frame_source.hpp"
#include "qfr/traj/runner.hpp"
#include "qfr/traj/tiered_engine.hpp"

namespace perfbench {

namespace {

using qfr::frag::BioSystem;
namespace qm = qfr::qframan;

// Every workload runs 4 compute threads: 2 leaders x 2 workers (serve: 2
// leaders beside 2 client threads).
constexpr std::size_t kLeaders = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 2;

// --- seeded inputs -----------------------------------------------------------

/// Water monomers on an 8-bohr grid. Monomer i takes its O-H length and
/// H-O-H angle from a 4 x 4 lattice (steps of 0.085 bohr and 5 degrees),
/// so any two monomers differ by more than the 0.05 bohr refresh radius:
/// no monomer is a cache hit or a refresh of another, every one pays a real
/// ab initio compute, and which one anchors the cache never depends on
/// thread timing. The seed draws each monomer's orientation and a
/// +/-0.005 bohr jitter of every atom.
BioSystem distinct_waters(std::size_t n, std::uint64_t seed) {
  using qfr::units::kAngstromToBohr;
  using qfr::units::kPi;
  BioSystem sys;
  qfr::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  for (std::size_t i = 0; i < n; ++i) {
    const double r =
        (0.9572 + 0.045 * (static_cast<double>(i % 4) - 1.5)) *
        kAngstromToBohr;
    const double half =
        0.5 * (104.52 + 5.0 * (static_cast<double>(i / 4 % 4) - 1.5)) * kPi /
        180.0;
    const double phi = rng.uniform(0.0, 2.0 * kPi);
    const qfr::geom::Vec3 center{8.0 * static_cast<double>(i % 4),
                                 8.0 * static_cast<double>(i / 4), 0.0};
    auto place = [&](double x, double z) {
      return center + qfr::geom::Vec3{std::cos(phi) * x, std::sin(phi) * x, z} +
             qfr::geom::Vec3{rng.uniform(-0.005, 0.005),
                             rng.uniform(-0.005, 0.005),
                             rng.uniform(-0.005, 0.005)};
    };
    qfr::chem::Molecule w;
    w.add(qfr::chem::Element::O, place(0.0, 0.0));
    // Unequal O-H bonds keep every monomer well away from C2v symmetry.
    const double r1 = r + 0.05, r2 = r - 0.05;
    w.add(qfr::chem::Element::H,
          place(r1 * std::sin(half), r1 * std::cos(half)));
    w.add(qfr::chem::Element::H,
          place(-r2 * std::sin(half), r2 * std::cos(half)));
    sys.waters.push_back(std::move(w));
  }
  return sys;
}

/// One chain of a fixed sequence (so the size never depends on the seed),
/// folded by `seed` and centred at `center` (bohr).
qfr::chem::Protein placed_chain(const std::vector<qfr::chem::ResidueType>& seq,
                                std::uint64_t seed,
                                const qfr::geom::Vec3& center) {
  qfr::chem::ProteinBuildOptions opts;
  opts.seed = seed;
  qfr::chem::Protein p = qfr::chem::build_protein_from_sequence(seq, opts);
  const qfr::geom::Vec3 shift = center - p.mol.centroid();
  for (std::size_t a = 0; a < p.mol.size(); ++a)
    p.mol.atom(a).position += shift;
  return p;
}

std::vector<qfr::chem::ResidueType> fixed_sequence(std::size_t n,
                                                   std::uint64_t which) {
  qfr::Rng rng(0x5e9u + which);
  return qfr::chem::random_protein_sequence(n, rng);
}

/// A homotrimer solvated in a cubic water box. Chains sit on a triangle
/// far enough apart that their confinement spheres do not overlap.
BioSystem solvated_trimer(std::size_t residues, double box_angstrom,
                          std::uint64_t seed) {
  const std::vector<qfr::chem::ResidueType> seq = fixed_sequence(residues, 0);
  const double ring = 17.0 * qfr::units::kAngstromToBohr *
                      std::cbrt(static_cast<double>(residues) / 80.0);
  BioSystem sys;
  qfr::chem::Molecule solute;
  for (std::size_t c = 0; c < 3; ++c) {
    const double phi = 2.0 * qfr::units::kPi * static_cast<double>(c) / 3.0;
    sys.chains.push_back(placed_chain(
        seq, seed * 31 + c,
        {ring * std::cos(phi), ring * std::sin(phi), 0.0}));
    solute.append(sys.chains.back().mol);
  }
  qfr::chem::WaterBoxOptions wopts;
  wopts.edge_angstrom = box_angstrom;
  wopts.seed = seed * 7 + 3;
  sys.waters = qfr::chem::build_water_box(wopts, solute);
  return sys;
}

/// `count` distinct solvated peptides: peptide k has its own fixed
/// sequence, folded and solvated by `seed`, and keeps the `waters` water
/// molecules nearest its centroid, so its size never depends on the seed.
std::vector<BioSystem> solvated_peptides(std::size_t count,
                                         std::size_t residues,
                                         std::size_t waters,
                                         std::uint64_t seed) {
  std::vector<BioSystem> out;
  for (std::size_t k = 0; k < count; ++k) {
    BioSystem sys;
    sys.chains.push_back(placed_chain(fixed_sequence(residues, 100 + k),
                                      seed * 131 + k, {0.0, 0.0, 0.0}));
    qfr::chem::WaterBoxOptions wopts;
    wopts.edge_angstrom = 20.0;
    wopts.seed = seed * 17 + k;
    sys.waters = qfr::chem::build_water_box(wopts, sys.chains[0].mol);
    auto dist = [](const qfr::chem::Molecule& w) {
      return w.centroid().norm();
    };
    std::sort(sys.waters.begin(), sys.waters.end(),
              [&](const qfr::chem::Molecule& x, const qfr::chem::Molecule& y) {
                return dist(x) < dist(y);
              });
    QFR_REQUIRE(sys.waters.size() >= waters, "water box too small");
    sys.waters.resize(waters);
    out.push_back(std::move(sys));
  }
  return out;
}

// --- options -------------------------------------------------------------------

qm::WorkflowOptions threaded(qm::EngineKind engine) {
  qm::WorkflowOptions o;
  o.engine = engine;
  o.n_leaders = kLeaders;
  o.workers_per_leader = kWorkers;
  return o;
}

qm::WorkflowOptions lda_options() {
  qm::WorkflowOptions o = threaded(qm::EngineKind::kScfLda);
  o.fragmentation.include_two_body = false;
  return o;
}

qm::WorkflowOptions protein_options(const Args& a) {
  qm::WorkflowOptions o = threaded(qm::EngineKind::kModel);
  o.transport = qfr::runtime::TransportKind::kProcess;
  o.checkpoint_path = a.work_dir + "/protein_model.ckpt";
  o.sigma_cm = 20.0;
  return o;
}

qfr::traj::TrajectoryOptions traj_options(const Args& a) {
  qfr::traj::TrajectoryOptions t;
  t.workflow = threaded(qm::EngineKind::kScfHf);
  t.workflow.fragmentation.include_two_body = false;
  t.reuse.refresh_radius_bohr = 0.05;
  t.series_path = a.work_dir + "/traj_rhf.series.jsonl";
  return t;
}

qfr::traj::JitterOptions jitter(std::uint64_t seed, std::size_t frames) {
  qfr::traj::JitterOptions j;
  j.seed = seed;
  j.n_frames = frames;
  j.rigid_sigma_bohr = 0.1;
  j.rigid_rot_sigma_rad = 0.05;
  // Small enough that no molecule's canonical-frame displacement (about
  // ten times the per-atom jitter, as the principal axes turn with it)
  // nears the 0.05 bohr refresh radius: at 0.004 a seed-dependent handful
  // of waters crossed it and paid unscheduled full recomputes.
  j.internal_sigma_bohr = 0.001;
  j.distort_fraction = 1.0;
  return j;
}

qfr::serve::ServerOptions server_options() {
  qfr::serve::ServerOptions o;
  o.n_leaders = kLeaders;
  o.admission.max_pending = 4 * kClients;  // a closed loop never fills it
  o.admission.quotas_enabled = false;
  o.admission.shed_priority_ceiling = INT_MIN;  // nothing is ever shed
  o.cache.enabled = true;
  return o;
}

qfr::serve::SpectrumRequest request_for(const BioSystem& sys) {
  qfr::serve::SpectrumRequest r;
  r.system = sys;
  r.sigma_cm = 20.0;
  return r;
}

/// The workflow a request describes, for direct and composed replays.
qm::WorkflowOptions request_workflow(const qfr::serve::SpectrumRequest& r) {
  qm::WorkflowOptions o = threaded(r.engine);
  o.fragmentation = r.fragmentation;
  o.omega_min_cm = r.omega_min_cm;
  o.omega_max_cm = r.omega_max_cm;
  o.omega_points = r.omega_points;
  o.sigma_cm = r.sigma_cm;
  o.solver = r.solver;
  o.lanczos_steps = r.lanczos_steps;
  return o;
}

// --- helpers -------------------------------------------------------------------

/// Median wall time of the set-up block, run at least three and at most
/// 25 times, stopping once two seconds are spent (a set-up of a few
/// milliseconds varies by tens of percent, so cheap ones run more often);
/// the first run is timed from process start. Set-up ends with one tiny
/// system pushed through the entry point, so lazy initialisation is paid
/// here, where it shows, rather than inside the first timed spectrum.
template <class Build>
double timed_setup(Build&& build) {
  std::vector<double> reps;
  double spent = 0.0;
  for (int k = 0; k < 25 && (k < 3 || spent < 2.0); ++k) {
    const double t0 = k == 0 ? process_start_s() : now_s();
    build();
    reps.push_back(now_s() - t0);
    spent += reps.back();
  }
  return median(reps);
}

/// Call `once(k)` for k = 0, 1, ... until `seconds` have passed and at
/// least `min_reps` calls were made.
template <class Once>
void repeat_for(double seconds, std::size_t min_reps, Once&& once) {
  const double end = now_s() + seconds;
  std::size_t k = 0;
  do {
    once(k++);
  } while (k < min_reps || now_s() < end);
}

/// Every fragment accepted at level 0 on its first attempt.
bool clean_sweep(const std::vector<qfr::runtime::FragmentOutcome>& outcomes) {
  if (outcomes.empty()) return false;
  for (const qfr::runtime::FragmentOutcome& o : outcomes)
    if (!o.completed || o.engine_level != 0 || o.rejections != 0 ||
        o.fault_failures != 0)
      return false;
  return true;
}

/// Scale a spectrum by 1 + 1e-2: a relative L2 error of 1e-2, ten times
/// the loosest tolerance gate, so bitwise and tolerance gates alike must
/// catch it.
void perturb(qfr::spectra::RamanSpectrum& s) {
  for (double& v : s.intensity) v *= 1.0 + 1e-2;
}

std::size_t accepted(const std::vector<qfr::runtime::FragmentOutcome>& os) {
  return static_cast<std::size_t>(
      std::count_if(os.begin(), os.end(),
                    [](const qfr::runtime::FragmentOutcome& o) {
                      return o.completed;
                    }));
}

void end_to_end(Outcome& out, const std::vector<double>& spectra,
                double measured_s, double fragments_per_s, double setup_s) {
  out.set("spectrum_s", median(spectra), "s");
  out.set("spectra_per_s",
          measured_s > 0.0 ? static_cast<double>(spectra.size()) / measured_s
                           : 0.0,
          "1/s");
  out.set("fragments_per_s", fragments_per_s, "1/s");
  out.set("setup_s", setup_s, "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Every per-layer metric at zero, so a traced run reports the full set
/// and a layer a workload never enters reads 0.
void zero_layers(Outcome& out) {
  static const char* const kLayers[][2] = {
      {"part.fragment_s", "s"},         {"part.fragments", "count"},
      {"runtime.sweep_s", "s"},         {"runtime.core_util", "ratio"},
      {"runtime.idle_s", "s"},          {"runtime.leader_imbalance", "ratio"},
      {"runtime.tasks", "count"},       {"runtime.retries", "count"},
      {"wire.startup_s", "s"},          {"wire.result_bytes", "B"},
      {"wire.encode_s", "s"},           {"wire.decode_s", "s"},
      {"frag.checkpoint_s", "s"},       {"frag.checkpoint_bytes", "B"},
      {"engine.fragment_p50_s", "s"},   {"engine.fragment_tail_s", "s"},
      {"engine.displacements", "count"}, {"engine.gemm_flops", "flop"},
      {"integrals.context_s", "s"},     {"integrals.gradient_s", "s"},
      {"scf.solve_s", "s"},             {"scf.iterations", "count"},
      {"dfpt.p1_s", "s"},               {"dfpt.n1_s", "s"},
      {"dfpt.v1_s", "s"},               {"dfpt.h1_s", "s"},
      {"dfpt.iterations", "count"},     {"la.dfpt_gflops", "GFLOP/s"},
      {"frag.assemble_s", "s"},         {"frag.assemble_rss_mb", "MB"},
      {"spectra.solve_s", "s"},         {"spectra.rss_mb", "MB"},
      {"spectra.matvec_s", "s"},        {"spectra.matvecs", "count"},
      {"pipeline.teardown_s", "s"},
      {"cache.canonicalize_s", "s"},    {"cache.hit_ratio", "ratio"},
      {"cache.bytes", "B"},             {"traj.exact_s", "s"},
      {"traj.refresh_s", "s"},          {"traj.full_s", "s"},
      {"traj.tier_exact", "count"},     {"traj.tier_refresh", "count"},
      {"traj.tier_full", "count"},      {"traj.refresh_rejected", "count"},
      {"traj.series_s", "s"},           {"traj.frame0_s", "s"},
      {"traj.stream_s", "s"},           {"traj.warm_frame_p50_s", "s"},
      {"traj.warm_frame_tail_s", "s"},  {"traj.warm_frame_tail_pct", "%"},
      {"traj.sample_rel_l2", "ratio"},
      {"serve.queue_s", "s"},           {"serve.run_s", "s"},
      {"serve.shed", "count"},          {"serve.rejected", "count"},
      {"serve.requests_per_s", "1/s"},  {"serve.request_p50_s", "s"},
      {"serve.request_tail_s", "s"},    {"serve.request_tail_pct", "%"},
      {"ledger.unaccounted_frac", "ratio"},
      {"ledger.fragment_unaccounted_frac", "ratio"},
      {"ledger.replay_frac", "ratio"},  {"trace.overhead_frac", "ratio"},
  };
  for (const auto& m : kLayers) out.set(m[0], 0.0, m[1]);
}

/// Run `fn`, turning an exception into a failed gate.
template <class Fn>
void guarded(Outcome& out, const std::string& what, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    out.gate(false, what + ": " + e.what());
  }
}

/// The engine the composed pipeline runs: the primary, or the primary
/// behind a NaN-planting FaultyEngine under sabotage.
struct ComposedEngine {
  explicit ComposedEngine(const qfr::engine::FragmentEngine& primary,
                          bool nan_fragment) {
    if (nan_fragment) {
      qfr::fault::FaultPlan plan;
      qfr::fault::FaultRule rule;
      rule.kind = qfr::fault::FaultKind::kNan;
      rule.fragment_id = 0;
      plan.rules.push_back(rule);
      injector = std::make_unique<qfr::fault::FaultInjector>(plan);
      faulty = std::make_unique<qfr::fault::FaultyEngine>(primary, *injector);
    }
    timed = std::make_unique<TimedEngine>(
        faulty != nullptr
            ? static_cast<const qfr::engine::FragmentEngine&>(*faulty)
            : primary);
  }
  std::unique_ptr<qfr::fault::FaultInjector> injector;
  std::unique_ptr<qfr::fault::FaultyEngine> faulty;
  std::unique_ptr<TimedEngine> timed;
};

/// Add the decorator's per-fragment spans to the trace and return their
/// total seconds.
double trace_calls(const std::vector<TimedEngine::Call>& calls,
                   Tracer& tracer) {
  double total = 0.0;
  for (const TimedEngine::Call& c : calls) {
    tracer.add("engine.compute", c.t0, c.t1, c.tid);
    total += c.t1 - c.t0;
  }
  return total;
}

void write_trace(const Args& a, const Tracer& tracer, Outcome& out) {
  const std::string path = a.work_dir + "/trace_" + a.workload + ".json";
  out.gate(tracer.write_chrome(path), "cannot write trace " + path);
}

/// Delete the previous run's checkpoint outside the timed window: the
/// workflow truncates it on open, and truncating a few hundred MB of
/// freshly written pages stalls for seconds depending on disk writeback,
/// which would swamp the spectrum time with disk noise.
void drop_checkpoint(const qm::WorkflowOptions& o) {
  if (!o.checkpoint_path.empty()) std::remove(o.checkpoint_path.c_str());
}

// --- one-spectrum workloads (lda_waters, protein_model) -------------------------

struct SpectrumWorkload {
  BioSystem system;
  /// The tiny system set-up pushes through the workflow.
  BioSystem warmup;
  qm::WorkflowOptions options;
  std::unique_ptr<qfr::engine::FragmentEngine> engine;
  std::optional<qm::RamanWorkflow> workflow;
};

template <class Make>
Outcome run_spectrum_workload(const Args& a, const Sabotage& sab,
                              Make&& make) {
  Outcome out;
  SpectrumWorkload w;
  const double setup_s = timed_setup([&] {
    w.system = BioSystem{};
    make(w);
    w.engine = qm::make_engine(w.options.engine, w.options.batched_gemm);
    w.workflow.emplace(w.options);
    drop_checkpoint(w.options);
    w.workflow->run(w.warmup, *w.engine);
  });
  const std::size_t threads = w.options.n_leaders * w.options.workers_per_leader;

  if (!a.trace) {
    std::vector<double> walls, fps;
    qfr::spectra::RamanSpectrum first;
    repeat_for(a.seconds, 3, [&](std::size_t k) {
      guarded(out, "RamanWorkflow::run", [&] {
        drop_checkpoint(w.options);
        const double t0 = now_s();
        qm::WorkflowResult r = w.workflow->run(w.system, *w.engine);
        walls.push_back(now_s() - t0);
        fps.push_back(static_cast<double>(accepted(r.sweep.outcomes)) /
                      r.engine_seconds);
        if (sab.perturb_spectrum && k == 1) perturb(r.spectrum);
        if (k == 0) first = r.spectrum;
        out.gate(clean_sweep(r.sweep.outcomes) && spectrum_sane(r.spectrum) &&
                     bitwise_equal(r.spectrum, first),
                 "spectrum " + std::to_string(k) +
                     " is not a clean, repeatable spectrum");
      });
    });
    std::fprintf(stderr, "perfbench: spectrum walls");
    for (const double wl : walls) std::fprintf(stderr, " %.4f", wl);
    std::fprintf(stderr, "\n");
    end_to_end(out, walls, sum(walls), median(fps), setup_s);
    return out;
  }

  // Traced: reference runs through the entry point interleaved with the
  // composed pipeline; the fastest of each is compared, so run-to-run
  // noise of the machine does not read as unaccounted time.
  zero_layers(out);
  Tracer tracer;
  ComposedEngine ce(*w.engine, sab.nan_fragment);
  const int pairs = w.options.transport == qfr::runtime::TransportKind::kProcess
                        ? 3
                        : 2;
  double ref_wall = INFINITY;
  qfr::spectra::RamanSpectrum ref;
  std::optional<Composed> best;
  std::vector<TimedEngine::Call> best_calls;
  for (int k = 0; k < pairs; ++k) {
    guarded(out, "RamanWorkflow::run", [&] {
      drop_checkpoint(w.options);
      const double t0 = now_s();
      qm::WorkflowResult r = w.workflow->run(w.system, *w.engine);
      ref_wall = std::min(ref_wall, now_s() - t0);
      if (k == 0) ref = r.spectrum;
      out.gate(clean_sweep(r.sweep.outcomes) && bitwise_equal(r.spectrum, ref),
               "reference spectrum is not clean and repeatable");
    });
    guarded(out, "composed pipeline", [&] {
      drop_checkpoint(w.options);
      Composed c = compose(w.system, w.options, *ce.timed, &tracer);
      std::vector<TimedEngine::Call> calls = ce.timed->take();
      if (sab.perturb_spectrum) perturb(c.spectrum);
      out.gate(clean_sweep(c.report.outcomes) &&
                   bitwise_equal(c.spectrum, ref),
               "composed spectrum differs from RamanWorkflow::run");
      if (!best || c.wall_s < best->wall_s) {
        best = std::move(c);
        best_calls = std::move(calls);
      }
    });
  }
  if (best) {
    const Composed& c = *best;
    std::fprintf(stderr,
                 "perfbench: %zu atoms, %zu fragments; fastest reference "
                 "%.4f s, composed %.4f s, layers %.4f s\n",
                 w.system.n_atoms(), c.fragmentation.fragments.size(),
                 ref_wall, c.wall_s, c.layers_s());
    sweep_metrics(c, threads, out);
    engine_ledger(c, w.options.engine, a.seed, &tracer, out);
    const double decorated = trace_calls(best_calls, tracer);
    if (w.options.transport == qfr::runtime::TransportKind::kThread) {
      out.set("ledger.fragment_unaccounted_frac",
              1.0 - sum(c.report.fragment_seconds) / decorated, "ratio");
    } else {
      out.set("wire.startup_s", process_startup_s(kLeaders, kWorkers, 3), "s");
      const WireReplay wr = replay_wire(c.report);
      out.gate(wr.round_trip_ok, "wire round trip lost a result");
      out.set("wire.result_bytes", wr.bytes, "B");
      out.set("wire.encode_s", wr.encode_s, "s");
      out.set("wire.decode_s", wr.decode_s, "s");
    }
    // RamanWorkflow::run frees its fragments and per-fragment results
    // before returning; the composed run hands them back, so free them
    // here, timed, to close the ledger.
    const double layers = c.layers_s();
    const double composed_wall = c.wall_s;
    double teardown_s = 0.0;
    {
      Tracer::Scope span(&tracer, "pipeline.teardown");
      best.reset();
      teardown_s = span.seconds();
    }
    out.set("pipeline.teardown_s", teardown_s, "s");
    out.set("ledger.unaccounted_frac",
            (ref_wall - layers - teardown_s) / ref_wall, "ratio");
    out.set("trace.overhead_frac",
            (composed_wall + teardown_s - ref_wall) / ref_wall, "ratio");
  }
  write_trace(a, tracer, out);
  return out;
}

// --- traj_rhf ------------------------------------------------------------------

/// SpectrumSeriesSink decorator timing the inner sink.
class TimedSeriesSink final : public qfr::traj::SpectrumSeriesSink {
 public:
  explicit TimedSeriesSink(qfr::traj::SpectrumSeriesSink& inner)
      : inner_(inner) {}
  void on_frame(const qfr::traj::FrameSummary& f) override {
    const double t0 = now_s();
    inner_.on_frame(f);
    seconds += now_s() - t0;
  }
  double seconds = 0.0;

 private:
  qfr::traj::SpectrumSeriesSink& inner_;
};

/// JitterTrajectory plus a fixed schedule of large distortions: every
/// kFullEvery-th frame, one O-H bond of a water picked by the seed is
/// stretched by 0.25 bohr, far past the refresh radius, so the same number
/// of warm fragments pays a full RHF recompute of the same difficulty
/// whatever the seed (a seed-dependent count would make the stream time
/// vary from seed to seed).
class ScheduledJitter final : public qfr::traj::FrameSource {
 public:
  static constexpr std::size_t kFullEvery = 8;

  ScheduledJitter(const BioSystem& base, const qfr::traj::JitterOptions& j)
      : inner_(base, j), seed_(j.seed), n_waters_(base.waters.size()) {}

  std::optional<qfr::traj::Frame> next() override {
    std::optional<qfr::traj::Frame> f = inner_.next();
    if (f && f->index > 0 && f->index % kFullEvery == 0) {
      // A different water each time: stretching one twice would make
      // the second a refresh of the first.
      const std::size_t water = (seed_ + f->index / kFullEvery) % n_waters_;
      const std::size_t o = 3 * water;  // O, then its two H
      const qfr::geom::Vec3 bond = f->positions[o + 1] - f->positions[o];
      f->positions[o + 1] += bond * (0.25 / bond.norm());
    }
    return f;
  }

 private:
  qfr::traj::JitterTrajectory inner_;
  std::uint64_t seed_;
  std::size_t n_waters_;
};

Outcome run_traj(const Args& a, bool tiny, const Sabotage& sab) {
  Outcome out;
  const std::size_t n_waters = tiny ? 3 : 8;
  const std::size_t n_frames = tiny ? 4 : 40;
  BioSystem base;
  qfr::traj::TrajectoryOptions topts;
  std::optional<qfr::traj::TrajectoryRunner> runner;
  const double setup_s = timed_setup([&] {
    base = distinct_waters(n_waters, a.seed);
    topts = traj_options(a);
    runner.emplace(topts);
    const BioSystem small = distinct_waters(1, a.seed);
    qfr::traj::JitterTrajectory frames(small, jitter(a.seed, 2));
    runner->run(small, frames);
  });
  const qfr::traj::JitterOptions jopts = jitter(a.seed, n_frames);

  // The entry point: whole trajectories, each over a fresh cache.
  std::vector<double> frame_walls, warm_walls, frame0_walls, streams;
  double fragments = 0.0;
  std::optional<qfr::traj::TrajectoryResult> first;
  auto stream_once = [&](std::size_t k) {
    guarded(out, "TrajectoryRunner::run", [&] {
      ScheduledJitter frames(base, jopts);
      const double t0 = now_s();
      qfr::traj::TrajectoryResult tr = runner->run(base, frames);
      streams.push_back(now_s() - t0);
      if (sab.perturb_spectrum && k == 1 && !tr.frames.empty())
        perturb(tr.frames[0].spectrum);
      if (k == 0) first = tr;
      out.gate(tr.frames.size() == n_frames, "trajectory lost frames");
      for (std::size_t i = 0; i < tr.frames.size(); ++i) {
        const qfr::traj::FrameSummary& f = tr.frames[i];
        frame_walls.push_back(f.wall_seconds);
        (f.frame == 0 ? frame0_walls : warm_walls).push_back(f.wall_seconds);
        fragments += static_cast<double>(f.n_fragments);
        out.gate(static_cast<std::size_t>(f.tiers.total()) == f.n_fragments &&
                     spectrum_sane(f.spectrum) &&
                     i < first->frames.size() &&
                     bitwise_equal(f.spectrum, first->frames[i].spectrum),
                 "frame " + std::to_string(f.frame) + " of trajectory " +
                     std::to_string(k) + " is incomplete or not repeatable");
      }
    });
  };

  if (!a.trace) {
    repeat_for(a.seconds, 2, stream_once);
    std::fprintf(stderr, "perfbench: stream walls");
    for (const double wl : streams) std::fprintf(stderr, " %.4f", wl);
    std::fprintf(stderr, ", frame 0");
    for (const double wl : frame0_walls) std::fprintf(stderr, " %.4f", wl);
    std::fprintf(stderr, "\n");
    end_to_end(out, frame_walls, sum(streams),
               fragments / std::max(sum(streams), 1e-12), setup_s);
    return out;
  }

  zero_layers(out);
  Tracer tracer;
  stream_once(0);
  if (!first) {
    write_trace(a, tracer, out);
    return out;
  }
  const double ref_stream = streams.front();
  const Tail warm_tail = tail(warm_walls);
  out.set("traj.frame0_s", frame0_walls.front(), "s");
  out.set("traj.stream_s", ref_stream, "s");
  out.set("traj.warm_frame_p50_s", median(warm_walls), "s");
  out.set("traj.warm_frame_tail_s", warm_tail.value, "s");
  out.set("traj.warm_frame_tail_pct", warm_tail.percentile, "%");

  // The same trajectory composed from the layers: the runner's cache and
  // tiered engine, one composed pipeline per frame, a timed series sink.
  guarded(out, "composed trajectory", [&] {
    qfr::cache::CacheOptions copts = topts.cache;
    copts.enabled = true;
    qfr::cache::ResultCache cache(copts);
    const qfr::fault::FragmentResultValidator validator(
        topts.workflow.validator);
    cache.set_insert_filter([&validator](const qfr::engine::FragmentResult& r) {
      return validator.validate(r).ok;
    });
    const std::unique_ptr<qfr::engine::FragmentEngine> primary =
        qm::make_engine(topts.workflow.engine, topts.workflow.batched_gemm);
    ComposedEngine ce(*primary, sab.nan_fragment);
    qfr::traj::ReuseOptions ropts = topts.reuse;
    ropts.validator = &validator;
    // The decorator sits outside the tiered engine so it sees each tier.
    qfr::traj::TieredReuseEngine tiered(
        ce.faulty != nullptr
            ? static_cast<const qfr::engine::FragmentEngine&>(*ce.faulty)
            : *primary,
        cache, ropts);
    TimedEngine timed(tiered);
    qfr::traj::JsonlSpectrumSink jsonl(a.work_dir + "/traj_rhf.traced.jsonl");
    TimedSeriesSink series(jsonl);

    ScheduledJitter frames(base, jopts);
    Composed total;
    std::vector<qfr::spectra::RamanSpectrum> spectra;
    double canon_s = 0.0;
    const double t_stream = now_s();
    while (std::optional<qfr::traj::Frame> fr = frames.next()) {
      const BioSystem sys = qfr::traj::apply_frame(base, *fr);
      const double t0 = now_s();
      Composed c = compose(sys, topts.workflow, timed, &tracer);
      qfr::traj::FrameSummary f;
      f.frame = fr->index;
      f.comment = fr->comment;
      f.wall_seconds = now_s() - t0;
      f.n_fragments = c.fragmentation.fragments.size();
      for (const qfr::runtime::FragmentOutcome& o : c.report.outcomes)
        switch (o.reuse_tier) {
          case qfr::engine::ReuseTier::kExact: ++f.tiers.exact; break;
          case qfr::engine::ReuseTier::kRefresh: ++f.tiers.refresh; break;
          case qfr::engine::ReuseTier::kComputed: ++f.tiers.full; break;
        }
      f.spectrum = c.spectrum;
      series.on_frame(f);
      canon_s += replay_canonicalize(c.fragmentation.fragments,
                                     copts.tolerance, primary->name());
      spectra.push_back(std::move(c.spectrum));
      accumulate(total, std::move(c));
    }
    const double composed_stream = now_s() - t_stream;
    if (sab.perturb_spectrum) perturb(spectra.front());
    for (std::size_t i = 0; i < spectra.size(); ++i)
      out.gate(i < first->frames.size() &&
                   bitwise_equal(spectra[i], first->frames[i].spectrum),
               "composed frame " + std::to_string(i) +
                   " differs from TrajectoryRunner::run");

    // A seeded warm frame against a cold, cache-free recompute: the
    // accuracy of the reuse tiers, reported rather than gated (see
    // perfbench/metrics.json for why the 1e-3 bound cannot hold here).
    const std::size_t k = 1 + qfr::Rng(a.seed).below(n_frames - 1);
    ScheduledJitter again(base, jopts);
    std::optional<qfr::traj::Frame> fk;
    for (std::size_t i = 0; i <= k; ++i) fk = again.next();
    const qm::WorkflowResult cold = qm::RamanWorkflow(topts.workflow)
                                        .run(qfr::traj::apply_frame(base, *fk));
    out.gate(clean_sweep(cold.sweep.outcomes), "cold recompute failed");
    out.set("traj.sample_rel_l2", rel_l2(spectra[k], cold.spectrum), "ratio");

    sweep_metrics(total, kLeaders * kWorkers, out);
    engine_ledger(total, topts.workflow.engine, a.seed, &tracer, out);
    const std::vector<TimedEngine::Call> calls = timed.take();
    const double decorated = trace_calls(calls, tracer);
    out.set("ledger.fragment_unaccounted_frac",
            1.0 - sum(total.report.fragment_seconds) / decorated, "ratio");
    std::map<qfr::engine::ReuseTier, std::vector<double>> by_tier;
    for (const TimedEngine::Call& c : calls)
      by_tier[c.tier].push_back(c.t1 - c.t0);
    out.set("traj.exact_s", median(by_tier[qfr::engine::ReuseTier::kExact]),
            "s");
    out.set("traj.refresh_s",
            median(by_tier[qfr::engine::ReuseTier::kRefresh]), "s");
    out.set("traj.full_s", median(by_tier[qfr::engine::ReuseTier::kComputed]),
            "s");
    const qfr::traj::TierCounts tc = tiered.counts();
    out.set("traj.tier_exact", static_cast<double>(tc.exact), "count");
    out.set("traj.tier_refresh", static_cast<double>(tc.refresh), "count");
    out.set("traj.tier_full", static_cast<double>(tc.full), "count");
    out.set("traj.refresh_rejected", static_cast<double>(tc.refresh_rejected),
            "count");
    out.gate(tc.exact == first->totals.exact &&
                 tc.refresh == first->totals.refresh &&
                 tc.full == first->totals.full,
             "composed tier counts differ from TrajectoryRunner::run");
    out.set("traj.series_s", series.seconds, "s");
    out.set("cache.canonicalize_s", canon_s, "s");
    // The tiered engine probes the cache without counting hits, so the
    // reuse ratio of its tiers stands in for the hit ratio.
    out.set("cache.hit_ratio", tc.reuse_ratio(), "ratio");
    out.set("cache.bytes", static_cast<double>(cache.stats().bytes), "B");
    const double layers = total.layers_s() + series.seconds;
    out.set("ledger.unaccounted_frac", (ref_stream - layers) / ref_stream,
            "ratio");
    out.set("trace.overhead_frac", (composed_stream - ref_stream) / ref_stream,
            "ratio");
  });
  write_trace(a, tracer, out);
  return out;
}

// --- serve_closed ----------------------------------------------------------------

/// Served spectra come partly from the shared result cache, whose hits
/// are transported between frames rather than recomputed. Repeated
/// requests of one system measured up to 2.4e-4 relative L2 apart (the
/// same at 1e-4 and 1e-6 bohr cache tolerance), so served spectra are
/// held to the 1e-3 reuse bound the trajectory parity check uses; bitwise
/// equality is checked where no cache sits in between (composed against
/// direct runs).
constexpr double kServedTolerance = 1e-3;

/// What one request leaves behind once its gate has run (the outcome
/// itself, with its per-request report, is dropped so that memory does
/// not grow with the number of requests served).
struct Served {
  std::size_t system = 0;
  double latency_s = 0.0;
  bool ok = false;
  double queue_s = 0.0;
  double run_s = 0.0;
  double fragments = 0.0;
};

Outcome run_serve(const Args& a, bool tiny, const Sabotage& sab) {
  Outcome out;
  const std::size_t n_systems = tiny ? 2 : 8;
  std::vector<BioSystem> systems;
  std::vector<qfr::serve::SpectrumRequest> templates;
  std::unique_ptr<qfr::serve::Server> server;
  const double setup_s = timed_setup([&] {
    server.reset();
    systems = solvated_peptides(n_systems, tiny ? 3 : 8, tiny ? 4 : 36,
                                a.seed);
    templates.clear();
    for (const BioSystem& s : systems) templates.push_back(request_for(s));
    server = std::make_unique<qfr::serve::Server>(server_options());
    server->submit(request_for(solvated_peptides(1, 3, 4, a.seed)[0])).wait();
  });

  // Closed loop: each client submits, waits for the reply, checks it
  // against the first spectrum served for that system, repeats.
  std::vector<std::vector<Served>> per_client(kClients);
  std::mutex first_mu;
  std::map<std::size_t, qfr::spectra::RamanSpectrum> first_of;
  std::size_t n_done = 0;
  const double t_start = now_s();
  const double t_end = t_start + a.seconds;
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        qfr::Rng rng(a.seed * 1000003 + c);
        do {
          Served s;
          s.system = rng.below(templates.size());
          const double t0 = now_s();
          const qfr::serve::RequestHandle h =
              server->submit(templates[s.system]);
          const qfr::serve::RequestOutcome& o = h.wait();
          s.latency_s = now_s() - t0;
          s.queue_s = o.report.queue_seconds;
          s.run_s = o.report.run_seconds;
          s.fragments = static_cast<double>(accepted(o.report.outcomes));
          qfr::spectra::RamanSpectrum spectrum = o.spectrum;
          s.ok = o.state == qfr::serve::RequestState::kCompleted &&
                 clean_sweep(o.report.outcomes) && !o.report.shed &&
                 spectrum_sane(spectrum);
          std::lock_guard<std::mutex> lock(first_mu);
          if (sab.perturb_spectrum && ++n_done == 2) perturb(spectrum);
          const auto [it, fresh] = first_of.emplace(s.system, spectrum);
          s.ok = s.ok && (fresh || rel_l2(spectrum, it->second) <
                                       kServedTolerance);
          per_client[c].push_back(s);
        } while (now_s() < t_end);
      });
    for (std::thread& t : clients) t.join();
  }
  const double replay_s = now_s() - t_start;
  const qfr::serve::ServerStats stats = server->stats();
  const qfr::cache::CacheStats cstats = server->result_cache()->stats();

  std::vector<Served> served;
  for (const auto& v : per_client) served.insert(served.end(), v.begin(), v.end());
  std::vector<double> latencies, queue, run;
  double fragments = 0.0;
  for (const Served& s : served) {
    // A failed request counts as missing every latency limit.
    latencies.push_back(s.ok ? s.latency_s : INFINITY);
    queue.push_back(s.queue_s);
    run.push_back(s.run_s);
    fragments += s.fragments;
    out.gate(s.ok, "request for system " + std::to_string(s.system) +
                       " failed or served a different spectrum");
  }

  // Each distinct system's served spectrum against a direct workflow run.
  Tracer tracer;
  std::map<std::size_t, Composed> composed;
  double direct_s = 0.0;
  for (const auto& [idx, spectrum] : first_of)
    guarded(out, "direct workflow", [&] {
      const qm::WorkflowOptions wopts = request_workflow(templates[idx]);
      const double t0 = now_s();
      const qm::WorkflowResult direct =
          qm::RamanWorkflow(wopts).run(systems[idx]);
      direct_s += now_s() - t0;
      out.gate(rel_l2(spectrum, direct.spectrum) < kServedTolerance,
               "served spectrum of system " + std::to_string(idx) +
                   " differs from RamanWorkflow::run");
      if (!a.trace) return;
      const std::unique_ptr<qfr::engine::FragmentEngine> primary =
          qm::make_engine(wopts.engine, wopts.batched_gemm);
      ComposedEngine ce(*primary, sab.nan_fragment);
      Composed c = compose(systems[idx], wopts, *ce.timed, &tracer);
      trace_calls(ce.timed->take(), tracer);
      out.gate(bitwise_equal(c.spectrum, direct.spectrum),
               "composed spectrum of system " + std::to_string(idx) +
                   " differs from RamanWorkflow::run");
      composed.emplace(idx, std::move(c));
    });

  const Tail lat_tail = tail(latencies);
  if (!a.trace) {
    std::vector<double> ok_lat;
    for (const double l : latencies)
      if (std::isfinite(l)) ok_lat.push_back(l);
    end_to_end(out, latencies, replay_s, fragments / replay_s, setup_s);
    // A failed request reads as infinitely slow; keep the JSON finite,
    // the failure is already counted.
    if (!std::isfinite(median(latencies)))
      out.set("spectrum_s", median(ok_lat), "s");
    return out;
  }

  zero_layers(out);
  std::fprintf(stderr, "perfbench: %zu requests over %zu systems of", served.size(),
               systems.size());
  for (const BioSystem& sys : systems) std::fprintf(stderr, " %zu", sys.n_atoms());
  std::fprintf(stderr, " atoms\n");
  out.set("serve.queue_s", median(queue), "s");
  out.set("serve.run_s", median(run), "s");
  out.set("serve.shed", static_cast<double>(stats.shed), "count");
  out.set("serve.rejected",
          static_cast<double>(stats.rejected_overload + stats.rejected_quota +
                              stats.rejected_shutdown),
          "count");
  out.set("serve.requests_per_s", static_cast<double>(served.size()) / replay_s,
          "1/s");
  out.set("serve.request_p50_s", median(latencies), "s");
  out.set("serve.request_tail_s",
          std::isfinite(lat_tail.value) ? lat_tail.value : -1.0, "s");
  out.set("serve.request_tail_pct", lat_tail.percentile, "%");
  out.set("cache.hit_ratio", cstats.hit_rate(), "ratio");
  out.set("cache.bytes", static_cast<double>(cstats.bytes), "B");
  if (!composed.empty()) {
    // Canonicalization replayed over every served request's fragments.
    double canon_s = 0.0;
    for (const Served& s : served)
      if (const auto it = composed.find(s.system); it != composed.end())
        canon_s += replay_canonicalize(
            it->second.fragmentation.fragments,
            server->result_cache()->options().tolerance, "model");
    out.set("cache.canonicalize_s", canon_s, "s");
    Composed total;
    for (auto& [idx, c] : composed) accumulate(total, std::move(c));
    sweep_metrics(total, kLeaders * kWorkers, out);
    out.set("ledger.unaccounted_frac",
            (direct_s - total.layers_s()) / direct_s,
            "ratio");
    out.set("trace.overhead_frac", (total.wall_s - direct_s) / direct_s,
            "ratio");
  }
  write_trace(a, tracer, out);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "lda_waters", "protein_model", "traj_rhf", "serve_closed"};
  return names;
}

Outcome run_workload(const Args& a, bool tiny, const Sabotage& sab) {
  if (a.workload == "lda_waters")
    return run_spectrum_workload(a, sab, [&](SpectrumWorkload& w) {
      w.system = distinct_waters(tiny ? 2 : 6, a.seed);
      w.warmup = distinct_waters(1, a.seed);
      w.options = lda_options();
    });
  if (a.workload == "protein_model")
    return run_spectrum_workload(a, sab, [&](SpectrumWorkload& w) {
      w.system = tiny ? solvated_trimer(4, 12.0, a.seed)
                      : solvated_trimer(40, 35.0, a.seed);
      w.warmup = solvated_trimer(4, 12.0, a.seed);
      w.options = protein_options(a);
    });
  if (a.workload == "traj_rhf") return run_traj(a, tiny, sab);
  if (a.workload == "serve_closed") return run_serve(a, tiny, sab);
  Outcome out;
  out.gate(false, "unknown workload '" + a.workload + "'");
  return out;
}

}  // namespace perfbench
