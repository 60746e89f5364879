#include "qfr/engine/scf_engine.hpp"

#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "qfr/common/thread_pool.hpp"

#include "qfr/common/cancel.hpp"
#include "qfr/common/error.hpp"
#include "qfr/dfpt/response.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/integrals/gradients.hpp"
#include "qfr/la/blas.hpp"

namespace qfr::engine {

namespace {

using chem::Molecule;
using la::Matrix;

struct PointResult {
  double energy = 0.0;
  Matrix alpha;        // 3x3 (empty when dalpha not requested)
  geom::Vec3 dipole;   // total dipole about the origin
  la::Vector gradient; // analytic nuclear gradient (gradient mode only)
};

// One displaced-geometry job: SCF (+ DFPT when alpha is needed, + analytic
// gradient in gradient mode). The cancel token is passed explicitly — the
// runtime installs it on the thread computing the fragment, but
// displacement jobs may run on the leader pool's helper threads, where
// that thread-local is not visible.
PointResult evaluate_point(const Molecule& mol, const ScfEngineOptions& opts,
                           const Matrix* warm_density, bool with_alpha,
                           bool with_gradient, dfpt::PhaseTimes* times,
                           std::int64_t* flops,
                           const common::CancelToken& cancel = {}) {
  cancel.throw_if_cancelled();
  auto ctx = std::make_shared<scf::ScfContext>(scf::ScfContext::build(mol));
  // One executor per displacement job: SCF and DFPT share it, so its
  // la.batch.* accounting covers the job end to end. Jobs on different
  // worker threads each build their own (the executor is not
  // thread-safe).
  la::BatchedExecutor exec(opts.batched_gemm
                               ? la::BatchedExecutor::Policy::kBatched
                               : la::BatchedExecutor::Policy::kEager);
  scf::ScfOptions sopts;
  sopts.xc = opts.xc;
  sopts.cancel = cancel;
  sopts.batched = opts.batched_gemm;
  sopts.batch = &exec;
  // Finite differences of CPSCF polarizabilities amplify residual SCF
  // error by ~1/gap^2; tight thresholds keep the dalpha noise below the
  // discretization error of the central differences.
  sopts.energy_tolerance = 1e-12;
  sopts.commutator_tolerance = 1e-9;
  const scf::ScfSolver solver(ctx, sopts);
  // Warm starts only help when the basis dimension is unchanged, which is
  // always true for pure displacements.
  const scf::ScfResult scf_res =
      (warm_density != nullptr &&
       warm_density->rows() == ctx->bs.n_functions())
          ? solver.solve(warm_density)
          : solver.solve();

  PointResult out;
  out.energy = scf_res.energy;
  out.dipole = scf::dipole_moment(*ctx, scf_res.density);
  if (with_gradient) out.gradient = ints::rhf_gradient(*ctx, scf_res);
  if (with_alpha) {
    dfpt::DfptOptions dopts;
    dopts.tolerance = 1e-10;
    dopts.cancel = cancel;
    dopts.batched = opts.batched_gemm;
    dopts.batch = &exec;
    dfpt::ResponseEngine engine(ctx, scf_res, opts.xc, dopts);
    const dfpt::PolarizabilityResult pol = engine.polarizability();
    QFR_ASSERT(pol.converged, "DFPT did not converge at displaced geometry");
    out.alpha = pol.alpha;
    if (times != nullptr) *times += engine.phase_times();
    if (flops != nullptr) *flops += engine.gemm_flops();
  }
  return out;
}

}  // namespace

FragmentResult ScfEngine::compute(const Molecule& fragment) const {
  QFR_REQUIRE(!fragment.empty(), "empty fragment");
  const std::size_t n = fragment.size();
  const std::size_t dim = 3 * n;
  const double h = options_.displacement;
  const bool gradient_mode =
      options_.hessian_mode == HessianMode::kGradientFd;
  QFR_REQUIRE(!gradient_mode || options_.xc == scf::XcModel::kHartreeFock,
              "analytic gradients are implemented for Hartree-Fock; use "
              "HessianMode::kEnergyFd with the LDA model");

  FragmentResult res;
  res.hessian.resize_zero(dim, dim);
  res.dalpha.resize_zero(6, dim);
  res.dmu.resize_zero(3, dim);

  // Cancellation: capture the runtime's ambient token once on this thread;
  // it is handed to every solver (including jobs on the leader pool's
  // helper threads, which do not inherit the thread-local) so a revoked
  // fragment aborts mid-sweep instead of finishing hundreds of
  // displaced-geometry solves.
  const common::CancelToken cancel = common::current_cancel_token();
  // Same capture for observability: displacement jobs re-install the
  // ambient session on helper threads so SCF/DFPT instrument themselves.
  obs::Session* const obs = obs::current();

  // Equilibrium point: energy, density (warm start), polarizability.
  auto ctx0 = std::make_shared<scf::ScfContext>(scf::ScfContext::build(fragment));
  la::BatchedExecutor exec0(options_.batched_gemm
                                ? la::BatchedExecutor::Policy::kBatched
                                : la::BatchedExecutor::Policy::kEager);
  scf::ScfOptions sopts;
  sopts.xc = options_.xc;
  sopts.energy_tolerance = 1e-12;
  sopts.commutator_tolerance = 1e-9;
  sopts.cancel = cancel;
  sopts.batched = options_.batched_gemm;
  sopts.batch = &exec0;
  const scf::ScfResult scf0 = scf::ScfSolver(ctx0, sopts).solve();
  res.energy = scf0.energy;
  if (options_.compute_dalpha) {
    dfpt::DfptOptions dopts0;
    dopts0.cancel = cancel;
    dopts0.batched = options_.batched_gemm;
    dopts0.batch = &exec0;
    dfpt::ResponseEngine engine0(ctx0, scf0, options_.xc, dopts0);
    const dfpt::PolarizabilityResult pol0 = engine0.polarizability();
    res.alpha = pol0.alpha;
    res.phase_times += engine0.phase_times();
    res.flops += engine0.gemm_flops();
  }

  auto displace = [&](std::size_t coord, double step) {
    const std::size_t atom = coord / 3;
    geom::Vec3 delta;
    delta[static_cast<int>(coord % 3)] = step;
    return fragment.displaced(atom, delta);
  };

  std::mutex accounting;  // guards the phase/flop/task tallies

  // Single displacement of coordinate c: +/-h. These serve the Hessian
  // diagonal (energy mode) or column c (gradient mode) and, with DFPT,
  // column c of the polarizability derivatives.
  auto run_single = [&](std::size_t c) {
    obs::SpanGuard span(obs, "displacement.pair", "engine");
    span.arg("coord", static_cast<double>(c));
    dfpt::PhaseTimes times;
    std::int64_t flops = 0;
    const PointResult plus = evaluate_point(
        displace(c, +h), options_, &scf0.density, options_.compute_dalpha,
        gradient_mode, &times, &flops, cancel);
    const PointResult minus = evaluate_point(
        displace(c, -h), options_, &scf0.density, options_.compute_dalpha,
        gradient_mode, &times, &flops, cancel);
    if (gradient_mode) {
      // Full Hessian column from the analytic gradients.
      for (std::size_t r = 0; r < dim; ++r)
        res.hessian(r, c) = (plus.gradient[r] - minus.gradient[r]) / (2.0 * h);
    } else {
      res.hessian(c, c) =
          (plus.energy - 2.0 * res.energy + minus.energy) / (h * h);
    }

    for (int k = 0; k < 3; ++k)
      res.dmu(k, c) = (plus.dipole[k] - minus.dipole[k]) / (2.0 * h);

    if (options_.compute_dalpha) {
      // Rows: xx, yy, zz, xy, xz, yz.
      static constexpr int comp_i[6] = {0, 1, 2, 0, 0, 1};
      static constexpr int comp_j[6] = {0, 1, 2, 1, 2, 2};
      for (int k = 0; k < 6; ++k) {
        res.dalpha(k, c) = (plus.alpha(comp_i[k], comp_j[k]) -
                            minus.alpha(comp_i[k], comp_j[k])) /
                           (2.0 * h);
      }
    }
    std::lock_guard<std::mutex> lock(accounting);
    res.phase_times += times;
    res.flops += flops;
    res.displacement_tasks += 2;
  };

  // Cross second derivative of coordinates a < b from four double
  // displacements (energy mode only).
  auto run_cross = [&](std::size_t a, std::size_t b) {
    obs::SpanGuard span(obs, "displacement.cross", "engine");
    span.arg("a", static_cast<double>(a)).arg("b", static_cast<double>(b));
    auto energy = [&](double sa, double sb) {
      Molecule m = displace(a, sa);
      geom::Vec3 delta;
      delta[static_cast<int>(b % 3)] = sb;
      return evaluate_point(m.displaced(b / 3, delta), options_,
                            &scf0.density, false, false, nullptr, nullptr,
                            cancel)
          .energy;
    };
    const double epp = energy(+h, +h);
    const double epm = energy(+h, -h);
    const double emp = energy(-h, +h);
    const double emm = energy(-h, -h);
    const double hab = (epp - epm - emp + emm) / (4.0 * h * h);
    res.hessian(a, b) = hab;
    res.hessian(b, a) = hab;
    std::lock_guard<std::mutex> lock(accounting);
    res.displacement_tasks += 4;
  };

  // One job list: every single displacement, then (energy mode) every
  // cross pair. Each displaced geometry is an independent SCF(+DFPT) job
  // — the worker tier of the paper's hierarchy — and each job writes only
  // its own Hessian, dalpha and dmu slots, so any schedule gives bitwise
  // the same result. The jobs run on the pool of the leader computing
  // this fragment, or serially outside any pool.
  std::vector<std::pair<std::size_t, std::size_t>> crosses;
  if (!gradient_mode)
    for (std::size_t a = 0; a < dim; ++a)
      for (std::size_t b = a + 1; b < dim; ++b) crosses.emplace_back(a, b);
  const std::function<void(std::size_t)> job = [&](std::size_t j) {
    cancel.throw_if_cancelled();
    // Helper threads do not inherit the caller's ambient session.
    obs::ScopedSession obs_scope(obs);
    if (j < dim)
      run_single(j);
    else
      run_cross(crosses[j - dim].first, crosses[j - dim].second);
  };
  const std::size_t n_jobs = dim + crosses.size();
  if (ThreadPool* const pool = ThreadPool::current())
    pool->parallel_for(n_jobs, job);
  else
    for (std::size_t j = 0; j < n_jobs; ++j) job(j);

  if (gradient_mode) {
    // Symmetrize the FD-of-gradient Hessian (the antisymmetric residue is
    // pure finite-difference noise).
    for (std::size_t a = 0; a < dim; ++a)
      for (std::size_t b = a + 1; b < dim; ++b) {
        const double sym = 0.5 * (res.hessian(a, b) + res.hessian(b, a));
        res.hessian(a, b) = sym;
        res.hessian(b, a) = sym;
      }
  }
  return res;
}

}  // namespace qfr::engine
