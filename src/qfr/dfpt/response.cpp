#include "qfr/dfpt/response.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "qfr/common/error.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/xc/lda.hpp"

namespace qfr::dfpt {

namespace {
using la::Matrix;
using la::Vector;

std::span<double> flat(Matrix& m) { return {m.data(), m.size()}; }
}  // namespace

ResponseEngine::ResponseEngine(std::shared_ptr<const scf::ScfContext> ctx,
                               const scf::ScfResult& scf_state,
                               scf::XcModel xc, DfptOptions options)
    : ctx_(std::move(ctx)), scf_(scf_state), xc_(xc), options_(options) {
  QFR_REQUIRE(ctx_ != nullptr, "null SCF context");
  QFR_REQUIRE(scf_.converged, "ResponseEngine requires a converged SCF state");
  exec_ = options_.batch;
  if (exec_ == nullptr) {
    owned_exec_ = std::make_unique<la::BatchedExecutor>();
    exec_ = owned_exec_.get();
  }
  if (xc_ == scf::XcModel::kLda) {
    grid_ = std::make_shared<grid::MolGrid>(ctx_->mol, 40);
    batch_ = std::make_unique<grid::BasisBatch>(grid::evaluate_basis(
        ctx_->bs, grid_->points(), /*with_gradient=*/false));
    const Vector rho0 = grid::density_on_batch(*batch_, scf_.density);
    fxc_.assign(rho0.size(), 0.0);
    xc::lda_exchange_batch(rho0, {}, {}, fxc_);
  }
  if (obs::Session* s = obs::current()) {
    obs::MetricsRegistry& m = s->metrics();
    h_p1_ = &m.histogram("dfpt.phase.p1.seconds");
    h_n1_ = &m.histogram("dfpt.phase.n1.seconds");
    h_v1_ = &m.histogram("dfpt.phase.v1.seconds");
    h_h1_ = &m.histogram("dfpt.phase.h1.seconds");
    h_solve_ = &m.histogram("cpscf.solve.seconds");
    h_iters_ = &m.histogram("cpscf.iterations");
  }
}

void ResponseEngine::record_phase(double PhaseTimes::*field,
                                  obs::Histogram* hist) {
  const double seconds = phase_clock_.lap();
  times_.*field += seconds;
  if (hist != nullptr) hist->observe(seconds);
}

Matrix ResponseEngine::induced_fock(const Matrix& p1) {
  const bool lda = xc_ == scf::XcModel::kLda;
  const std::size_t n = ctx_->bs.n_functions();

  // Phase n1 (LDA): the response density on the grid (the paper's hot
  // GEMM, Fig. 9).
  Vector n1;
  if (lda) {
    {
      QFR_TRACE_SPAN("dfpt.n1", "dfpt");
      n1 = grid::density_on_batch(*batch_, p1);
      flops_ += la::gemm_flops(batch_->chi.rows(), n, n);
    }
    // Recorded after the span closes so the phase time absorbs the span's
    // own emission cost: the four-phase sum then tracks the solve timer
    // even when tracing is on.
    record_phase(&PhaseTimes::n1, h_n1_);
  }

  // Phase v1: the response Hartree potential as the analytic J(P1).
  Matrix v;
  {
    QFR_TRACE_SPAN("dfpt.v1", "dfpt");
    v = ctx_->eri.coulomb(p1);
  }
  record_phase(&PhaseTimes::v1, h_v1_);

  // Phase h1: the rest of the induced Fock matrix — -K(P1)/2 for HF, or
  // f_xc * n1 folded back into matrix form for LDA (one symmetric
  // strength-reduced contraction).
  {
    QFR_TRACE_SPAN("dfpt.h1", "dfpt");
    if (lda) {
      Vector v1_pts(n1.size());
      for (std::size_t i = 0; i < n1.size(); ++i) v1_pts[i] = fxc_[i] * n1[i];
      grid::accumulate_potential_matrix(*batch_, grid_->points(), v1_pts, v);
      flops_ += la::gemm_flops(n, n, batch_->chi.rows());
    } else {
      const Matrix k = ctx_->eri.exchange(p1);
      for (std::size_t a = 0; a < n; ++a)
        for (std::size_t b = 0; b < n; ++b) v(a, b) -= 0.5 * k(a, b);
    }
  }
  record_phase(&PhaseTimes::h1, h_h1_);
  return v;
}

ResponseResult ResponseEngine::solve(const Matrix& h1) {
  obs::SpanGuard solve_span(obs::current(), "cpscf.solve", "dfpt");
  WallTimer solve_timer;
  // Whole-solve wall time is recorded on every exit (including the
  // nonconvergence throw) so the phase decomposition stays comparable to
  // cpscf.solve.seconds even for failed attempts.
  struct SolveRecord {
    ResponseEngine* eng;
    WallTimer* timer;
    ~SolveRecord() {
      if (eng->h_solve_ != nullptr)
        eng->h_solve_->observe(timer->seconds());
    }
  } solve_record{this, &solve_timer};

  const std::size_t n = ctx_->bs.n_functions();
  QFR_REQUIRE(h1.rows() == n && h1.cols() == n,
              "h1 shape mismatch: " << h1.rows() << "x" << h1.cols()
                                    << " for " << n << " basis functions");
  const auto n_occ = static_cast<std::size_t>(scf_.n_occupied);
  QFR_REQUIRE(n > n_occ, "no virtual orbitals: basis too small for DFPT");
  const std::size_t n_virt = n - n_occ;

  const Matrix& c = scf_.mo_coefficients;
  const Vector& eps = scf_.mo_energies;

  // Workspaces and CG vectors, allocated once per solve. Amplitudes are
  // n_virt x n_occ (virtual a, occupied i); response densities are n x n.
  Matrix tmp(n_virt, n), w(n, n_occ), mrot(n, n);
  Matrix gap(n_virt, n_occ), r(n_virt, n_occ), z(n_virt, n_occ),
      p(n_virt, n_occ), ap(n_virt, n_occ);
  Matrix p_dir(n, n), p_z(n, n);
  ResponseResult res;
  res.p1.resize_zero(n, n);

  // One GEMM through the executor, flushed at once: the CG step needs
  // each product before the next.
  auto gemm = [&](const la::GemmTask& t) {
    exec_->enqueue(t);
    exec_->flush();
    flops_ += la::gemm_flops(t.m, t.n, t.k);
  };
  const double* c_virt = c.data() + n_occ;  // columns [n_occ, n) of C
  const double* c_occ = c.data();           // columns [0, n_occ) of C

  // [C^T F C]_vo: the virtual-occupied block of an AO matrix in the MO
  // basis, as (C_virt^T F) C_occ.
  auto to_vo = [&](const Matrix& f, Matrix& out) {
    gemm({.m = n_virt, .n = n, .k = n, .a = c_virt, .lda = n,
          .ta = la::Trans::kYes, .b = f.data(), .ldb = n, .c = tmp.data(),
          .ldc = n});
    gemm({.m = n_virt, .n = n_occ, .k = n, .a = tmp.data(), .lda = n,
          .b = c_occ, .ldb = n, .c = out.data(), .ldc = n_occ});
  };

  // Response density of amplitudes x as two GEMMs instead of the O(n^4)
  // amplitude loop: W = C_virt x, M = W C_occ^T, P = 2 (M + M^T).
  auto density = [&](const Matrix& x, Matrix& out) {
    gemm({.m = n, .n = n_occ, .k = n_virt, .a = c_virt, .lda = n,
          .b = x.data(), .ldb = n_occ, .c = w.data(), .ldc = n_occ});
    gemm({.m = n, .n = n, .k = n_occ, .a = w.data(), .lda = n_occ,
          .b = c_occ, .ldb = n, .tb = la::Trans::kYes, .c = mrot.data(),
          .ldc = n});
    for (std::size_t mu = 0; mu < n; ++mu)
      for (std::size_t nu = 0; nu < n; ++nu)
        out(mu, nu) = 2.0 * (mrot(mu, nu) + mrot(nu, mu));
  };

  // The CPSCF equations for the amplitudes x are A x = b with
  //   A x = D o x + [C^T G(P(x)) C]_vo,  D_ai = eps_a - eps_i,
  //   b   = -[C^T h1 C]_vo,
  // G the induced two-electron response. For closed-shell static response
  // A is symmetric positive definite, so they are solved by conjugate
  // gradients preconditioned with D^-1 (the orbital gaps), from the
  // uncoupled start x0 = D^-1 b. Only P(x) is kept: P is linear, so the
  // density of each update follows from the densities already built.
  // Setup (phase p1): D, x0 and P(x0), the first vector to apply G to.
  phase_clock_.reset();
  {
    QFR_TRACE_SPAN("dfpt.p1", "dfpt");
    for (std::size_t a = 0; a < n_virt; ++a)
      for (std::size_t i = 0; i < n_occ; ++i) {
        gap(a, i) = eps[n_occ + a] - eps[i];
        QFR_ASSERT(std::fabs(gap(a, i)) > 1e-10, "vanishing HOMO-LUMO gap");
      }
    to_vo(h1, z);  // z holds x0 until the loop starts
    for (std::size_t k = 0; k < z.size(); ++k)
      z.data()[k] = -z.data()[k] / gap.data()[k];
    density(z, res.p1);
    p_dir = res.p1;
  }
  record_phase(&PhaseTimes::p1, h_p1_);

  double rz = 0.0;         // r^T D^-1 r of the current residual
  double curvature = 0.0;  // p^T A p of the last step
  double delta = 0.0;      // max |P(D^-1 r)|: the P1 change of one
                           // unmixed fixed-point step from x
  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    // A revoked fragment stops mid-solve instead of finishing a result
    // the scheduler would fence out anyway.
    options_.cancel.throw_if_cancelled();

    // Induced two-electron response of P(x0) on the first iteration and
    // of P(p) after it (phases n1/v1/h1 inside).
    const Matrix g = induced_fock(p_dir);

    // Phase p1: the MO transform, the CG vector updates and the
    // convergence residual, so the four-phase sum accounts for the whole
    // iteration.
    {
      QFR_TRACE_SPAN("dfpt.p1", "dfpt");
      to_vo(g, ap);
      if (iter == 1) {
        // r0 = b - A x0 = -[C^T G(P(x0)) C]_vo, since D x0 = b.
        for (std::size_t k = 0; k < r.size(); ++k) r.data()[k] = -ap.data()[k];
      } else {
        for (std::size_t k = 0; k < ap.size(); ++k)
          ap.data()[k] += gap.data()[k] * p.data()[k];
        curvature = la::dot(flat(p), flat(ap));
        const double step = rz / curvature;
        la::axpy(step, flat(p_dir), flat(res.p1));
        la::axpy(-step, flat(ap), flat(r));
      }
      for (std::size_t k = 0; k < z.size(); ++k)
        z.data()[k] = r.data()[k] / gap.data()[k];
      density(z, p_z);
      delta = 0.0;
      for (std::size_t k = 0; k < p_z.size(); ++k)
        delta = std::max(delta, std::fabs(p_z.data()[k]));
      // Next search direction p = z + beta p, and its density by
      // linearity.
      const double rz_next = la::dot(flat(r), flat(z));
      const double beta = iter == 1 ? 0.0 : rz_next / rz;
      rz = rz_next;
      for (std::size_t k = 0; k < p.size(); ++k)
        p.data()[k] = z.data()[k] + beta * p.data()[k];
      for (std::size_t k = 0; k < p_dir.size(); ++k)
        p_dir.data()[k] = p_z.data()[k] + beta * p_dir.data()[k];
      res.iterations = iter;
    }
    record_phase(&PhaseTimes::p1, h_p1_);
    const bool broke_down =
        iter > 1 && !(curvature > 0.0 && std::isfinite(curvature));
    if (broke_down || !std::isfinite(delta)) {
      QFR_NUMERIC_FAIL("CPSCF conjugate gradient broke down at iteration "
                       << iter << " (p^T A p = " << curvature
                       << ", |dP1| = " << delta << ", tolerance "
                       << options_.tolerance << ")");
    }
    if (delta < options_.tolerance) {
      if (h_iters_ != nullptr) h_iters_->observe(res.iterations);
      return res;
    }
  }
  QFR_NUMERIC_FAIL("CPSCF failed to converge in "
                   << options_.max_iterations
                   << " iterations (last |dP1| = " << delta << ", tolerance "
                   << options_.tolerance << ")");
}

PolarizabilityResult ResponseEngine::polarizability() {
  QFR_TRACE_SPAN("dfpt.polarizability", "dfpt");
  PolarizabilityResult out;
  out.alpha.resize_zero(3, 3);
  for (int d = 0; d < 3; ++d) {
    const ResponseResult r = solve(ctx_->dip[d]);
    out.total_iterations += r.iterations;
    for (int cidx = 0; cidx < 3; ++cidx) {
      // alpha_cd = -Tr[P1^(d) D_c]; the minus sign matches the +F.D
      // convention of the perturbation (see ScfOptions::external_field).
      out.alpha(cidx, d) = -la::trace_product(r.p1, ctx_->dip[cidx]);
    }
  }
  out.times = times_;
  return out;
}

}  // namespace qfr::dfpt
