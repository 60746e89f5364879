#include "qfr/dfpt/response.hpp"

#include <cmath>

#include "qfr/common/error.hpp"
#include "qfr/common/log.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/xc/lda.hpp"

namespace qfr::dfpt {

namespace {
using la::Matrix;
using la::Vector;
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
  const int n_occ = scf_.n_occupied;
  const auto n_virt = static_cast<int>(n) - n_occ;
  QFR_REQUIRE(n_virt > 0, "no virtual orbitals: basis too small for DFPT");

  const Matrix& c = scf_.mo_coefficients;
  const Vector& eps = scf_.mo_energies;

  ResponseResult res;
  double last_delta = 0.0;
  // Workspaces, allocated once and reused every iteration.
  Matrix f1, tmp, f1mo, u, w, mrot;

  // One CPSCF pass at the given mixing; true when it converged.
  auto attempt = [&](double mixing) {
    res = ResponseResult{};
    res.p1.resize_zero(n, n);
    phase_clock_.reset();

    for (int iter = 1; iter <= options_.max_iterations; ++iter) {
      // A revoked fragment stops mid-solve instead of finishing a result
      // the scheduler would fence out anyway.
      options_.cancel.throw_if_cancelled();

      // Induced two-electron response (phases n1/v1/h1 inside).
      Matrix v1_ind;
      if (iter > 1) v1_ind = induced_fock(res.p1);

      // Phase p1: update the response density matrix — Fock assembly,
      // MO transform, amplitude build, mixing, and the convergence
      // residual, so the four-phase sum accounts for the whole iteration.
      {
        QFR_TRACE_SPAN("dfpt.p1", "dfpt");
        // Full first-order Fock and its MO transform F1_mo = C^T F1 C.
        f1 = h1;
        if (iter > 1) f1 += v1_ind;
        tmp.resize_zero(n, n);
        exec_->enqueue(la::Trans::kYes, la::Trans::kNo, 1.0, c, f1, 0.0, tmp);
        exec_->flush();
        f1mo.resize_zero(n, n);
        exec_->enqueue(la::Trans::kNo, la::Trans::kNo, 1.0, tmp, c, 0.0, f1mo);
        exec_->flush();
        flops_ += 2 * la::gemm_flops(n, n, n);

        // Occupied-virtual rotation amplitudes, then the response density
        // as two GEMMs instead of the O(n^4) amplitude loop:
        //   W = C_virt U_vo   (n x n_occ),
        //   M = W C_occ^T     (n x n),
        //   P1 = 2 (M + M^T).
        u.resize_zero(n, n);  // only the (virt, occ) block is used
        for (int a = n_occ; a < static_cast<int>(n); ++a)
          for (int i = 0; i < n_occ; ++i) {
            const double gap = eps[i] - eps[a];
            QFR_ASSERT(std::fabs(gap) > 1e-10, "vanishing HOMO-LUMO gap");
            u(a, i) = f1mo(a, i) / gap;
          }
        w.resize_zero(n, static_cast<std::size_t>(n_occ));
        la::GemmTask tw;
        tw.m = n;
        tw.n = static_cast<std::size_t>(n_occ);
        tw.k = static_cast<std::size_t>(n_virt);
        tw.a = c.data() + n_occ;  // columns [n_occ, n) of C
        tw.lda = n;
        tw.ta = la::Trans::kNo;
        tw.b = u.data() + static_cast<std::size_t>(n_occ) * n;
        tw.ldb = n;  // rows [n_occ, n), columns [0, n_occ) of U
        tw.tb = la::Trans::kNo;
        tw.c = w.data();
        tw.ldc = static_cast<std::size_t>(n_occ);
        exec_->enqueue(tw);
        exec_->flush();
        mrot.resize_zero(n, n);
        la::GemmTask tm;
        tm.m = n;
        tm.n = n;
        tm.k = static_cast<std::size_t>(n_occ);
        tm.a = w.data();
        tm.lda = static_cast<std::size_t>(n_occ);
        tm.ta = la::Trans::kNo;
        tm.b = c.data();  // columns [0, n_occ) of C
        tm.ldb = n;
        tm.tb = la::Trans::kYes;
        tm.c = mrot.data();
        tm.ldc = n;
        exec_->enqueue(tm);
        exec_->flush();
        flops_ += la::gemm_flops(n, static_cast<std::size_t>(n_occ),
                                 static_cast<std::size_t>(n_virt)) +
                  la::gemm_flops(n, n, static_cast<std::size_t>(n_occ));

        // Symmetrize, mix, and measure the residual.
        Matrix p1_new(n, n);
        for (std::size_t mu = 0; mu < n; ++mu)
          for (std::size_t nu = 0; nu < n; ++nu)
            p1_new(mu, nu) = 2.0 * (mrot(mu, nu) + mrot(nu, mu));
        if (iter > 1) {
          for (std::size_t k = 0; k < p1_new.size(); ++k)
            p1_new.data()[k] = mixing * p1_new.data()[k] +
                               (1.0 - mixing) * res.p1.data()[k];
        }
        last_delta = la::max_abs_diff(p1_new, res.p1);
        res.p1 = std::move(p1_new);
        res.iterations = iter;
      }
      record_phase(&PhaseTimes::p1, h_p1_);
      if (iter > 1 && last_delta < options_.tolerance) return true;
    }
    return false;
  };

  bool converged = attempt(options_.mixing);
  if (!converged && options_.escalate_on_nonconvergence) {
    const double mixing2 = 0.5 * options_.mixing;
    QFR_LOG_WARN("CPSCF did not converge in ", options_.max_iterations,
                 " iterations (last |dP1| = ", last_delta,
                 "); retrying with mixing ", mixing2);
    converged = attempt(mixing2);
  }
  if (!converged) {
    QFR_NUMERIC_FAIL("CPSCF failed to converge in "
                     << options_.max_iterations
                     << " iterations (last |dP1| = " << last_delta
                     << ", tolerance " << options_.tolerance
                     << (options_.escalate_on_nonconvergence
                             ? ", escalated retry included)"
                             : ")"));
  }

  if (h_iters_ != nullptr) h_iters_->observe(res.iterations);
  return res;
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
