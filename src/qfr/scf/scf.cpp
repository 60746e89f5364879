#include "qfr/scf/scf.hpp"

#include <cmath>
#include <deque>
#include <optional>

#include "qfr/common/error.hpp"
#include "qfr/common/log.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/grid/molgrid.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/grid/orbital_eval.hpp"
#include "qfr/integrals/one_electron.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/la/eig.hpp"
#include "qfr/xc/lda.hpp"

namespace qfr::scf {

namespace {

using la::Matrix;
using la::Vector;

// Closed-shell density from the occupied MO block, P = 2 C_occ C_occ^T:
// the result is symmetric, so the kernels compute only the on/above-
// diagonal blocks and mirror (Fig. 6 strength reduction). `vectors` holds
// MOs in columns; the occupied block is the strided submatrix of its
// first n_occ columns.
void enqueue_density_build(la::BatchedExecutor& exec, const Matrix& vectors,
                           int n_occ, Matrix& density) {
  const std::size_t n = vectors.rows();
  density.resize_zero(n, n);
  la::GemmTask t;
  t.m = n;
  t.n = n;
  t.k = static_cast<std::size_t>(n_occ);
  t.a = vectors.data();
  t.lda = vectors.cols();
  t.ta = la::Trans::kNo;
  t.b = vectors.data();
  t.ldb = vectors.cols();
  t.tb = la::Trans::kYes;
  t.c = density.data();
  t.ldc = n;
  t.alpha = 2.0;
  t.beta = 0.0;
  t.sym = la::TaskSym::kSymmetricOut;
  exec.enqueue(t);
}

// Nuclear charge center: origin for dipole integrals, which makes
// polarizabilities origin-consistent for neutral fragments.
geom::Vec3 charge_center(const chem::Molecule& mol) {
  geom::Vec3 c;
  double q = 0.0;
  for (const auto& a : mol.atoms()) {
    const double z = chem::atomic_number(a.element);
    c += a.position * z;
    q += z;
  }
  return c / q;
}

// DIIS extrapolation state.
class Diis {
 public:
  explicit Diis(int depth) : depth_(depth) {}

  void push(const Matrix& fock, const Matrix& error) {
    focks_.push_back(fock);
    errors_.push_back(error);
    if (static_cast<int>(focks_.size()) > depth_) {
      focks_.pop_front();
      errors_.pop_front();
    }
  }

  // Solve the Pulay equations; returns the extrapolated Fock matrix.
  Matrix extrapolate() const {
    const std::size_t m = focks_.size();
    QFR_ASSERT(m > 0, "DIIS extrapolate with empty history");
    if (m == 1) return focks_[0];
    Matrix b(m + 1, m + 1);
    Vector rhs(m + 1, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double v = la::dot({errors_[i].data(), errors_[i].size()},
                                 {errors_[j].data(), errors_[j].size()});
        b(i, j) = b(j, i) = v;
      }
      b(i, m) = b(m, i) = -1.0;
    }
    b(m, m) = 0.0;
    rhs[m] = -1.0;
    Vector coef;
    try {
      coef = la::lu_solve(b, rhs);
    } catch (const NumericalError&) {
      return focks_.back();  // singular B: fall back to the latest Fock
    }
    Matrix f(focks_[0].rows(), focks_[0].cols());
    for (std::size_t i = 0; i < m; ++i) {
      Matrix term = focks_[i];
      term *= coef[i];
      f += term;
    }
    return f;
  }

 private:
  int depth_;
  std::deque<Matrix> focks_;
  std::deque<Matrix> errors_;
};

}  // namespace

ScfContext ScfContext::build(const chem::Molecule& mol, BasisKind basis) {
  QFR_REQUIRE(!mol.empty(), "cannot run SCF on an empty molecule");
  // Integral set-up is paid once per displaced geometry; the span and the
  // histogram put it beside scf.solve in the trace and the run report.
  QFR_TRACE_SPAN("scf.context", "integrals");
  const WallTimer timer;
  basis::BasisSet bs = (basis == BasisKind::kB631g)
                           ? basis::BasisSet::b631g(mol)
                           : basis::BasisSet::sto3g(mol);
  ScfContext ctx{mol,
                 bs,
                 ints::overlap(bs),
                 ints::core_hamiltonian(bs, mol),
                 ints::EriTensor(bs),
                 ints::dipole(bs, charge_center(mol))};
  if (obs::Session* const obs = obs::current())
    obs->metrics().histogram("scf.context.seconds").observe(timer.seconds());
  return ctx;
}

geom::Vec3 dipole_moment(const ScfContext& ctx, const Matrix& density) {
  geom::Vec3 mu;
  double q_total = 0.0;
  geom::Vec3 charge_ctr;
  for (const auto& a : ctx.mol.atoms()) {
    const double z = chem::atomic_number(a.element);
    mu += a.position * z;
    charge_ctr += a.position * z;
    q_total += z;
  }
  charge_ctr = charge_ctr / q_total;
  const double n_el = la::trace_product(density, ctx.s);
  for (int c = 0; c < 3; ++c)
    mu[c] -= la::trace_product(density, ctx.dip[c]) + charge_ctr[c] * n_el;
  return mu;
}

ScfSolver::ScfSolver(std::shared_ptr<const ScfContext> ctx, ScfOptions options)
    : ctx_(std::move(ctx)), options_(options) {
  QFR_REQUIRE(ctx_ != nullptr, "null SCF context");
  QFR_REQUIRE(ctx_->mol.electron_count() % 2 == 0,
              "restricted SCF requires an even electron count, got "
                  << ctx_->mol.electron_count());
  if (options_.xc == XcModel::kLda)
    grid_ = std::make_shared<grid::MolGrid>(ctx_->mol,
                                            options_.grid_radial_points);
}

ScfResult ScfSolver::solve(const Matrix* initial_density) const {
  QFR_TRACE_SPAN("scf.solve", "scf");
  WallTimer solve_timer;
  obs::Session* const obs = obs::current();
  // Record the whole-solve wall time on every exit path, including the
  // nonconvergence throw.
  struct SolveRecord {
    obs::Session* obs;
    WallTimer* timer;
    ~SolveRecord() {
      if (obs != nullptr)
        obs->metrics().histogram("scf.solve.seconds")
            .observe(timer->seconds());
    }
  } solve_record{obs, &solve_timer};

  const auto& ctx = *ctx_;
  const std::size_t n = ctx.bs.n_functions();
  const int n_occ = ctx.mol.electron_count() / 2;
  QFR_REQUIRE(static_cast<std::size_t>(n_occ) <= n,
              "basis too small for electron count");

  // GEMM execution for this solve: borrowed from the caller (displacement
  // workers share one per job) or a private per-solve executor.
  std::unique_ptr<la::BatchedExecutor> owned_exec;
  la::BatchedExecutor* exec = options_.batch;
  if (exec == nullptr) {
    owned_exec = std::make_unique<la::BatchedExecutor>();
    exec = owned_exec.get();
  }

  // Grid workspace for the LDA path (basis values reused every iteration).
  std::unique_ptr<grid::BasisBatch> batch;
  if (options_.xc == XcModel::kLda) {
    batch = std::make_unique<grid::BasisBatch>(
        grid::evaluate_basis(ctx.bs, grid_->points(), /*with_gradient=*/false));
  }

  // Effective one-electron Hamiltonian including any external field:
  // an electron (charge -1) in field F has energy +F.r, so +F.D is added.
  Matrix hcore_eff = ctx.hcore;
  {
    const geom::Vec3& field = options_.external_field;
    for (int c = 0; c < 3; ++c) {
      if (field[c] == 0.0) continue;
      Matrix term = ctx.dip[c];
      term *= field[c];
      hcore_eff += term;
    }
  }

  auto build_fock = [&](const Matrix& p, double* e_two, double* e_xc) {
    Matrix f = hcore_eff;
    const Matrix j = ctx.eri.coulomb(p);
    if (options_.xc == XcModel::kHartreeFock) {
      const Matrix k = ctx.eri.exchange(p);
      // F = H + J - K/2 for the spin-summed density convention.
      for (std::size_t a = 0; a < n; ++a)
        for (std::size_t b = 0; b < n; ++b)
          f(a, b) += j(a, b) - 0.5 * k(a, b);
      if (e_two != nullptr)
        *e_two = 0.5 * la::trace_product(p, j) -
                 0.25 * la::trace_product(p, k);
      if (e_xc != nullptr) *e_xc = 0.0;
    } else {
      f += j;
      const Vector rho = grid::density_on_batch(*batch, p);
      Vector e_pt(rho.size()), v_pt(rho.size());
      xc::lda_exchange_batch(rho, e_pt, v_pt, {});
      Matrix vxc(n, n);
      grid::accumulate_potential_matrix(*batch, grid_->points(), v_pt, vxc);
      f += vxc;
      if (e_two != nullptr) *e_two = 0.5 * la::trace_product(p, j);
      if (e_xc != nullptr) {
        double acc = 0.0;
        const auto pts = grid_->points();
        for (std::size_t i = 0; i < rho.size(); ++i)
          acc += pts[i].weight * e_pt[i];
        *e_xc = acc;
      }
    }
    return f;
  };

  // Initial density: caller-provided warm start or the core guess.
  Matrix p0(n, n);
  if (initial_density != nullptr) {
    QFR_REQUIRE(initial_density->rows() == n && initial_density->cols() == n,
                "initial density shape mismatch");
    p0 = *initial_density;
  } else {
    const la::EigResult guess = la::eigh_generalized(ctx.hcore, ctx.s);
    enqueue_density_build(*exec, guess.vectors, n_occ, p0);
    exec->flush();
  }

  // Diagnostics of the last (failed) attempt for the error message.
  double last_energy = 0.0, last_residual = 0.0;

  // One full SCF pass at the given stabilizers; returns the converged
  // state or nullopt on hitting max_iterations.
  auto attempt = [&](double level_shift,
                     double damping) -> std::optional<ScfResult> {
    Matrix p = p0;
    Diis diis(options_.diis_depth);
    double e_prev = 0.0;
    ScfResult res;
    res.energy_nuclear = ctx.mol.nuclear_repulsion();
    res.n_occupied = n_occ;

    for (int iter = 1; iter <= options_.max_iterations; ++iter) {
      // A revoked fragment stops mid-solve instead of finishing a result
      // the scheduler would fence out anyway.
      options_.cancel.throw_if_cancelled();
      double e_two = 0.0, e_xc = 0.0;
      Matrix f = build_fock(p, &e_two, &e_xc);

      // DIIS error FPS - SPF. The two halves F.P and S.P share the B
      // operand P, so the flush packs each P tile once for both; the
      // second pair is a same-shape group.
      Matrix fps(n, n), spf(n, n), fp(n, n), sp_half(n, n);
      exec->enqueue(la::Trans::kNo, la::Trans::kNo, 1.0, f, p, 0.0, fp);
      exec->enqueue(la::Trans::kNo, la::Trans::kNo, 1.0, ctx.s, p, 0.0,
                    sp_half);
      exec->flush();
      exec->enqueue(la::Trans::kNo, la::Trans::kNo, 1.0, fp, ctx.s, 0.0, fps);
      exec->enqueue(la::Trans::kNo, la::Trans::kNo, 1.0, sp_half, f, 0.0,
                    spf);
      exec->flush();
      Matrix err = fps;
      err -= spf;
      const double err_norm = la::max_abs_diff(err, Matrix(n, n));

      diis.push(f, err);
      Matrix f_use = diis.extrapolate();

      if (level_shift != 0.0) {
        // F' = F + shift (S - S(P/2)S): raises the virtual space by
        // `shift` hartree (S(P/2)S projects onto the occupied space in
        // the AO metric), damping occupied/virtual rotation per step.
        Matrix sp(n, n), sps(n, n);
        exec->enqueue(la::Trans::kNo, la::Trans::kNo, 0.5, ctx.s, p, 0.0, sp);
        exec->flush();
        exec->enqueue(la::Trans::kNo, la::Trans::kNo, 1.0, sp, ctx.s, 0.0,
                      sps);
        exec->flush();
        Matrix shift_term = ctx.s;
        shift_term -= sps;
        shift_term *= level_shift;
        f_use += shift_term;
      }

      const la::EigResult roothaan = la::eigh_generalized(f_use, ctx.s);
      Matrix p_new;
      enqueue_density_build(*exec, roothaan.vectors, n_occ, p_new);
      exec->flush();
      if (damping > 0.0) {
        // p <- (1-d) p_new + d p_old: slows charge sloshing.
        for (std::size_t a = 0; a < n; ++a)
          for (std::size_t b = 0; b < n; ++b)
            p_new(a, b) = (1.0 - damping) * p_new(a, b) + damping * p(a, b);
      }

      const double e_one = la::trace_product(p, hcore_eff);
      const double e_total = res.energy_nuclear + e_one + e_two + e_xc;

      const bool converged = iter > 1 &&
                             std::fabs(e_total - e_prev) <
                                 options_.energy_tolerance &&
                             err_norm < options_.commutator_tolerance;
      p = std::move(p_new);
      e_prev = e_total;
      last_energy = e_total;
      last_residual = err_norm;

      if (converged) {
        // Return eigenpairs of the raw Fock of the converged density, NOT
        // of the DIIS-extrapolated matrix: near convergence the Pulay
        // system is almost singular, so the extrapolated Fock (and hence
        // its MOs) is poorly determined at the 1e-4 level even when the
        // density is converged — enough to poison CPSCF response
        // properties. (This also discards the level shift, which only
        // steers the iteration and must not contaminate MO energies.)
        const Matrix f_final = build_fock(p, nullptr, nullptr);
        const la::EigResult final_mos = la::eigh_generalized(f_final, ctx.s);
        res.converged = true;
        res.iterations = iter;
        res.energy = e_total;
        res.energy_one = e_one;
        res.energy_two = e_two;
        res.energy_xc = e_xc;
        res.density = p;
        res.mo_coefficients = final_mos.vectors;
        res.mo_energies = final_mos.values;
        res.fock = f_final;
        return res;
      }
    }
    return std::nullopt;
  };

  if (std::optional<ScfResult> res =
          attempt(options_.level_shift, options_.density_damping)) {
    if (obs != nullptr)
      obs->metrics().histogram("scf.iterations").observe(res->iterations);
    return *res;
  }

  const double shift2 =
      std::max(options_.level_shift, options_.escalation_level_shift);
  const double damp2 =
      std::max(options_.density_damping, options_.escalation_damping);
  const bool stronger = options_.escalate_on_nonconvergence &&
                        (shift2 > options_.level_shift ||
                         damp2 > options_.density_damping);
  if (stronger) {
    QFR_LOG_WARN("SCF did not converge in ", options_.max_iterations,
                 " iterations (residual ", last_residual,
                 "); retrying with level shift ", shift2, " and damping ",
                 damp2);
    if (std::optional<ScfResult> res = attempt(shift2, damp2)) {
      res->escalated = true;
      if (obs != nullptr)
        obs->metrics().histogram("scf.iterations").observe(res->iterations);
      return *res;
    }
  }
  QFR_NUMERIC_FAIL("SCF failed to converge in "
                   << options_.max_iterations << " iterations (last E = "
                   << last_energy << ", |FPS-SPF| residual = "
                   << last_residual
                   << (stronger ? ", escalated retry included)" : ")"));
}

}  // namespace qfr::scf
