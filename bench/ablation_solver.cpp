// Ablation of the Sec. V-E spectral solver (not a paper figure, but the
// design choice DESIGN.md calls out): Lanczos + GAGQ vs plain Lanczos vs
// full diagonalization, as a function of the Lanczos step count, on one
// fixed protein system; then the reorthogonalization accuracy panel.
//
// Shows (a) GAGQ's accuracy advantage at equal step count, (b) the
// step-count convergence of the broadened spectrum, (c) the cost gap
// to exact diagonalization that motivates the matrix-function approach —
// a 100M-atom system would need a 3x10^8-dimensional eigensolve — and
// (d) that partial reorthogonalization is as accurate as full
// Gram-Schmidt against the exact spectrum, where no reorthogonalization
// is not.

#include <cmath>
#include <cstdio>

#include "qfr/chem/protein.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/frag/assembly.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/spectra/raman.hpp"

namespace {

using namespace qfr;

double rel_l2(const la::Vector& a, const la::Vector& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += a[i] * a[i];
  }
  return std::sqrt(num / den);
}

struct Assembled {
  std::size_t n_atoms = 0;
  frag::GlobalProperties props;
};

Assembled model_protein(std::size_t n_residues, std::uint64_t seed) {
  frag::BioSystem sys;
  chem::ProteinBuildOptions popts;
  popts.n_residues = n_residues;
  popts.seed = seed;
  sys.chains.push_back(chem::build_synthetic_protein(popts));
  const auto fr = frag::fragment_biosystem(sys);
  engine::ModelEngine eng;
  runtime::RuntimeOptions ropts;
  ropts.n_leaders = 2;
  runtime::MasterRuntime rt(std::move(ropts));
  const auto report = rt.run(fr.fragments, eng);
  return {sys.n_atoms(),
          frag::assemble_global_properties(sys, fr.fragments, report.results)};
}

enum class Reorth { kFull, kNone };

// Lanczos with every step swept against the whole basis (two classical
// Gram-Schmidt passes, the library's loop before partial
// reorthogonalization) or with no reorthogonalization at all.
spectra::LanczosResult lanczos_variant(const la::CsrMatrix& h,
                                       std::span<const double> start,
                                       int steps, Reorth mode) {
  const std::size_t n = start.size();
  spectra::LanczosResult res;
  res.start_norm = la::nrm2(start);
  const int k = std::min<std::size_t>(steps, n);
  std::vector<la::Vector> basis;
  la::Vector q(start.begin(), start.end());
  la::scal(1.0 / res.start_norm, q);
  basis.push_back(q);
  la::Vector w(n, 0.0);
  double beta_prev = 0.0;
  for (int j = 0; j < k; ++j) {
    h.matvec(1.0, basis.back(), 0.0, w);
    if (j > 0) la::axpy(-beta_prev, basis[j - 1], w);
    const double alpha = la::dot(basis.back(), w);
    la::axpy(-alpha, basis.back(), w);
    res.alpha.push_back(alpha);
    res.steps = j + 1;
    if (mode == Reorth::kFull)
      for (int pass = 0; pass < 2; ++pass)
        for (const auto& v : basis) la::axpy(-la::dot(v, w), v, w);
    const double beta = la::nrm2(w);
    if (j + 1 == k) {
      res.final_beta = beta;
      break;
    }
    if (beta < 1e-12) {
      res.breakdown = true;
      break;
    }
    res.beta.push_back(beta);
    beta_prev = beta;
    la::Vector next = w;
    la::scal(1.0 / beta, next);
    basis.push_back(std::move(next));
  }
  return res;
}

// Raman spectrum of Eq. (4) from the seven GAGQ measures of `mode`.
la::Vector gagq_spectrum(const frag::GlobalProperties& p,
                         const la::Vector& axis, double sigma, int steps,
                         Reorth mode) {
  const la::Matrix& da = p.dalpha_mw;
  la::Vector trace(da.cols());
  for (std::size_t i = 0; i < da.cols(); ++i)
    trace[i] = da(0, i) + da(1, i) + da(2, i);
  la::Vector out(axis.size(), 0.0);
  auto add = [&](std::span<const double> d, double weight) {
    const auto lr = lanczos_variant(p.hessian_mw, d, steps, mode);
    la::axpy(weight,
             spectra::broaden_to_wavenumbers(
                 spectra::averaged_gauss_quadrature(lr), axis, sigma),
             out);
  };
  add(trace, 1.5);
  const double multiplicity[] = {1, 1, 1, 2, 2, 2};
  for (int c = 0; c < spectra::kAlphaComponents; ++c)
    add(da.row(c), 10.5 * multiplicity[c]);
  return out;
}

void accuracy_panel() {
  std::printf("\n=== Reorthogonalization accuracy panel: GAGQ relative L2"
              " against the exact solver ===\n\n");
  std::printf("%6s %6s %6s | %10s %10s %10s\n", "3N", "sigma", "steps",
              "partial", "full GS", "none");
  const auto axis = spectra::wavenumber_axis(0, 4000, 1200);
  for (const std::size_t residues : {8u, 30u}) {
    const Assembled a = model_protein(residues, 7);
    const frag::GlobalProperties& p = a.props;
    const la::Matrix dense = p.hessian_mw.to_dense();
    for (const double sigma : {5.0, 25.0}) {
      const la::Vector exact =
          spectra::raman_spectrum_exact(dense, p.dalpha_mw, axis, sigma)
              .intensity;
      for (const int steps : {60, 150, 220}) {
        spectra::LanczosOptions lopts;
        lopts.steps = steps;
        const la::Vector partial =
            spectra::raman_spectrum_lanczos(p.hessian_mw, p.dalpha_mw, axis,
                                            sigma, lopts, true)
                .intensity;
        const la::Vector full =
            gagq_spectrum(p, axis, sigma, steps, Reorth::kFull);
        const la::Vector none =
            gagq_spectrum(p, axis, sigma, steps, Reorth::kNone);
        std::printf("%6zu %6.0f %6d | %10.4f %10.4f %10.4f\n", dense.rows(),
                    sigma, steps, rel_l2(exact, partial),
                    rel_l2(exact, full), rel_l2(exact, none));
      }
    }
  }
}

}  // namespace

int main() {
  std::printf("=== Solver ablation: Lanczos+GAGQ vs plain vs exact ===\n\n");

  // A ~25-residue protein with its global properties assembled once.
  const Assembled a = model_protein(25, 321);
  const frag::GlobalProperties& props = a.props;
  const std::size_t dim = props.hessian_mw.rows();
  std::printf("system: %zu atoms, Hessian dimension %zu\n\n", a.n_atoms, dim);

  const auto axis = spectra::wavenumber_axis(0, 4000, 1200);
  const double sigma = 20.0;

  WallTimer t;
  const auto exact = spectra::raman_spectrum_exact(
      props.hessian_mw.to_dense(), props.dalpha_mw, axis, sigma);
  const double t_exact = t.seconds();
  std::printf("exact diagonalization: %.2f s (reference)\n\n", t_exact);

  std::printf("%8s | %14s %10s | %14s %10s\n", "steps", "GAGQ err",
              "time (s)", "plain err", "time (s)");
  for (const int steps : {20, 40, 80, 160, 320}) {
    spectra::LanczosOptions lopts;
    lopts.steps = steps;
    t.reset();
    const auto gagq = spectra::raman_spectrum_lanczos(
        props.hessian_mw, props.dalpha_mw, axis, sigma, lopts, true);
    const double t_gagq = t.seconds();
    t.reset();
    const auto plain = spectra::raman_spectrum_lanczos(
        props.hessian_mw, props.dalpha_mw, axis, sigma, lopts, false);
    const double t_plain = t.seconds();
    std::printf("%8d | %13.2f%% %10.3f | %13.2f%% %10.3f\n", steps,
                100.0 * rel_l2(exact.intensity, gagq.intensity), t_gagq,
                100.0 * rel_l2(exact.intensity, plain.intensity), t_plain);
  }
  std::printf("\nGAGQ reaches a given accuracy with fewer matvecs than the"
              " plain rule,\nat the cost of diagonalizing a (2k-1) instead"
              " of a k tridiagonal matrix\n— negligible, as the paper"
              " argues in Sec. V-E.\n");

  accuracy_panel();
  return 0;
}
