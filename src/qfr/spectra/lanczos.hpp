#pragma once

#include <functional>
#include <span>

#include "qfr/la/matrix.hpp"

namespace qfr::spectra {

/// Abstract symmetric operator y = A x (sparse Hessian, dense matrix, ...).
using MatVec =
    std::function<void(std::span<const double>, std::span<double>)>;

/// Output of a k-step symmetric Lanczos process: the tridiagonal
/// coefficients of T_k (alpha: k diagonal entries, beta: k-1 couplings)
/// plus the norm of the start vector (needed to scale quadrature weights).
struct LanczosResult {
  la::Vector alpha;
  la::Vector beta;
  /// The coupling beta_k of the (k+1)-th, never-built basis vector; the
  /// GAGQ construction needs it (it is free to compute).
  double final_beta = 0.0;
  double start_norm = 0.0;
  int steps = 0;        ///< actual steps taken (may stop early on breakdown)
  /// Steps whose new basis vector was reorthogonalized against the stored
  /// basis (partial reorthogonalization; see lanczos()).
  int n_reorthogonalized = 0;
  bool breakdown = false;
};

/// Controls for the Lanczos iteration.
struct LanczosOptions {
  int steps = 100;
  double breakdown_tolerance = 1e-12;
};

/// Run the symmetric Lanczos process on `op` (dimension n) starting from
/// `start`. Throws InvalidArgument on a zero start vector.
///
/// Orthogonality is kept by Simon's partial reorthogonalization: an O(k)
/// recurrence estimates |q_{j+1} . q_i| for every stored basis vector, and
/// only a step whose largest estimate exceeds sqrt(eps), and the step
/// after it, sweeps the new vector against the whole basis (two classical
/// Gram-Schmidt passes). The basis stays semi-orthogonal, which keeps T_k
/// (and so the Gauss rules) accurate to working precision (Simon 1984)
/// while most steps cost O(n) instead of O(kn).
///
/// With an ambient obs session, adds the step count and the
/// reorthogonalized-step count to the counters `spectra.lanczos.steps`
/// and `spectra.lanczos.reorthogonalized`.
LanczosResult lanczos(const MatVec& op, std::span<const double> start,
                      std::size_t n, const LanczosOptions& options);

/// A discrete spectral measure: sum_j weights[j] * delta(x - nodes[j]),
/// approximating d^T delta(x - A) d.
struct SpectralMeasure {
  la::Vector nodes;
  la::Vector weights;
};

/// Gauss quadrature from T_k: nodes are the Ritz values, weights are
/// |d|^2 (first eigenvector components)^2. (Paper Eq. 7.)
SpectralMeasure gauss_quadrature(const LanczosResult& lanczos_result);

/// Generalized averaged Gauss quadrature (GAGQ, Reichel-Spalevic-Tang;
/// paper Sec. V-E): from a k-step result, builds the (2k-1) x (2k-1)
/// averaged tridiagonal matrix with reversed-coefficient continuation and
/// returns its quadrature. Higher accuracy at negligible extra cost since
/// only small tridiagonal matrices are diagonalized.
SpectralMeasure averaged_gauss_quadrature(const LanczosResult& lanczos_result);

/// Exact measure from a dense symmetric matrix (the conventional
/// full-diagonalization path the paper replaces; the test baseline).
SpectralMeasure exact_measure(const la::Matrix& a,
                              std::span<const double> d);

/// Broaden a measure onto a frequency axis with Gaussian smearing after
/// mapping eigenvalues lambda (a.u.) to wavenumbers
/// omega = sqrt(max(lambda, 0)) * kAuFrequencyToCm.
/// (Paper Eq. 8: f(H) = g_sigma(omega - H).)
la::Vector broaden_to_wavenumbers(const SpectralMeasure& measure,
                                  std::span<const double> omega_cm,
                                  double sigma_cm);

}  // namespace qfr::spectra
