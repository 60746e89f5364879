#pragma once

#include <vector>

#include "qfr/la/matrix.hpp"

namespace qfr::la {

/// Result of a symmetric eigendecomposition: A * vectors.col(i) =
/// values[i] * vectors.col(i), values ascending.
struct EigResult {
  Vector values;
  Matrix vectors;  ///< column i is the i-th eigenvector
};

/// Full eigendecomposition of a real symmetric matrix via Householder
/// tridiagonalization followed by implicit-shift QL iteration.
///
/// This is the "conventional" dense solver the paper replaces with Lanczos
/// for large systems; it stays as the exact baseline for small fragments
/// and for diagonalizing the Lanczos tridiagonal matrices.
EigResult eigh(const Matrix& a);

/// Eigenvalues only (same algorithm, skips the vector accumulation).
Vector eigvalsh(const Matrix& a);

/// Eigendecomposition of a symmetric tridiagonal matrix given its diagonal
/// and subdiagonal. Central to the Lanczos/GAGQ spectral solver where only
/// T_k (k x k) matrices are ever diagonalized.
EigResult eigh_tridiagonal(std::span<const double> diag,
                           std::span<const double> sub);

/// Eigenvalues and the first component of every eigenvector of the same
/// tridiagonal matrix (Golub-Welsch): `vectors` is 1 x n, bitwise row 0 of
/// eigh_tridiagonal's. The QL sweeps carry e_0^T instead of the identity,
/// so the cost is O(n^2) instead of O(n^3). Gauss quadrature needs only
/// these components.
EigResult eigh_tridiagonal_first_row(std::span<const double> diag,
                                     std::span<const double> sub);

/// Generalized symmetric-definite eigenproblem A x = lambda B x with B SPD,
/// solved by Cholesky reduction (this is the Roothaan equation
/// F C = S C eps of the SCF module).
EigResult eigh_generalized(const Matrix& a, const Matrix& b);

/// Cholesky factorization B = L L^T (lower). Throws NumericalError if B is
/// not positive definite.
Matrix cholesky(const Matrix& b);

/// Solve L y = rhs (forward) then L^T x = y (backward) for a lower-
/// triangular Cholesky factor L.
Vector cholesky_solve(const Matrix& l, std::span<const double> rhs);

/// Inverse of a lower triangular matrix.
Matrix tri_lower_inverse(const Matrix& l);

/// Solve the dense symmetric positive definite system A x = b.
Vector spd_solve(const Matrix& a, std::span<const double> b);

/// General dense solve via partial-pivot LU (for small well-conditioned
/// systems such as the DIIS equations).
Vector lu_solve(Matrix a, Vector b);

}  // namespace qfr::la
