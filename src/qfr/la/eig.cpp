#include "qfr/la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "qfr/la/blas.hpp"

namespace qfr::la {

namespace {

// Householder reduction of a symmetric matrix to tridiagonal form.
// On exit: d = diagonal, e = subdiagonal (e[0] unused convention shifted so
// e[i] couples d[i] and d[i+1]), and `z` accumulates the orthogonal
// transform when wanted (z must start as the input matrix; it is replaced
// by the accumulated Q). Classic tred2 (Numerical Recipes / EISPACK form).
void tred2(Matrix& z, Vector& d, Vector& e, bool want_vectors) {
  const std::size_t n = z.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  if (n == 0) return;

  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(z(i, k));
      if (scale == 0.0) {
        e[i] = z(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          if (want_vectors) z(j, i) = z(i, j) / h;
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[j] = g / h;
          f += e[j] * z(i, j);
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = z(i, j);
          e[j] = g = e[j] - hh * f;
          for (std::size_t k = 0; k <= j; ++k)
            z(j, k) -= f * e[k] + g * z(i, k);
        }
      }
    } else {
      e[i] = z(i, l);
    }
    d[i] = h;
  }

  if (want_vectors) d[0] = 0.0;
  e[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (want_vectors) {
      if (d[i] != 0.0) {
        const std::size_t l = i;  // columns 0..i-1
        for (std::size_t j = 0; j < l; ++j) {
          double g = 0.0;
          for (std::size_t k = 0; k < l; ++k) g += z(i, k) * z(k, j);
          for (std::size_t k = 0; k < l; ++k) z(k, j) -= g * z(k, i);
        }
      }
      d[i] = z(i, i);
      z(i, i) = 1.0;
      for (std::size_t j = 0; j < i; ++j) {
        z(j, i) = 0.0;
        z(i, j) = 0.0;
      }
    } else {
      d[i] = z(i, i);
    }
  }
}

double hypot2(double a, double b) { return std::hypot(a, b); }

// Implicit-shift QL iteration on a tridiagonal matrix. d/e as from tred2
// (e[0] = 0, e[i] couples i-1 and i). If z is non-null its columns are
// rotated along, producing eigenvectors of the original matrix. Each row
// of z is rotated on its own, so z may hold any subset of the rows (one
// row costs O(n) per sweep instead of O(n^2)).
void tql2(Vector& d, Vector& e, Matrix* z) {
  const std::size_t n = d.size();
  if (n == 0) return;
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  for (std::size_t l = 0; l < n; ++l) {
    std::size_t iter = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-300 ||
            std::fabs(e[m]) <= 2.3e-16 * dd)
          break;
      }
      if (m != l) {
        QFR_ASSERT(++iter <= 64, "QL iteration failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = hypot2(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0 ? std::fabs(r) : -std::fabs(r)));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool broke_early = false;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = hypot2(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            broke_early = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          if (z != nullptr) {
            for (std::size_t k = 0; k < z->rows(); ++k) {
              f = (*z)(k, i + 1);
              (*z)(k, i + 1) = s * (*z)(k, i) + c * f;
              (*z)(k, i) = c * (*z)(k, i) - s * f;
            }
          }
        }
        if (broke_early) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

void sort_ascending(Vector& d, Matrix* z) {
  const std::size_t n = d.size();
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return d[a] < d[b]; });
  Vector ds(n);
  for (std::size_t i = 0; i < n; ++i) ds[i] = d[idx[i]];
  d = std::move(ds);
  if (z != nullptr) {
    Matrix zs(z->rows(), z->cols());
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < z->rows(); ++i) zs(i, j) = (*z)(i, idx[j]);
    *z = std::move(zs);
  }
}

// QL on the tridiagonal (diag, sub), rotating the rows of `z` along:
// z = I gives every eigenvector, z = e_0^T only their first components.
EigResult tridiagonal_ql(std::span<const double> diag,
                         std::span<const double> sub, Matrix z) {
  const std::size_t n = diag.size();
  QFR_REQUIRE(sub.size() + 1 == n || (n == 0 && sub.empty()),
              "subdiagonal must have n-1 entries");
  EigResult res;
  res.values.assign(diag.begin(), diag.end());
  Vector e(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) e[i] = sub[i - 1];
  res.vectors = std::move(z);
  tql2(res.values, e, &res.vectors);
  sort_ascending(res.values, &res.vectors);
  return res;
}

}  // namespace

EigResult eigh(const Matrix& a) {
  QFR_REQUIRE(a.rows() == a.cols(), "eigh requires a square matrix");
  EigResult res;
  res.vectors = a;
  Vector e;
  tred2(res.vectors, res.values, e, /*want_vectors=*/true);
  tql2(res.values, e, &res.vectors);
  sort_ascending(res.values, &res.vectors);
  return res;
}

Vector eigvalsh(const Matrix& a) {
  QFR_REQUIRE(a.rows() == a.cols(), "eigvalsh requires a square matrix");
  Matrix z = a;
  Vector d, e;
  tred2(z, d, e, /*want_vectors=*/false);
  tql2(d, e, nullptr);
  sort_ascending(d, nullptr);
  return d;
}

EigResult eigh_tridiagonal(std::span<const double> diag,
                           std::span<const double> sub) {
  return tridiagonal_ql(diag, sub, Matrix::identity(diag.size()));
}

EigResult eigh_tridiagonal_first_row(std::span<const double> diag,
                                     std::span<const double> sub) {
  Matrix e0(diag.empty() ? 0 : 1, diag.size());
  if (!diag.empty()) e0(0, 0) = 1.0;
  return tridiagonal_ql(diag, sub, std::move(e0));
}

Matrix cholesky(const Matrix& b) {
  QFR_REQUIRE(b.rows() == b.cols(), "cholesky requires a square matrix");
  const std::size_t n = b.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = b(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0)
      QFR_NUMERIC_FAIL("cholesky: matrix not positive definite at row " << j
                       << " (pivot " << diag << ")");
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = b(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / ljj;
    }
  }
  return l;
}

Vector cholesky_solve(const Matrix& l, std::span<const double> rhs) {
  const std::size_t n = l.rows();
  QFR_REQUIRE(rhs.size() == n, "cholesky_solve shape mismatch");
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = rhs[i];
    for (std::size_t k = 0; k < i; ++k) v -= l(i, k) * y[k];
    y[i] = v / l(i, i);
  }
  Vector x(n);
  for (std::size_t i = n; i-- > 0;) {
    double v = y[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= l(k, i) * x[k];
    x[i] = v / l(i, i);
  }
  return x;
}

Matrix tri_lower_inverse(const Matrix& l) {
  const std::size_t n = l.rows();
  Matrix inv(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    inv(j, j) = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = j; k < i; ++k) acc += l(i, k) * inv(k, j);
      inv(i, j) = -acc / l(i, i);
    }
  }
  return inv;
}

EigResult eigh_generalized(const Matrix& a, const Matrix& b) {
  QFR_REQUIRE(a.rows() == a.cols() && b.rows() == b.cols() &&
                  a.rows() == b.rows(),
              "eigh_generalized shape mismatch");
  // Reduce A x = lambda B x with B = L L^T to the standard problem
  // (Linv A Linv^T) y = lambda y, x = Linv^T y.
  const Matrix l = cholesky(b);
  const Matrix linv = tri_lower_inverse(l);
  Matrix tmp(a.rows(), a.cols());
  gemm(Trans::kNo, Trans::kNo, 1.0, linv, a, 0.0, tmp);
  Matrix astd(a.rows(), a.cols());
  gemm(Trans::kNo, Trans::kYes, 1.0, tmp, linv, 0.0, astd);
  EigResult std_res = eigh(astd);
  EigResult res;
  res.values = std::move(std_res.values);
  res.vectors.resize_zero(a.rows(), a.cols());
  gemm(Trans::kYes, Trans::kNo, 1.0, linv, std_res.vectors, 0.0, res.vectors);
  return res;
}

Vector spd_solve(const Matrix& a, std::span<const double> b) {
  return cholesky_solve(cholesky(a), b);
}

Vector lu_solve(Matrix a, Vector b) {
  const std::size_t n = a.rows();
  QFR_REQUIRE(a.cols() == n && b.size() == n, "lu_solve shape mismatch");
  std::vector<std::size_t> piv(n);
  std::iota(piv.begin(), piv.end(), 0);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::fabs(a(i, k)) > std::fabs(a(p, k))) p = i;
    if (std::fabs(a(p, k)) < 1e-300)
      QFR_NUMERIC_FAIL("lu_solve: singular matrix at pivot " << k);
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
      std::swap(b[k], b[p]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = a(i, k) / a(k, k);
      a(i, k) = m;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= m * a(k, j);
      b[i] -= m * b[k];
    }
  }
  Vector x(n);
  for (std::size_t i = n; i-- > 0;) {
    double v = b[i];
    for (std::size_t j = i + 1; j < n; ++j) v -= a(i, j) * x[j];
    x[i] = v / a(i, i);
  }
  return x;
}

}  // namespace qfr::la
