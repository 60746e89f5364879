#include <gtest/gtest.h>

#include <cmath>

#include "qfr/common/rng.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/la/eig.hpp"

namespace qfr::la {
namespace {

Matrix random_symmetric(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  return m;
}

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  Matrix spd(n, n);
  gemm(Trans::kNo, Trans::kYes, 1.0, a, a, 0.0, spd);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

// || A v - lambda v || over all pairs, relative to ||A||_F.
double residual(const Matrix& a, const EigResult& r) {
  const std::size_t n = a.rows();
  Matrix av(n, n);
  gemm(Trans::kNo, Trans::kNo, 1.0, a, r.vectors, 0.0, av);
  double worst = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      worst = std::max(worst,
                       std::fabs(av(i, j) - r.values[j] * r.vectors(i, j)));
  return worst / std::max(1.0, frobenius_norm(a));
}

TEST(Eigh, DiagonalMatrix) {
  Matrix d{{3.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 2.0}};
  const EigResult r = eigh(d);
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 2.0, 1e-12);
  EXPECT_NEAR(r.values[2], 3.0, 1e-12);
}

TEST(Eigh, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  Matrix m{{2.0, 1.0}, {1.0, 2.0}};
  const EigResult r = eigh(m);
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 3.0, 1e-12);
}

class EighSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EighSizeTest, ResidualAndOrthogonality) {
  const std::size_t n = GetParam();
  Rng rng(n * 7919);
  const Matrix a = random_symmetric(n, rng);
  const EigResult r = eigh(a);
  EXPECT_LT(residual(a, r), 1e-10) << "n=" << n;
  // V^T V == I.
  Matrix vtv(n, n);
  gemm(Trans::kYes, Trans::kNo, 1.0, r.vectors, r.vectors, 0.0, vtv);
  EXPECT_LT(max_abs_diff(vtv, Matrix::identity(n)), 1e-10) << "n=" << n;
  // Values ascending.
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_LE(r.values[i - 1], r.values[i] + 1e-14);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighSizeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40, 64, 97));

TEST(Eigh, TraceEqualsSumOfEigenvalues) {
  Rng rng(31);
  const Matrix a = random_symmetric(25, rng);
  const Vector vals = eigvalsh(a);
  double tr = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < 25; ++i) {
    tr += a(i, i);
    sum += vals[i];
  }
  EXPECT_NEAR(tr, sum, 1e-10);
}

TEST(Eigh, EigvalshMatchesEigh) {
  Rng rng(33);
  const Matrix a = random_symmetric(30, rng);
  const Vector v1 = eigvalsh(a);
  const EigResult r = eigh(a);
  for (std::size_t i = 0; i < 30; ++i) EXPECT_NEAR(v1[i], r.values[i], 1e-10);
}

TEST(EighTridiagonal, MatchesDenseSolver) {
  const std::size_t n = 40;
  Rng rng(37);
  Vector diag(n), sub(n - 1);
  for (auto& d : diag) d = rng.uniform(-2.0, 2.0);
  for (auto& s : sub) s = rng.uniform(-1.0, 1.0);
  Matrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) dense(i, i) = diag[i];
  for (std::size_t i = 0; i + 1 < n; ++i) {
    dense(i, i + 1) = sub[i];
    dense(i + 1, i) = sub[i];
  }
  const EigResult rt = eigh_tridiagonal(diag, sub);
  const EigResult rd = eigh(dense);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(rt.values[i], rd.values[i], 1e-10);
  EXPECT_LT(residual(dense, rt), 1e-10);
}

// The first-row solver carries e_0^T through the same QL rotations that
// eigh_tridiagonal applies to the identity, so its values and components
// must be bitwise those of the full solver.
void expect_first_row_bitwise(std::span<const double> diag,
                              std::span<const double> sub) {
  const EigResult full = eigh_tridiagonal(diag, sub);
  const EigResult first = eigh_tridiagonal_first_row(diag, sub);
  ASSERT_EQ(first.values.size(), diag.size());
  ASSERT_EQ(first.vectors.rows(), 1u);
  ASSERT_EQ(first.vectors.cols(), diag.size());
  for (std::size_t j = 0; j < diag.size(); ++j) {
    EXPECT_EQ(first.values[j], full.values[j]) << "value " << j;
    EXPECT_EQ(first.vectors(0, j), full.vectors(0, j)) << "component " << j;
  }
}

TEST(EighTridiagonal, FirstRowIsBitwiseRowZeroOfFullSolver) {
  Rng rng(41);
  for (const std::size_t n : {1u, 2u, 40u}) {
    Vector diag(n), sub(n - 1);
    for (auto& d : diag) d = rng.uniform(-2.0, 2.0);
    for (auto& s : sub) s = rng.uniform(-1.0, 1.0);
    SCOPED_TRACE(n);
    expect_first_row_bitwise(diag, sub);
  }
  const EigResult empty = eigh_tridiagonal_first_row({}, {});
  EXPECT_TRUE(empty.values.empty());
}

TEST(Cholesky, ReconstructsMatrix) {
  Rng rng(41);
  const Matrix a = random_spd(12, rng);
  const Matrix l = cholesky(a);
  Matrix llt(12, 12);
  gemm(Trans::kNo, Trans::kYes, 1.0, l, l, 0.0, llt);
  EXPECT_LT(max_abs_diff(a, llt), 1e-10);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix m{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(cholesky(m), NumericalError);
}

TEST(CholeskySolve, SolvesSystem) {
  Rng rng(43);
  const Matrix a = random_spd(15, rng);
  Vector b(15);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector x = spd_solve(a, b);
  Vector ax(15, 0.0);
  gemv(Trans::kNo, 1.0, a, x, 0.0, ax);
  for (std::size_t i = 0; i < 15; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST(TriLowerInverse, ProducesIdentity) {
  Rng rng(47);
  const Matrix a = random_spd(10, rng);
  const Matrix l = cholesky(a);
  const Matrix linv = tri_lower_inverse(l);
  Matrix prod(10, 10);
  gemm(Trans::kNo, Trans::kNo, 1.0, linv, l, 0.0, prod);
  EXPECT_LT(max_abs_diff(prod, Matrix::identity(10)), 1e-10);
}

TEST(EighGeneralized, SatisfiesGeneralizedEquation) {
  Rng rng(53);
  const Matrix a = random_symmetric(14, rng);
  const Matrix b = random_spd(14, rng);
  const EigResult r = eigh_generalized(a, b);
  Matrix av(14, 14), bv(14, 14);
  gemm(Trans::kNo, Trans::kNo, 1.0, a, r.vectors, 0.0, av);
  gemm(Trans::kNo, Trans::kNo, 1.0, b, r.vectors, 0.0, bv);
  for (std::size_t j = 0; j < 14; ++j)
    for (std::size_t i = 0; i < 14; ++i)
      EXPECT_NEAR(av(i, j), r.values[j] * bv(i, j), 1e-8);
}

TEST(EighGeneralized, VectorsAreBOrthonormal) {
  Rng rng(59);
  const Matrix a = random_symmetric(10, rng);
  const Matrix b = random_spd(10, rng);
  const EigResult r = eigh_generalized(a, b);
  Matrix bv(10, 10), vtbv(10, 10);
  gemm(Trans::kNo, Trans::kNo, 1.0, b, r.vectors, 0.0, bv);
  gemm(Trans::kYes, Trans::kNo, 1.0, r.vectors, bv, 0.0, vtbv);
  EXPECT_LT(max_abs_diff(vtbv, Matrix::identity(10)), 1e-9);
}

TEST(LuSolve, SolvesGeneralSystem) {
  Matrix a{{0.0, 2.0, 1.0}, {1.0, -2.0, -3.0}, {-1.0, 1.0, 2.0}};
  Vector b{-8.0, 0.0, 3.0};
  const Vector x = lu_solve(a, b);
  // Verify A x = b with the original matrix.
  Matrix a2{{0.0, 2.0, 1.0}, {1.0, -2.0, -3.0}, {-1.0, 1.0, 2.0}};
  Vector ax(3, 0.0);
  gemv(Trans::kNo, 1.0, a2, x, 0.0, ax);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(ax[i], b[i], 1e-11);
}

TEST(LuSolve, SingularThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  Vector b{1.0, 2.0};
  EXPECT_THROW(lu_solve(a, b), NumericalError);
}

}  // namespace
}  // namespace qfr::la
