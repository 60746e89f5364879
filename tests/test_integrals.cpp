#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "qfr/basis/basis.hpp"
#include "qfr/chem/molecule.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/units.hpp"
#include "qfr/integrals/boys.hpp"
#include "qfr/integrals/eri.hpp"
#include "qfr/integrals/hermite.hpp"
#include "qfr/integrals/one_electron.hpp"
#include "qfr/la/blas.hpp"

namespace qfr::ints {
namespace {

using basis::BasisSet;
using chem::Element;
using chem::Molecule;

// Reference Boys function via adaptive Simpson on [0, 1].
double boys_reference(int m, double x) {
  const int n = 4000;  // Simpson with fine fixed grid is plenty here
  auto f = [&](double t) {
    return std::pow(t, 2.0 * m) * std::exp(-x * t * t);
  };
  double sum = f(0.0) + f(1.0);
  for (int i = 1; i < n; ++i) {
    const double t = static_cast<double>(i) / n;
    sum += (i % 2 == 1 ? 4.0 : 2.0) * f(t);
  }
  return sum / (3.0 * n);
}

class BoysTest : public ::testing::TestWithParam<double> {};

TEST_P(BoysTest, MatchesQuadrature) {
  const double x = GetParam();
  double vals[7];
  boys(6, x, vals);
  for (int m = 0; m <= 6; ++m)
    EXPECT_NEAR(vals[m], boys_reference(m, x), 1e-9)
        << "m=" << m << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(Domain, BoysTest,
                         ::testing::Values(0.0, 1e-8, 0.1, 0.5, 1.0, 3.7,
                                           10.0, 25.0, 34.9, 35.1, 80.0));

TEST(Boys, DownwardRecursionConsistency) {
  // F_{m-1} = (2x F_m + e^-x) / (2m - 1) must hold for the output.
  double vals[5];
  const double x = 7.3;
  boys(4, x, vals);
  for (int m = 4; m > 0; --m)
    EXPECT_NEAR(vals[m - 1], (2.0 * x * vals[m] + std::exp(-x)) / (2 * m - 1),
                1e-13);
}

TEST(Hermite1D, SProductIsGaussianProductRule) {
  // E_0^{00} = exp(-mu Xab^2).
  const double a = 1.3, b = 0.7, ax = 0.2, bx = -0.5;
  Hermite1D e(a, b, ax, bx, 0, 0);
  const double mu = a * b / (a + b);
  EXPECT_NEAR(e(0, 0, 0), std::exp(-mu * (ax - bx) * (ax - bx)), 1e-14);
}

TEST(Hermite1D, OutOfRangeTIsZero) {
  Hermite1D e(1.0, 1.0, 0.0, 1.0, 1, 1);
  EXPECT_DOUBLE_EQ(e(1, 1, 3), 0.0);
  EXPECT_DOUBLE_EQ(e(1, 1, -1), 0.0);
}

TEST(HermiteR, OrderBeyondTableThrows) {
  // The fixed table holds orders up to an (ab|cd) quartet of kMaxAm
  // shells; one past it must fail typed instead of writing past the end.
  const geom::Vec3 pc{0.1, -0.2, 0.3};
  EXPECT_NO_THROW(HermiteR(1.0, pc, HermiteR::kMaxOrder));
  try {
    HermiteR(1.0, pc, HermiteR::kMaxOrder + 1);
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(HermiteR::kMaxOrder + 1)),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(HermiteR(1.0, pc, -1), InternalError);
}

Molecule h_atom() {
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  return m;
}

Molecule h2_szabo() {
  // H2 at R = 1.4 bohr; STO-3G hydrogen exponents are the zeta = 1.24
  // scaled set, matching Szabo & Ostlund Table 3.5 reference integrals.
  Molecule m;
  m.add(Element::H, {0, 0, 0});
  m.add(Element::H, {0, 0, 1.4});
  return m;
}

TEST(OneElectron, NormalizedDiagonalOverlap) {
  const Molecule w = chem::make_water({0, 0, 0});
  const BasisSet bs = BasisSet::sto3g(w);
  const la::Matrix s = overlap(bs);
  for (std::size_t i = 0; i < bs.n_functions(); ++i)
    EXPECT_NEAR(s(i, i), 1.0, 1e-10) << "bf " << i;
}

TEST(OneElectron, OverlapSymmetric) {
  const Molecule m = h2_szabo();
  const BasisSet bs = BasisSet::sto3g(m);
  const la::Matrix s = overlap(bs);
  EXPECT_LT(la::max_abs_diff(s, s.transposed()), 1e-13);
}

TEST(OneElectron, SzaboH2Overlap) {
  const BasisSet bs = BasisSet::sto3g(h2_szabo());
  const la::Matrix s = overlap(bs);
  EXPECT_NEAR(s(0, 1), 0.6593, 2e-4);
}

TEST(OneElectron, SzaboH2Kinetic) {
  const BasisSet bs = BasisSet::sto3g(h2_szabo());
  const la::Matrix t = kinetic(bs);
  EXPECT_NEAR(t(0, 0), 0.7600, 2e-4);
  EXPECT_NEAR(t(0, 1), 0.2365, 2e-4);
}

TEST(OneElectron, SzaboH2NuclearAttraction) {
  const BasisSet bs = BasisSet::sto3g(h2_szabo());
  const la::Matrix v = nuclear_attraction(bs, h2_szabo());
  // V_11 = -1.2266 (attraction to nucleus 1) + -0.6538 (to nucleus 2).
  EXPECT_NEAR(v(0, 0), -1.2266 - 0.6538, 5e-4);
}

TEST(OneElectron, HydrogenAtomSto3gEnergy) {
  // One electron in one s function: E = T_00 + V_00; the STO-3G hydrogen
  // atom energy is -0.4665819 hartree (well-known reference value).
  const Molecule m = h_atom();
  const BasisSet bs = BasisSet::sto3g(m);
  const double e = kinetic(bs)(0, 0) + nuclear_attraction(bs, m)(0, 0);
  EXPECT_NEAR(e, -0.46658, 1e-4);
}

TEST(OneElectron, KineticPositiveDiagonal) {
  const Molecule w = chem::make_water({0, 0, 0});
  const BasisSet bs = BasisSet::sto3g(w);
  const la::Matrix t = kinetic(bs);
  for (std::size_t i = 0; i < bs.n_functions(); ++i) EXPECT_GT(t(i, i), 0.0);
}

TEST(OneElectron, DipoleOfSymmetricH2VanishesAtCenter) {
  const BasisSet bs = BasisSet::sto3g(h2_szabo());
  const auto d = dipole(bs, {0, 0, 0.7});
  // z-dipole matrix: d(0,0) = -0.7 shift, d(1,1) = +0.7; trace of P*D with
  // symmetric density must vanish. Check the raw symmetry instead:
  EXPECT_NEAR(d[2](0, 0), -d[2](1, 1), 1e-10);
  EXPECT_NEAR(d[0](0, 0), 0.0, 1e-12);
  EXPECT_NEAR(d[1](0, 1), 0.0, 1e-12);
}

TEST(OneElectron, DipoleDiagonalEqualsCenterOffset) {
  // For a normalized s function at A, <mu|z - o_z|mu> = A_z - o_z.
  Molecule m;
  m.add(Element::H, {0.3, -0.4, 1.7});
  const BasisSet bs = BasisSet::sto3g(m);
  const auto d = dipole(bs, {0, 0, 0});
  EXPECT_NEAR(d[0](0, 0), 0.3, 1e-10);
  EXPECT_NEAR(d[1](0, 0), -0.4, 1e-10);
  EXPECT_NEAR(d[2](0, 0), 1.7, 1e-10);
}

TEST(Eri, SzaboH2Values) {
  const BasisSet bs = BasisSet::sto3g(h2_szabo());
  const EriTensor eri(bs);
  EXPECT_NEAR(eri(0, 0, 0, 0), 0.7746, 2e-4);
  EXPECT_NEAR(eri(0, 0, 1, 1), 0.5697, 2e-4);
  EXPECT_NEAR(eri(1, 0, 0, 0), 0.4441, 2e-4);
  EXPECT_NEAR(eri(1, 0, 1, 0), 0.2970, 2e-4);
}

TEST(Eri, EightFoldSymmetry) {
  const Molecule w = chem::make_water({0, 0, 0});
  const BasisSet bs = BasisSet::sto3g(w);
  const EriTensor eri(bs);
  // Spot-check permutations on a p-function-involving quartet.
  const std::size_t i = 2, j = 4, k = 1, l = 6;
  const double ref = eri(i, j, k, l);
  EXPECT_DOUBLE_EQ(eri(j, i, k, l), ref);
  EXPECT_DOUBLE_EQ(eri(i, j, l, k), ref);
  EXPECT_DOUBLE_EQ(eri(k, l, i, j), ref);
  EXPECT_DOUBLE_EQ(eri(l, k, j, i), ref);
}

Molecule hydrogen_sulfide() {
  Molecule m;
  m.add(Element::S, {0, 0, 0});
  m.add(Element::H, {2.52, 0, 0});
  m.add(Element::H, {-0.62, 2.44, 0.1});
  return m;
}

// EriTensor evaluates each canonical shell quartet from shell-pair term
// lists cached across the whole build; eri_shell_quartet builds the lists
// for one quartet. Both must produce the same bits for every stored value.
void expect_tensor_matches_quartets_bitwise(const BasisSet& bs) {
  // No screening, so every canonical quartet is stored.
  const EriTensor eri(bs, 0.0);
  const std::size_t n = bs.n_functions(), ns = bs.n_shells();
  // Replay the tensor's canonical quartet order, writing all eight index
  // permutations so later quartets overwrite shared slots as the tensor's
  // packed storage does.
  std::vector<double> expected(n * n * n * n, 0.0);
  auto at = [&](std::size_t i, std::size_t j, std::size_t k, std::size_t l)
      -> double& { return expected[((i * n + j) * n + k) * n + l]; };
  std::vector<double> block;
  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb)
      for (std::size_t sc = 0; sc <= sa; ++sc)
        for (std::size_t sd = 0; sd <= ((sc == sa) ? sb : sc); ++sd) {
          const auto& a = bs.shell(sa);
          const auto& b = bs.shell(sb);
          const auto& c = bs.shell(sc);
          const auto& d = bs.shell(sd);
          eri_shell_quartet(a, b, c, d, block);
          std::size_t idx = 0;
          for (std::size_t fa = 0; fa < a.n_functions(); ++fa)
            for (std::size_t fb = 0; fb < b.n_functions(); ++fb)
              for (std::size_t fc = 0; fc < c.n_functions(); ++fc)
                for (std::size_t fd = 0; fd < d.n_functions(); ++fd, ++idx) {
                  const std::size_t i = a.first_bf + fa, j = b.first_bf + fb,
                                    k = c.first_bf + fc, l = d.first_bf + fd;
                  for (const auto& [p, q] :
                       {std::pair{i, j}, std::pair{j, i}})
                    for (const auto& [r, s] :
                         {std::pair{k, l}, std::pair{l, k}}) {
                      at(p, q, r, s) = block[idx];
                      at(r, s, p, q) = block[idx];
                    }
                }
        }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t l = 0; l < n; ++l) {
          const double got = eri(i, j, k, l);
          if (std::memcmp(&got, &at(i, j, k, l), sizeof(double)) != 0)
            ++mismatches;
        }
  EXPECT_EQ(mismatches, 0u) << "of " << n * n * n * n << " values";
}

// The per-quartet McMurchie-Davidson loop the shell-pair kernel replaced,
// kept as the reference for its bitwise contract: Hermite tables rebuilt
// for every primitive quartet, terms multiplied left to right.
std::vector<double> reference_quartet(const basis::Shell& a,
                                      const basis::Shell& b,
                                      const basis::Shell& c,
                                      const basis::Shell& d) {
  const auto pw_a = basis::cartesian_powers(a.l);
  const auto pw_b = basis::cartesian_powers(b.l);
  const auto pw_c = basis::cartesian_powers(c.l);
  const auto pw_d = basis::cartesian_powers(d.l);
  std::vector<double> out(
      pw_a.size() * pw_b.size() * pw_c.size() * pw_d.size(), 0.0);
  for (const auto& p1 : a.prims)
    for (const auto& p2 : b.prims) {
      const Hermite1D e1[3] = {
          {p1.exponent, p2.exponent, a.center.x, b.center.x, a.l, b.l},
          {p1.exponent, p2.exponent, a.center.y, b.center.y, a.l, b.l},
          {p1.exponent, p2.exponent, a.center.z, b.center.z, a.l, b.l}};
      const double p = e1[0].p();
      const geom::Vec3 pc{e1[0].center(), e1[1].center(), e1[2].center()};
      const double c12 = p1.coefficient * p2.coefficient;
      for (const auto& p3 : c.prims)
        for (const auto& p4 : d.prims) {
          const Hermite1D e2[3] = {
              {p3.exponent, p4.exponent, c.center.x, d.center.x, c.l, d.l},
              {p3.exponent, p4.exponent, c.center.y, d.center.y, c.l, d.l},
              {p3.exponent, p4.exponent, c.center.z, d.center.z, c.l, d.l}};
          const double q = e2[0].p();
          const geom::Vec3 qc{e2[0].center(), e2[1].center(),
                              e2[2].center()};
          const double pref = c12 * p3.coefficient * p4.coefficient * 2.0 *
                              std::pow(units::kPi, 2.5) /
                              (p * q * std::sqrt(p + q));
          const HermiteR r(p * q / (p + q), pc - qc,
                           a.l + b.l + c.l + d.l);
          std::size_t idx = 0;
          for (const auto& qa : pw_a)
            for (const auto& qb : pw_b)
              for (const auto& qcc : pw_c)
                for (const auto& qd : pw_d) {
                  double acc = 0.0;
                  for (int t = 0; t <= qa.i + qb.i; ++t) {
                    const double ex1 = e1[0](qa.i, qb.i, t);
                    if (ex1 == 0.0) continue;
                    for (int u = 0; u <= qa.j + qb.j; ++u) {
                      const double ey1 = e1[1](qa.j, qb.j, u);
                      if (ey1 == 0.0) continue;
                      for (int v = 0; v <= qa.k + qb.k; ++v) {
                        const double ez1 = e1[2](qa.k, qb.k, v);
                        if (ez1 == 0.0) continue;
                        double inner = 0.0;
                        for (int tt = 0; tt <= qcc.i + qd.i; ++tt) {
                          const double ex2 = e2[0](qcc.i, qd.i, tt);
                          if (ex2 == 0.0) continue;
                          for (int uu = 0; uu <= qcc.j + qd.j; ++uu) {
                            const double ey2 = e2[1](qcc.j, qd.j, uu);
                            if (ey2 == 0.0) continue;
                            for (int vv = 0; vv <= qcc.k + qd.k; ++vv) {
                              const double ez2 = e2[2](qcc.k, qd.k, vv);
                              if (ez2 == 0.0) continue;
                              const double sign =
                                  ((tt + uu + vv) % 2 == 0) ? 1.0 : -1.0;
                              inner += sign * ex2 * ey2 * ez2 *
                                       r(t + tt, u + uu, v + vv);
                            }
                          }
                        }
                        acc += ex1 * ey1 * ez1 * inner;
                      }
                    }
                  }
                  out[idx++] += pref * acc;
                }
        }
    }
  return out;
}

TEST(Eri, ShellQuartetMatchesReferenceLoopBitwise) {
  for (const BasisSet& bs :
       {BasisSet::b631g(chem::make_water({0.1, -0.2, 0.3}, 0.7)),
        BasisSet::sto3g(hydrogen_sulfide())}) {
    const std::size_t ns = bs.n_shells();
    std::vector<double> block;
    std::size_t mismatches = 0, values = 0;
    for (std::size_t sa = 0; sa < ns; ++sa)
      for (std::size_t sb = 0; sb < ns; ++sb)
        for (std::size_t sc = 0; sc < ns; ++sc)
          for (std::size_t sd = 0; sd < ns; ++sd) {
            const auto& a = bs.shell(sa);
            const auto& b = bs.shell(sb);
            const auto& c = bs.shell(sc);
            const auto& d = bs.shell(sd);
            eri_shell_quartet(a, b, c, d, block);
            const std::vector<double> ref = reference_quartet(a, b, c, d);
            ASSERT_EQ(block.size(), ref.size());
            values += ref.size();
            if (std::memcmp(block.data(), ref.data(),
                            ref.size() * sizeof(double)) != 0)
              ++mismatches;
          }
    EXPECT_EQ(mismatches, 0u) << "shell quartets differ, of " << values
                              << " values";
  }
}

TEST(Eri, PairCachedTensorMatchesPerQuartetBitwise) {
  const Molecule w = chem::make_water({0.1, -0.2, 0.3}, 0.7);
  {
    SCOPED_TRACE("STO-3G water");
    expect_tensor_matches_quartets_bitwise(BasisSet::sto3g(w));
  }
  {
    SCOPED_TRACE("6-31G water");
    expect_tensor_matches_quartets_bitwise(BasisSet::b631g(w));
  }
  {
    SCOPED_TRACE("STO-3G hydrogen sulfide");
    expect_tensor_matches_quartets_bitwise(
        BasisSet::sto3g(hydrogen_sulfide()));
  }
}

TEST(Eri, CoulombExchangeSymmetric) {
  const Molecule w = chem::make_water({0, 0, 0});
  const BasisSet bs = BasisSet::sto3g(w);
  const EriTensor eri(bs);
  la::Matrix p(bs.n_functions(), bs.n_functions());
  // Arbitrary symmetric density.
  for (std::size_t a = 0; a < p.rows(); ++a)
    for (std::size_t b = 0; b <= a; ++b)
      p(a, b) = p(b, a) = 0.1 * static_cast<double>(a + b) /
                          static_cast<double>(p.rows());
  const la::Matrix j = eri.coulomb(p);
  const la::Matrix k = eri.exchange(p);
  EXPECT_LT(la::max_abs_diff(j, j.transposed()), 1e-12);
  EXPECT_LT(la::max_abs_diff(k, k.transposed()), 1e-12);
}

TEST(Eri, CoulombDominatesExchange) {
  // For a positive-semidefinite density, J's diagonal bounds K's.
  const BasisSet bs = BasisSet::sto3g(h2_szabo());
  const EriTensor eri(bs);
  la::Matrix p(2, 2);
  p(0, 0) = p(1, 1) = 1.0;
  p(0, 1) = p(1, 0) = 0.9;
  const la::Matrix j = eri.coulomb(p);
  const la::Matrix k = eri.exchange(p);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_GE(j(i, i), k(i, i) - 1e-12);
}

TEST(Basis, Sto3gCounts) {
  const Molecule w = chem::make_water({0, 0, 0});
  const BasisSet bs = BasisSet::sto3g(w);
  // O: 1s + 2s + 2p = 5 functions; each H: 1. Total 7.
  EXPECT_EQ(bs.n_functions(), 7u);
  EXPECT_EQ(bs.n_shells(), 5u);
  EXPECT_EQ(bs.function_atom(0), 0u);
  EXPECT_EQ(bs.function_atom(5), 1u);
  EXPECT_EQ(bs.function_atom(6), 2u);
}

TEST(Basis, CartesianPowers) {
  const auto s = basis::cartesian_powers(0);
  ASSERT_EQ(s.size(), 1u);
  const auto p = basis::cartesian_powers(1);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0].i, 1);
  EXPECT_EQ(p[1].j, 1);
  EXPECT_EQ(p[2].k, 1);
}

TEST(Basis, CartesianPowersTablesMatchEnumeration) {
  for (int l = 0; l <= basis::kMaxCartesianL; ++l) {
    const auto pw = basis::cartesian_powers(l);
    ASSERT_EQ(pw.size(), static_cast<std::size_t>((l + 1) * (l + 2) / 2));
    std::size_t f = 0;
    for (int i = l; i >= 0; --i)
      for (int j = l - i; j >= 0; --j, ++f) {
        EXPECT_EQ(pw[f].i, i) << "l=" << l << " f=" << f;
        EXPECT_EQ(pw[f].j, j) << "l=" << l << " f=" << f;
        EXPECT_EQ(pw[f].k, l - i - j) << "l=" << l << " f=" << f;
      }
  }
  EXPECT_TRUE(basis::cartesian_powers(-1).empty());
  EXPECT_THROW(basis::cartesian_powers(basis::kMaxCartesianL + 1),
               InvalidArgument);
}

}  // namespace
}  // namespace qfr::ints
