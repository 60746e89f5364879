#include "qfr/integrals/gradients.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "qfr/common/error.hpp"
#include "qfr/common/units.hpp"
#include "qfr/grid/molgrid.hpp"
#include "qfr/grid/orbital_eval.hpp"
#include "qfr/integrals/hermite.hpp"
#include "qfr/integrals/shell_pair.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/xc/lda.hpp"

namespace qfr::ints {

namespace {

using basis::CartPowers;
using basis::Shell;
using la::Matrix;

// d/dA of a contracted Gaussian: raised shell carries 2*a_k-scaled
// coefficients, lowered shell the original ones (angular prefactor -i is
// applied at extraction time). No renormalization: the derivative of a
// normalized function is exactly this combination.
Shell raised_shell(const Shell& s) {
  Shell r = s;
  r.l = s.l + 1;
  for (auto& p : r.prims) p.coefficient *= 2.0 * p.exponent;
  return r;
}

Shell lowered_shell(const Shell& s) {
  QFR_ASSERT(s.l > 0, "cannot lower an s shell");
  Shell r = s;
  r.l = s.l - 1;
  return r;
}

// Index of Cartesian powers (i, j, k) within cartesian_powers(l).
std::size_t cart_index(int l, int i, int j, int k) {
  const auto pw = basis::cartesian_powers(l);
  for (std::size_t f = 0; f < pw.size(); ++f)
    if (pw[f].i == i && pw[f].j == j && pw[f].k == k) return f;
  QFR_ASSERT(false, "cartesian component not found");
  return 0;
}

double s1d(const Hermite1D& e, int i, int j) {
  return e(i, j, 0) * std::sqrt(units::kPi / e.p());
}

// Generic one-electron block <a|Ô|b> for Ô in {overlap, kinetic, nuclear}.
enum class OneEOp { kOverlap, kKinetic, kNuclear };

Matrix one_electron_block(const Shell& a, const Shell& b, OneEOp op,
                          const chem::Molecule* mol) {
  const auto pw_a = basis::cartesian_powers(a.l);
  const auto pw_b = basis::cartesian_powers(b.l);
  Matrix block(pw_a.size(), pw_b.size());
  const int jpad = (op == OneEOp::kKinetic) ? 2 : 0;

  for (const auto& pa : a.prims)
    for (const auto& pb : b.prims) {
      const double cc = pa.coefficient * pb.coefficient;
      const Hermite1D ex(pa.exponent, pb.exponent, a.center.x, b.center.x,
                         a.l, b.l + jpad);
      const Hermite1D ey(pa.exponent, pb.exponent, a.center.y, b.center.y,
                         a.l, b.l + jpad);
      const Hermite1D ez(pa.exponent, pb.exponent, a.center.z, b.center.z,
                         a.l, b.l + jpad);
      const double beta = pb.exponent;
      auto t1d = [&](const Hermite1D& e, int i, int j) {
        double v = -2.0 * beta * beta * s1d(e, i, j + 2) +
                   beta * (2.0 * j + 1.0) * s1d(e, i, j);
        if (j >= 2) v -= 0.5 * j * (j - 1.0) * s1d(e, i, j - 2);
        return v;
      };

      if (op == OneEOp::kNuclear) {
        const double p = ex.p();
        const geom::Vec3 pctr{ex.center(), ey.center(), ez.center()};
        const double pref = 2.0 * units::kPi / p;
        for (std::size_t n = 0; n < mol->size(); ++n) {
          const auto& atom = mol->atom(n);
          const HermiteR r(p, pctr - atom.position, a.l + b.l);
          const double z = chem::atomic_number(atom.element);
          for (std::size_t fa = 0; fa < pw_a.size(); ++fa)
            for (std::size_t fb = 0; fb < pw_b.size(); ++fb) {
              const auto& qa = pw_a[fa];
              const auto& qb = pw_b[fb];
              double acc = 0.0;
              for (int t = 0; t <= qa.i + qb.i; ++t)
                for (int u = 0; u <= qa.j + qb.j; ++u)
                  for (int w = 0; w <= qa.k + qb.k; ++w)
                    acc += ex(qa.i, qb.i, t) * ey(qa.j, qb.j, u) *
                           ez(qa.k, qb.k, w) * r(t, u, w);
              block(fa, fb) -= cc * pref * z * acc;
            }
        }
        continue;
      }

      for (std::size_t fa = 0; fa < pw_a.size(); ++fa)
        for (std::size_t fb = 0; fb < pw_b.size(); ++fb) {
          const auto& qa = pw_a[fa];
          const auto& qb = pw_b[fb];
          if (op == OneEOp::kOverlap) {
            block(fa, fb) += cc * s1d(ex, qa.i, qb.i) * s1d(ey, qa.j, qb.j) *
                             s1d(ez, qa.k, qb.k);
          } else {
            const double sx = s1d(ex, qa.i, qb.i);
            const double sy = s1d(ey, qa.j, qb.j);
            const double sz = s1d(ez, qa.k, qb.k);
            block(fa, fb) += cc * (t1d(ex, qa.i, qb.i) * sy * sz +
                                   sx * t1d(ey, qa.j, qb.j) * sz +
                                   sx * sy * t1d(ez, qa.k, qb.k));
          }
        }
    }
  return block;
}

// Bra-derivative blocks d<a|Ô|b>/dA_c for c = x, y, z, assembled from the
// raised/lowered-shell blocks.
std::array<Matrix, 3> bra_derivative_block(const Shell& a, const Shell& b,
                                           OneEOp op,
                                           const chem::Molecule* mol) {
  const auto pw_a = basis::cartesian_powers(a.l);
  const Shell up = raised_shell(a);
  const Matrix up_block = one_electron_block(up, b, op, mol);
  Matrix down_block;
  if (a.l > 0)
    down_block = one_electron_block(lowered_shell(a), b, op, mol);

  std::array<Matrix, 3> d;
  for (auto& m : d) m.resize_zero(pw_a.size(), b.n_functions());
  for (std::size_t fa = 0; fa < pw_a.size(); ++fa) {
    const auto& q = pw_a[fa];
    const int pw[3] = {q.i, q.j, q.k};
    for (int c = 0; c < 3; ++c) {
      int up_pw[3] = {q.i, q.j, q.k};
      up_pw[c] += 1;
      const std::size_t fu = cart_index(up.l, up_pw[0], up_pw[1], up_pw[2]);
      for (std::size_t fb = 0; fb < b.n_functions(); ++fb) {
        double v = up_block(fu, fb);
        if (pw[c] > 0) {
          int dn_pw[3] = {q.i, q.j, q.k};
          dn_pw[c] -= 1;
          const std::size_t fd =
              cart_index(a.l - 1, dn_pw[0], dn_pw[1], dn_pw[2]);
          v -= pw[c] * down_block(fd, fb);
        }
        d[c](fa, fb) = v;
      }
    }
  }
  return d;
}

// Hellmann-Feynman contributions: the nuclear-attraction operator's own
// center derivative, accumulated directly into the gradient:
// d<mu|-Z/|r-C||nu>/dC_c = -(2 pi / p) Z sum E_tuv * (-R_{tuv + e_c}).
void accumulate_hellmann_feynman(const Shell& a, const Shell& b,
                                 const chem::Molecule& mol,
                                 const Matrix& density,
                                 std::span<double> grad) {
  const auto pw_a = basis::cartesian_powers(a.l);
  const auto pw_b = basis::cartesian_powers(b.l);
  for (const auto& pa : a.prims)
    for (const auto& pb : b.prims) {
      const double cc = pa.coefficient * pb.coefficient;
      const Hermite1D ex(pa.exponent, pb.exponent, a.center.x, b.center.x,
                         a.l, b.l);
      const Hermite1D ey(pa.exponent, pb.exponent, a.center.y, b.center.y,
                         a.l, b.l);
      const Hermite1D ez(pa.exponent, pb.exponent, a.center.z, b.center.z,
                         a.l, b.l);
      const double p = ex.p();
      const geom::Vec3 pctr{ex.center(), ey.center(), ez.center()};
      const double pref = 2.0 * units::kPi / p;
      for (std::size_t n = 0; n < mol.size(); ++n) {
        const auto& atom = mol.atom(n);
        const HermiteR r(p, pctr - atom.position, a.l + b.l + 1);
        const double z = chem::atomic_number(atom.element);
        for (std::size_t fa = 0; fa < pw_a.size(); ++fa)
          for (std::size_t fb = 0; fb < pw_b.size(); ++fb) {
            const double w =
                density(a.first_bf + fa, b.first_bf + fb) * cc * pref * z;
            if (w == 0.0) continue;
            const auto& qa = pw_a[fa];
            const auto& qb = pw_b[fb];
            double acc[3] = {0.0, 0.0, 0.0};
            for (int t = 0; t <= qa.i + qb.i; ++t)
              for (int u = 0; u <= qa.j + qb.j; ++u)
                for (int v = 0; v <= qa.k + qb.k; ++v) {
                  const double e3 = ex(qa.i, qb.i, t) * ey(qa.j, qb.j, u) *
                                    ez(qa.k, qb.k, v);
                  if (e3 == 0.0) continue;
                  acc[0] += e3 * r(t + 1, u, v);
                  acc[1] += e3 * r(t, u + 1, v);
                  acc[2] += e3 * r(t, u, v + 1);
                }
            // dV/dC_c = +(2 pi/p) Z sum E R_{+e_c} (operator term).
            for (int c = 0; c < 3; ++c) grad[3 * n + c] += w * acc[c];
          }
      }
    }
}

// Hermite term lists of the shells d/dA_c splits a bra shell into: the
// raised shell, and the lowered one for l > 0 (empty otherwise).
struct BraDerivativeTerms {
  detail::ShellPairTerms up;
  detail::ShellPairTerms down;
};

// Per-quartet buffers of eri_bra_derivative, reused across quartets.
struct EriDerivativeScratch {
  std::vector<double> up_block, down_block;
  std::array<std::vector<double>, 3> out;
};

// Bra-derivative ERI blocks d1(ab|cd)/dA_c, flattened [fa][fb][fc][fd],
// into scratch.out.
void eri_bra_derivative(const Shell& a, const Shell& b,
                        const BraDerivativeTerms& bra,
                        const detail::ShellPairTerms& ket,
                        EriDerivativeScratch& scratch) {
  const auto pw_a = basis::cartesian_powers(a.l);
  const int up_l = a.l + 1;
  const std::vector<double>& up_block = scratch.up_block;
  const std::vector<double>& down_block = scratch.down_block;
  detail::contract_quartet(bra.up, ket, scratch.up_block);
  if (a.l > 0) detail::contract_quartet(bra.down, ket, scratch.down_block);

  auto& out = scratch.out;
  const std::size_t tail = b.n_functions() * ket.n_fn;
  for (auto& v : out) v.assign(pw_a.size() * tail, 0.0);
  for (std::size_t fa = 0; fa < pw_a.size(); ++fa) {
    const auto& q = pw_a[fa];
    const int pw[3] = {q.i, q.j, q.k};
    for (int comp = 0; comp < 3; ++comp) {
      int up_pw[3] = {q.i, q.j, q.k};
      up_pw[comp] += 1;
      const std::size_t fu = cart_index(up_l, up_pw[0], up_pw[1], up_pw[2]);
      double* dst = out[comp].data() + fa * tail;
      const double* src_up = up_block.data() + fu * tail;
      for (std::size_t t = 0; t < tail; ++t) dst[t] = src_up[t];
      if (pw[comp] > 0) {
        int dn_pw[3] = {q.i, q.j, q.k};
        dn_pw[comp] -= 1;
        const std::size_t fd =
            cart_index(a.l - 1, dn_pw[0], dn_pw[1], dn_pw[2]);
        const double* src_dn = down_block.data() + fd * tail;
        for (std::size_t t = 0; t < tail; ++t)
          dst[t] -= pw[comp] * src_dn[t];
      }
    }
  }
}

// Every term of the closed-shell SCF gradient but exchange-correlation:
// nuclear repulsion, one-electron, -W.dS and the two-electron term with
//   Gamma_eff = 2 P_mn P_ls - exchange (P_ml P_ns + P_nl P_ms),
// exchange = 1/2 for Hartree-Fock and 0 for a pure density functional.
la::Vector mean_field_gradient(const scf::ScfContext& ctx,
                               const scf::ScfResult& scf_state,
                               double exchange) {
  QFR_REQUIRE(scf_state.converged, "gradient requires a converged SCF state");
  const auto& bs = ctx.bs;
  const auto& mol = ctx.mol;
  const std::size_t dim = 3 * mol.size();
  la::Vector grad(dim, 0.0);

  const Matrix& p = scf_state.density;
  // Energy-weighted density W = 2 sum_i^occ eps_i C_i C_i^T.
  const std::size_t n = bs.n_functions();
  Matrix w(n, n);
  for (std::size_t mu = 0; mu < n; ++mu)
    for (std::size_t nu = 0; nu < n; ++nu) {
      double acc = 0.0;
      for (int i = 0; i < scf_state.n_occupied; ++i)
        acc += scf_state.mo_energies[i] * scf_state.mo_coefficients(mu, i) *
               scf_state.mo_coefficients(nu, i);
      w(mu, nu) = 2.0 * acc;
    }

  // Nuclear repulsion gradient.
  for (std::size_t i = 0; i < mol.size(); ++i)
    for (std::size_t j = 0; j < mol.size(); ++j) {
      if (i == j) continue;
      const geom::Vec3 d = mol.atom(i).position - mol.atom(j).position;
      const double r = d.norm();
      const double zz = chem::atomic_number(mol.atom(i).element) *
                        chem::atomic_number(mol.atom(j).element);
      for (int c = 0; c < 3; ++c)
        grad[3 * i + c] -= zz * d[c] / (r * r * r);
    }

  // One-electron terms. For a symmetric contraction matrix X,
  //   sum_{mu nu} X_mn d<mu|O|nu>/dA = 2 sum_{ordered pairs} X_mn d_bra
  // (the ket term of (mu, nu) relabels onto the bra term of (nu, mu)), so
  // the basis-derivative pieces carry a factor 2; the Hellmann-Feynman
  // operator term visits every (mu, nu) exactly once and does not.
  for (const auto& a : bs.shells()) {
    for (const auto& b : bs.shells()) {
      const auto dt = bra_derivative_block(a, b, OneEOp::kKinetic, nullptr);
      const auto dv = bra_derivative_block(a, b, OneEOp::kNuclear, &mol);
      const auto ds = bra_derivative_block(a, b, OneEOp::kOverlap, nullptr);
      for (std::size_t fa = 0; fa < a.n_functions(); ++fa)
        for (std::size_t fb = 0; fb < b.n_functions(); ++fb) {
          const double pv = p(a.first_bf + fa, b.first_bf + fb);
          const double wv = w(a.first_bf + fa, b.first_bf + fb);
          for (int c = 0; c < 3; ++c)
            grad[3 * a.atom + c] +=
                2.0 * (pv * (dt[c](fa, fb) + dv[c](fa, fb)) -
                       wv * ds[c](fa, fb));
        }
      accumulate_hellmann_feynman(a, b, mol, p, grad);
    }
  }

  // Two-electron term: only the first index's center derivative is
  // computed, with the effective two-particle density Gamma_eff absorbing
  // the other three positions (relabeling mn <-> nm and (mn) <-> (ls)).
  // Gamma_eff and d(ab|cd)/dA are both symmetric under c <-> d, so the
  // loop visits ket shell pairs sd <= sc and weights sd < sc by 2.
  const std::size_t ns = bs.n_shells();

  // Hermite term lists, built once per shell pair and reused by the
  // Schwarz pass and every derivative quartet: the raised/lowered bra
  // lists of every ordered pair (a, b) and the ket list of every pair
  // (c, d) with d <= c.
  using detail::PairSide;
  std::vector<BraDerivativeTerms> bra_deriv(ns * ns);
  std::vector<detail::ShellPairTerms> ket(ns * ns);
  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb < ns; ++sb) {
      const Shell& a = bs.shell(sa);
      const Shell& b = bs.shell(sb);
      auto& bd = bra_deriv[sa * ns + sb];
      bd.up = detail::make_pair_terms(raised_shell(a), b, PairSide::kBra);
      if (a.l > 0)
        bd.down =
            detail::make_pair_terms(lowered_shell(a), b, PairSide::kBra);
      if (sb <= sa)
        ket[sa * ns + sb] = detail::make_pair_terms(a, b, PairSide::kKet);
    }

  // Schwarz bounds for screening the quartic loop (the derivative
  // integrals obey essentially the same decay as the integrals).
  Matrix schwarz(ns, ns);
  {
    std::vector<double> block;
    for (std::size_t sa = 0; sa < ns; ++sa)
      for (std::size_t sb = 0; sb <= sa; ++sb) {
        const Shell& a = bs.shell(sa);
        const Shell& b = bs.shell(sb);
        detail::contract_quartet(
            detail::make_pair_terms(a, b, PairSide::kBra),
            ket[sa * ns + sb], block);
        double mx = 0.0;
        for (double v : block) mx = std::max(mx, std::fabs(v));
        schwarz(sa, sb) = schwarz(sb, sa) = std::sqrt(mx);
      }
  }
  constexpr double kScreen = 1e-11;

  EriDerivativeScratch scratch;
  for (std::size_t sa = 0; sa < ns; ++sa) {
    const Shell& a = bs.shell(sa);
    for (std::size_t sb = 0; sb < ns; ++sb) {
      const Shell& b = bs.shell(sb);
      for (std::size_t sc = 0; sc < ns; ++sc) {
        const Shell& c = bs.shell(sc);
        for (std::size_t sd = 0; sd <= sc; ++sd) {
          const Shell& d = bs.shell(sd);
          if (schwarz(sa, sb) * schwarz(sc, sd) < kScreen) continue;
          const double ket_weight = sd < sc ? 2.0 : 1.0;
          eri_bra_derivative(a, b, bra_deriv[sa * ns + sb],
                             ket[sc * ns + sd], scratch);
          const auto& deriv = scratch.out;
          std::size_t idx = 0;
          for (std::size_t fa = 0; fa < a.n_functions(); ++fa)
            for (std::size_t fb = 0; fb < b.n_functions(); ++fb)
              for (std::size_t fc = 0; fc < c.n_functions(); ++fc)
                for (std::size_t fd = 0; fd < d.n_functions(); ++fd, ++idx) {
                  const std::size_t mu = a.first_bf + fa;
                  const std::size_t nu = b.first_bf + fb;
                  const std::size_t la_ = c.first_bf + fc;
                  const std::size_t si = d.first_bf + fd;
                  const double gamma =
                      ket_weight *
                      (2.0 * p(mu, nu) * p(la_, si) -
                       exchange * (p(mu, la_) * p(nu, si) +
                                   p(nu, la_) * p(mu, si)));
                  if (gamma == 0.0) continue;
                  for (int comp = 0; comp < 3; ++comp)
                    grad[3 * a.atom + comp] += gamma * deriv[comp][idx];
                }
        }
      }
    }
  }
  return grad;
}

// Exchange-correlation part of the LDA gradient, added to `grad`: the
// basis-function, point-moving and partition-weight derivatives of
// E_xc = sum_p w_p e_xc(rho_p) on the solver's grid.
void accumulate_xc_gradient(const scf::ScfContext& ctx, const Matrix& p,
                            int grid_radial_points, std::span<double> grad) {
  const grid::MolGrid grid(ctx.mol, grid_radial_points);
  const auto pts = grid.points();
  const grid::BasisBatch batch =
      grid::evaluate_basis(ctx.bs, pts, /*with_gradient=*/true);
  // rho, e_xc and v_xc exactly as the solver computes them.
  const la::Vector rho = grid::density_on_batch(batch, p);
  la::Vector e_pt(rho.size()), v_pt(rho.size());
  xc::lda_exchange_batch(rho, e_pt, v_pt, {});

  // chi_p(p, mu) = sum_nu P_mn chi_nu(r_p), so that
  //   grad rho_p = 2 sum_mu grad chi_mu(r_p) chi_p(p, mu).
  const std::size_t nbf = ctx.bs.n_functions();
  Matrix chi_p(pts.size(), nbf);
  la::gemm(la::Trans::kNo, la::Trans::kNo, 1.0, batch.chi, p, 0.0, chi_p);

  // d chi_mu/dR_A = -grad chi_mu for mu on A, and a point on atom g moves
  // with g. So the term t = 2 w_p v_p grad chi_mu chi_p(p, mu) of basis
  // function mu on atom A enters atom A with -t and the point's owner with
  // +t: the two cancel when mu sits on the owner itself.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double wv = 2.0 * pts[i].weight * v_pt[i];
    if (wv == 0.0) continue;
    const std::size_t owner = pts[i].atom;
    for (std::size_t mu = 0; mu < nbf; ++mu) {
      const std::size_t atom = ctx.bs.function_atom(mu);
      if (atom == owner) continue;
      const double x = wv * chi_p(i, mu);
      for (int c = 0; c < 3; ++c) {
        const double t = x * batch.grad[c](i, mu);
        grad[3 * atom + c] -= t;
        grad[3 * owner + c] += t;
      }
    }
  }
  grid.accumulate_weight_gradient(e_pt, grad);
}

}  // namespace

la::Vector rhf_gradient(const scf::ScfContext& ctx,
                        const scf::ScfResult& scf_state) {
  return mean_field_gradient(ctx, scf_state, /*exchange=*/0.5);
}

la::Vector lda_gradient(const scf::ScfContext& ctx,
                        const scf::ScfResult& scf_state,
                        int grid_radial_points) {
  la::Vector grad = mean_field_gradient(ctx, scf_state, /*exchange=*/0.0);
  accumulate_xc_gradient(ctx, scf_state.density, grid_radial_points, grad);
  return grad;
}

}  // namespace qfr::ints
