#include "qfr/integrals/eri.hpp"

#include <cmath>

#include "qfr/common/error.hpp"
#include "qfr/common/units.hpp"
#include "qfr/integrals/hermite.hpp"
#include "qfr/integrals/shell_pair.hpp"

namespace qfr::ints {

namespace {

using basis::BasisSet;
using basis::Shell;

}  // namespace

namespace detail {

ShellPairTerms make_pair_terms(const Shell& a, const Shell& b,
                               PairSide side) {
  const auto pw_a = basis::cartesian_powers(a.l);
  const auto pw_b = basis::cartesian_powers(b.l);
  ShellPairTerms out;
  out.l_sum = a.l + b.l;
  out.n_fn = pw_a.size() * pw_b.size();
  out.prims.reserve(a.prims.size() * b.prims.size());
  out.offsets.reserve(a.prims.size() * b.prims.size() * out.n_fn + 1);
  out.offsets.push_back(0);
  for (const auto& p1 : a.prims)
    for (const auto& p2 : b.prims) {
      const Hermite1D ex(p1.exponent, p2.exponent, a.center.x, b.center.x,
                         a.l, b.l);
      const Hermite1D ey(p1.exponent, p2.exponent, a.center.y, b.center.y,
                         a.l, b.l);
      const Hermite1D ez(p1.exponent, p2.exponent, a.center.z, b.center.z,
                         a.l, b.l);
      out.prims.push_back({ex.p(),
                           {ex.center(), ey.center(), ez.center()},
                           p1.coefficient,
                           p2.coefficient});
      for (const auto& qa : pw_a)
        for (const auto& qb : pw_b) {
          for (int t = 0; t <= qa.i + qb.i; ++t) {
            const double fx = ex(qa.i, qb.i, t);
            if (fx == 0.0) continue;
            for (int u = 0; u <= qa.j + qb.j; ++u) {
              const double fy = ey(qa.j, qb.j, u);
              if (fy == 0.0) continue;
              for (int v = 0; v <= qa.k + qb.k; ++v) {
                const double fz = ez(qa.k, qb.k, v);
                if (fz == 0.0) continue;
                const double sign =
                    (side == PairSide::kKet && (t + u + v) % 2 != 0) ? -1.0
                                                                     : 1.0;
                // Left to right, as the per-quartet loop multiplied it
                // (1.0 * x is exact, so bra terms are Ex * Ey * Ez).
                const double coef = sign * fx * fy * fz;
                out.terms.push_back(
                    {static_cast<std::uint32_t>(HermiteR::index(t, u, v)),
                     coef});
              }
            }
          }
          out.offsets.push_back(static_cast<std::uint32_t>(out.terms.size()));
        }
    }
  return out;
}

void contract_quartet(const ShellPairTerms& bra, const ShellPairTerms& ket,
                      std::vector<double>& out) {
  const std::size_t nbra = bra.n_fn, nket = ket.n_fn;
  out.assign(nbra * nket, 0.0);
  const int t_max = bra.l_sum + ket.l_sum;
  const HermiteTerm* const bra_terms = bra.terms.data();
  const HermiteTerm* const ket_terms = ket.terms.data();

  for (std::size_t i = 0; i < bra.prims.size(); ++i) {
    const auto& b = bra.prims[i];
    const std::uint32_t* const bra_off = bra.offsets.data() + i * nbra;
    for (std::size_t j = 0; j < ket.prims.size(); ++j) {
      const auto& k = ket.prims[j];
      const std::uint32_t* const ket_off = ket.offsets.data() + j * nket;
      const double p = b.p;
      const double q = k.p;
      const double alpha = p * q / (p + q);
      const double pref = b.c1 * b.c2 * k.c1 * k.c2 * 2.0 *
                          std::pow(units::kPi, 2.5) /
                          (p * q * std::sqrt(p + q));
      const HermiteR r(alpha, b.center - k.center, t_max);

      double* dst = out.data();
      for (std::size_t fb = 0; fb < nbra; ++fb)
        for (std::size_t fk = 0; fk < nket; ++fk, ++dst) {
          double acc = 0.0;
          for (std::uint32_t x = bra_off[fb]; x < bra_off[fb + 1]; ++x) {
            const HermiteTerm& bt = bra_terms[x];
            double inner = 0.0;
            for (std::uint32_t y = ket_off[fk]; y < ket_off[fk + 1]; ++y)
              inner += ket_terms[y].coef *
                       r.at(bt.r_offset + ket_terms[y].r_offset);
            acc += bt.coef * inner;
          }
          *dst += pref * acc;
        }
    }
  }
}

}  // namespace detail

void eri_shell_quartet(const Shell& a, const Shell& b, const Shell& c,
                       const Shell& d, std::vector<double>& out) {
  detail::contract_quartet(
      detail::make_pair_terms(a, b, detail::PairSide::kBra),
      detail::make_pair_terms(c, d, detail::PairSide::kKet), out);
}

EriTensor::EriTensor(const BasisSet& bs, double screen_threshold) {
  using detail::PairSide;
  nbf_ = bs.n_functions();
  const std::size_t npair = nbf_ * (nbf_ + 1) / 2;
  values_.assign(npair * (npair + 1) / 2, 0.0);

  const std::size_t ns = bs.n_shells();

  // Hermite term lists of every shell pair sa >= sb, once per side; the
  // Schwarz pass and every quartet below reuse them.
  std::vector<detail::ShellPairTerms> bra, ket;
  bra.reserve(ns * (ns + 1) / 2);
  ket.reserve(ns * (ns + 1) / 2);
  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb) {
      bra.push_back(
          detail::make_pair_terms(bs.shell(sa), bs.shell(sb), PairSide::kBra));
      ket.push_back(
          detail::make_pair_terms(bs.shell(sa), bs.shell(sb), PairSide::kKet));
    }

  // Schwarz bounds per shell pair: sqrt(max |(ab|ab)|).
  la::Matrix schwarz(ns, ns);
  std::vector<double> block;
  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb) {
      const Shell& a = bs.shell(sa);
      const Shell& b = bs.shell(sb);
      const std::size_t ab = pair_index(sa, sb);
      detail::contract_quartet(bra[ab], ket[ab], block);
      const std::size_t na = a.n_functions(), nbn = b.n_functions();
      double mx = 0.0;
      for (std::size_t fa = 0; fa < na; ++fa)
        for (std::size_t fb = 0; fb < nbn; ++fb) {
          const std::size_t idx =
              ((fa * nbn + fb) * na + fa) * nbn + fb;  // (ab|ab)
          mx = std::max(mx, std::fabs(block[idx]));
        }
      schwarz(sa, sb) = schwarz(sb, sa) = std::sqrt(mx);
    }

  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb)
      for (std::size_t sc = 0; sc <= sa; ++sc)
        for (std::size_t sd = 0; sd <= ((sc == sa) ? sb : sc); ++sd) {
          if (schwarz(sa, sb) * schwarz(sc, sd) < screen_threshold) continue;
          const Shell& a = bs.shell(sa);
          const Shell& b = bs.shell(sb);
          const Shell& c = bs.shell(sc);
          const Shell& d = bs.shell(sd);
          detail::contract_quartet(bra[pair_index(sa, sb)],
                                   ket[pair_index(sc, sd)], block);
          const std::size_t na = a.n_functions(), nbn = b.n_functions(),
                            ncn = c.n_functions(), ndn = d.n_functions();
          std::size_t idx = 0;
          for (std::size_t fa = 0; fa < na; ++fa)
            for (std::size_t fb = 0; fb < nbn; ++fb)
              for (std::size_t fc = 0; fc < ncn; ++fc)
                for (std::size_t fd = 0; fd < ndn; ++fd, ++idx) {
                  values_[composite(a.first_bf + fa, b.first_bf + fb,
                                    c.first_bf + fc, d.first_bf + fd)] =
                      block[idx];
                }
        }
}

la::Matrix EriTensor::coulomb(const la::Matrix& density) const {
  QFR_REQUIRE(density.rows() == nbf_ && density.cols() == nbf_,
              "density shape mismatch");
  la::Matrix j(nbf_, nbf_);
  for (std::size_t i = 0; i < nbf_; ++i)
    for (std::size_t jj = 0; jj <= i; ++jj) {
      double acc = 0.0;
      for (std::size_t k = 0; k < nbf_; ++k)
        for (std::size_t l = 0; l < nbf_; ++l)
          acc += density(k, l) * (*this)(i, jj, k, l);
      j(i, jj) = j(jj, i) = acc;
    }
  return j;
}

la::Matrix EriTensor::exchange(const la::Matrix& density) const {
  QFR_REQUIRE(density.rows() == nbf_ && density.cols() == nbf_,
              "density shape mismatch");
  la::Matrix k(nbf_, nbf_);
  for (std::size_t i = 0; i < nbf_; ++i)
    for (std::size_t jj = 0; jj <= i; ++jj) {
      double acc = 0.0;
      for (std::size_t p = 0; p < nbf_; ++p)
        for (std::size_t q = 0; q < nbf_; ++q)
          acc += density(p, q) * (*this)(i, p, jj, q);
      k(i, jj) = k(jj, i) = acc;
    }
  return k;
}

}  // namespace qfr::ints
