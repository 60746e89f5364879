#pragma once

// Internal to the integrals module: the shell-pair Hermite term lists that
// eri.cpp and gradients.cpp build once per shell pair and contract per
// quartet.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "qfr/basis/basis.hpp"
#include "qfr/geom/vec3.hpp"

namespace qfr::ints::detail {

/// One non-zero Hermite term of a Cartesian function pair: `coef` is
/// E^x_t E^y_u E^z_v (ket terms carry (-1)^(t+u+v) in front), and
/// `r_offset` is HermiteR::index(t, u, v).
struct HermiteTerm {
  std::uint32_t r_offset = 0;
  double coef = 0.0;
};

/// Which side of (ab|cd) a pair list is built for.
enum class PairSide { kBra, kKet };

/// Primitive-pair data of a shell pair (a, b).
///
/// For primitive pair `pp` (a's primitive outer, b's inner) and function
/// pair `f = fa * n_b + fb`, the Hermite terms are
/// terms[offsets[pp * n_fn + f] .. offsets[pp * n_fn + f + 1]), in
/// (t, u, v) lexicographic order with every term skipped whose 1D factor
/// is zero.
struct ShellPairTerms {
  struct Prim {
    double p = 0.0;      ///< combined exponent
    geom::Vec3 center;   ///< combined center P
    double c1 = 0.0;     ///< a's contraction coefficient
    double c2 = 0.0;     ///< b's contraction coefficient
  };

  int l_sum = 0;          ///< a.l + b.l
  std::size_t n_fn = 0;   ///< function pairs, n_a * n_b
  std::vector<Prim> prims;
  std::vector<std::uint32_t> offsets;
  std::vector<HermiteTerm> terms;
};

ShellPairTerms make_pair_terms(const basis::Shell& a, const basis::Shell& b,
                               PairSide side);

/// (ab|cd) for every function quartet, flattened as [fa][fb][fc][fd] into
/// `out` (resized and zeroed here; its capacity is reused across calls).
/// Bitwise identical to the per-quartet McMurchie-Davidson loop it
/// replaces: same primitive order, same left-to-right products.
void contract_quartet(const ShellPairTerms& bra, const ShellPairTerms& ket,
                      std::vector<double>& out);

}  // namespace qfr::ints::detail
