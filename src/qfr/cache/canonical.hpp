#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qfr/chem/molecule.hpp"
#include "qfr/common/byte_codec.hpp"
#include "qfr/engine/fragment_engine.hpp"
#include "qfr/geom/vec3.hpp"

namespace qfr::cache {

/// Content address of one fragment geometry, invariant under rigid
/// translation, proper rotation, and atom permutation.
///
/// Construction (see canonicalize): positions are shifted to the center of
/// mass, rotated into the principal inertia frame (eigenvalues ascending;
/// the four proper sign assignments of the first two axes are tried and
/// the lexicographically smallest quantized image wins, so the frame needs
/// no third-moment heuristics), quantized onto a `tolerance`-spaced grid,
/// and sorted by (element, grid coordinates). Reflections are never used:
/// polarizability derivatives are chiral, so an enantiomer must MISS, not
/// hit. The 128-bit hash buckets the key; equality always compares the
/// full quantized payload, so a hash collision costs a compare, never a
/// wrong result.
struct FragmentKey {
  /// Engine namespace: results from different engines (or fallback
  /// levels) never alias, so a cached model-surrogate result can not be
  /// served to a primary-SCF request.
  std::string ns;
  /// Quantization grid spacing (bohr); part of the key so stores built at
  /// different tolerances never mix.
  double tolerance = 0.0;
  std::vector<std::int32_t> z;  ///< atomic numbers, canonical order
  std::vector<std::int64_t> q;  ///< 3n quantized canonical coords
  std::uint64_t h0 = 0;         ///< 128-bit content hash, low word
  std::uint64_t h1 = 0;         ///< 128-bit content hash, high word

  bool operator==(const FragmentKey& o) const {
    return h0 == o.h0 && h1 == o.h1 && tolerance == o.tolerance &&
           z == o.z && q == o.q && ns == o.ns;
  }

  std::size_t n_atoms() const { return z.size(); }
  /// Approximate in-memory footprint (byte-budget accounting).
  std::size_t payload_bytes() const {
    return ns.size() + z.size() * sizeof(std::int32_t) +
           q.size() * sizeof(std::int64_t) + sizeof(FragmentKey);
  }
};

struct FragmentKeyHash {
  std::size_t operator()(const FragmentKey& k) const {
    return static_cast<std::size_t>(k.h0 ^ (k.h1 * 0x9e3779b97f4a7c15ull));
  }
};

/// A key plus the rigid transform and permutation that produced it — the
/// information needed to map a cached canonical-frame result back into the
/// query's lab frame (and vice versa).
struct Canonicalization {
  FragmentKey key;
  geom::Vec3 center;            ///< lab-frame center of mass (bohr)
  /// Proper rotation R (row-major, det +1) mapping lab-relative to
  /// canonical coordinates: x'_slot = R * (r_{perm[slot]} - center).
  std::array<double, 9> rot{};
  /// perm[slot] = original atom index occupying canonical slot `slot`.
  std::vector<std::size_t> perm;
};

/// Canonicalize a molecule at quantization `tolerance` (bohr, > 0) under
/// engine namespace `ns`. Deterministic: the same geometry (up to rigid
/// motion + permutation + sub-tolerance noise away from grid-cell
/// boundaries) always yields the same key. Near-degenerate principal
/// moments can make two equivalent geometries land on different frames —
/// that direction is safe (a spurious miss, never a false hit).
Canonicalization canonicalize(const chem::Molecule& mol, double tolerance,
                              std::string_view ns = {});

/// Rotate a lab-frame FragmentResult into the canonical frame of `c`
/// (store side): Hessian blocks, alpha, dalpha and dmu rows transform
/// covariantly, atoms are re-indexed to canonical slots. Energy, flops and
/// phase times are frame-invariant and copied through.
engine::FragmentResult to_canonical_frame(const engine::FragmentResult& lab,
                                          const Canonicalization& c);

/// Inverse of to_canonical_frame using the *query's* canonicalization:
/// maps a cached canonical-frame result into the query's lab frame and
/// atom order (hit side).
engine::FragmentResult to_lab_frame(const engine::FragmentResult& canonical,
                                    const Canonicalization& c);

/// Re-index a result's atoms without rotating components: output atom `o`
/// takes its tensors from input atom `map[o]`. Used by the tiered-reuse
/// near-hit path to align a cached canonical result with the query's slot
/// order before mapping it into the lab frame.
engine::FragmentResult permute_result(const engine::FragmentResult& in,
                                      const std::vector<std::size_t>& map);

/// Persistent-store serialization of a key (framing and CRC are the
/// store's job). read_key returns false on truncation or a size field
/// beyond sanity bounds or the bytes left, without throwing.
void write_key(common::ByteWriter& w, const FragmentKey& k);
bool read_key(common::ByteReader& in, FragmentKey* k);

}  // namespace qfr::cache
