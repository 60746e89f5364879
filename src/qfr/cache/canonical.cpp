#include "qfr/cache/canonical.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <numeric>
#include <ostream>

#include "qfr/common/error.hpp"
#include "qfr/common/record_log.hpp"
#include "qfr/la/eig.hpp"
#include "qfr/la/matrix.hpp"

namespace qfr::cache {

namespace {

// ---------------------------------------------------------------------------
// Hashing: FNV-1a 64 over the serialized payload with two offset bases,
// finalized through splitmix64 so the two words decorrelate. Collisions are
// harmless (full-key equality decides), they just cost a compare.

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Fnv2 {
  std::uint64_t a = 0xcbf29ce484222325ull;
  std::uint64_t b = 0x84222325cbf29ce4ull;

  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      a = (a ^ c[i]) * kFnvPrime;
      b = (b ^ c[i]) * kFnvPrime;
      b = (b ^ (b >> 29)) + 0x165667b19e3779f9ull;
    }
  }
  template <class T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
};

// ---------------------------------------------------------------------------
// Frame construction.

/// Mass-weighted inertia tensor about the center of mass.
la::Matrix inertia_tensor(const chem::Molecule& mol, const geom::Vec3& com) {
  la::Matrix i3(3, 3);
  for (const chem::Atom& a : mol.atoms()) {
    const double m = chem::atomic_mass(a.element);
    const geom::Vec3 d = a.position - com;
    const double d2 = d.norm2();
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c)
        i3(r, c) += m * ((r == c ? d2 : 0.0) - d[r] * d[c]);
  }
  return i3;
}

/// One atom's sortable image in a candidate frame.
struct QuantAtom {
  std::int32_t z = 0;
  std::array<std::int64_t, 3> q{};
  std::size_t index = 0;  ///< original atom index (deterministic tie-break)

  bool operator<(const QuantAtom& o) const {
    if (z != o.z) return z < o.z;
    if (q != o.q) return q < o.q;
    return index < o.index;
  }
};

struct Candidate {
  std::array<double, 9> rot{};
  std::vector<QuantAtom> atoms;  ///< sorted

  /// Lexicographic order on the quantized image: elements first, then
  /// coordinates. This is what picks the canonical frame among the four
  /// proper sign assignments.
  bool image_less(const Candidate& o) const {
    const std::size_t n = atoms.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (atoms[i].z != o.atoms[i].z) return atoms[i].z < o.atoms[i].z;
      if (atoms[i].q != o.atoms[i].q) return atoms[i].q < o.atoms[i].q;
    }
    return false;
  }
};

}  // namespace

Canonicalization canonicalize(const chem::Molecule& mol, double tolerance,
                              std::string_view ns) {
  QFR_REQUIRE(!mol.empty(), "cannot canonicalize an empty molecule");
  QFR_REQUIRE(tolerance > 0.0, "canonicalization tolerance must be > 0");

  Canonicalization out;
  out.center = mol.center_of_mass();

  // Principal axes, eigenvalues ascending. Sign conventions of the solver
  // do not matter: all four proper sign assignments are tried below.
  const la::EigResult eig = la::eigh(inertia_tensor(mol, out.center));
  const auto axis = [&](int j) {
    return geom::Vec3{eig.vectors(0, j), eig.vectors(1, j),
                      eig.vectors(2, j)};
  };
  const geom::Vec3 e0 = axis(0), e1 = axis(1);

  const std::size_t n = mol.size();
  Candidate best;
  bool have_best = false;
  for (const double s0 : {1.0, -1.0}) {
    for (const double s1 : {1.0, -1.0}) {
      const geom::Vec3 a0 = e0 * s0;
      const geom::Vec3 a1 = e1 * s1;
      const geom::Vec3 a2 = a0.cross(a1);  // det(R) = +1: never a mirror
      Candidate cand;
      cand.rot = {a0.x, a0.y, a0.z, a1.x, a1.y, a1.z, a2.x, a2.y, a2.z};
      cand.atoms.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const chem::Atom& a = mol.atom(i);
        const geom::Vec3 d = a.position - out.center;
        QuantAtom& qa = cand.atoms[i];
        qa.z = chem::atomic_number(a.element);
        qa.q = {std::llround(a0.dot(d) / tolerance),
                std::llround(a1.dot(d) / tolerance),
                std::llround(a2.dot(d) / tolerance)};
        qa.index = i;
      }
      std::sort(cand.atoms.begin(), cand.atoms.end());
      if (!have_best || cand.image_less(best)) {
        best = std::move(cand);
        have_best = true;
      }
    }
  }

  out.rot = best.rot;
  out.perm.resize(n);
  FragmentKey& key = out.key;
  key.ns.assign(ns);
  key.tolerance = tolerance;
  key.z.resize(n);
  key.q.resize(3 * n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const QuantAtom& qa = best.atoms[slot];
    out.perm[slot] = qa.index;
    key.z[slot] = qa.z;
    key.q[3 * slot + 0] = qa.q[0];
    key.q[3 * slot + 1] = qa.q[1];
    key.q[3 * slot + 2] = qa.q[2];
  }

  Fnv2 h;
  h.value(key.tolerance);
  h.value(static_cast<std::uint64_t>(n));
  h.bytes(key.z.data(), key.z.size() * sizeof(std::int32_t));
  h.bytes(key.q.data(), key.q.size() * sizeof(std::int64_t));
  h.bytes(key.ns.data(), key.ns.size());
  key.h0 = splitmix64(h.a);
  key.h1 = splitmix64(h.b ^ h.a);
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Tensor transport between frames. `Q` (row-major 3x3) rotates components
// (out = Q * in) and `map[o]` names the input atom index feeding output
// atom index `o`; both directions of the canonical mapping are this one
// function with (R, perm) or (R^T, perm^-1).

using Mat9 = std::array<double, 9>;

Mat9 transposed(const Mat9& m) {
  return {m[0], m[3], m[6], m[1], m[4], m[7], m[2], m[5], m[8]};
}

/// B_out = Q * B_in * Q^T for a 3x3 block stored in plain arrays.
void rotate_block(const Mat9& qm, const double in[3][3], double out[3][3]) {
  double tmp[3][3];
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c)
      tmp[r][c] = qm[3 * r + 0] * in[0][c] + qm[3 * r + 1] * in[1][c] +
                  qm[3 * r + 2] * in[2][c];
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c)
      out[r][c] = tmp[r][0] * qm[3 * c + 0] + tmp[r][1] * qm[3 * c + 1] +
                  tmp[r][2] * qm[3 * c + 2];
}

/// Row order of the dalpha component axis: (xx, yy, zz, xy, xz, yz).
void sym6_to_mat(const la::Matrix& d, std::size_t col, double a[3][3]) {
  a[0][0] = d(0, col);
  a[1][1] = d(1, col);
  a[2][2] = d(2, col);
  a[0][1] = a[1][0] = d(3, col);
  a[0][2] = a[2][0] = d(4, col);
  a[1][2] = a[2][1] = d(5, col);
}

void mat_to_sym6(const double a[3][3], la::Matrix* d, std::size_t col) {
  (*d)(0, col) = a[0][0];
  (*d)(1, col) = a[1][1];
  (*d)(2, col) = a[2][2];
  (*d)(3, col) = 0.5 * (a[0][1] + a[1][0]);
  (*d)(4, col) = 0.5 * (a[0][2] + a[2][0]);
  (*d)(5, col) = 0.5 * (a[1][2] + a[2][1]);
}

engine::FragmentResult rotate_result(const engine::FragmentResult& in,
                                     const Mat9& qm,
                                     const std::vector<std::size_t>& map) {
  const std::size_t n = map.size();
  engine::FragmentResult out;
  out.energy = in.energy;
  out.phase_times = in.phase_times;
  out.flops = in.flops;
  out.displacement_tasks = in.displacement_tasks;
  out.cache_hit = in.cache_hit;
  out.reuse_tier = in.reuse_tier;

  // Hessian: per (atom, atom) 3x3 block, B' = Q B Q^T with re-indexing.
  if (in.hessian.rows() == 3 * n && in.hessian.cols() == 3 * n) {
    out.hessian.resize_zero(3 * n, 3 * n);
    for (std::size_t o1 = 0; o1 < n; ++o1) {
      for (std::size_t o2 = 0; o2 < n; ++o2) {
        const std::size_t i1 = map[o1], i2 = map[o2];
        double b[3][3], br[3][3];
        for (int r = 0; r < 3; ++r)
          for (int c = 0; c < 3; ++c)
            b[r][c] = in.hessian(3 * i1 + r, 3 * i2 + c);
        rotate_block(qm, b, br);
        for (int r = 0; r < 3; ++r)
          for (int c = 0; c < 3; ++c)
            out.hessian(3 * o1 + r, 3 * o2 + c) = br[r][c];
      }
    }
  } else {
    out.hessian = in.hessian;
  }

  // Equilibrium polarizability: a plain rank-2 tensor.
  if (in.alpha.rows() == 3 && in.alpha.cols() == 3) {
    double a[3][3], ar[3][3];
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c) a[r][c] = in.alpha(r, c);
    rotate_block(qm, a, ar);
    out.alpha.resize_zero(3, 3);
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c) out.alpha(r, c) = ar[r][c];
  } else {
    out.alpha = in.alpha;
  }

  // dmu: rows are dipole components, columns displacement components —
  // per atom a 3x3 matrix transforming exactly like a Hessian block.
  if (in.dmu.rows() == 3 && in.dmu.cols() == 3 * n) {
    out.dmu.resize_zero(3, 3 * n);
    for (std::size_t o = 0; o < n; ++o) {
      const std::size_t i = map[o];
      double b[3][3], br[3][3];
      for (int r = 0; r < 3; ++r)
        for (int g = 0; g < 3; ++g) b[r][g] = in.dmu(r, 3 * i + g);
      rotate_block(qm, b, br);
      for (int r = 0; r < 3; ++r)
        for (int g = 0; g < 3; ++g) out.dmu(r, 3 * o + g) = br[r][g];
    }
  } else {
    out.dmu = in.dmu;
  }

  // dalpha: each column is a symmetric rank-2 tensor (6 packed rows) that
  // rotates as Q A Q^T, and the displacement axis of the columns rotates
  // with Q as well.
  if (in.dalpha.rows() == 6 && in.dalpha.cols() == 3 * n) {
    out.dalpha.resize_zero(6, 3 * n);
    for (std::size_t o = 0; o < n; ++o) {
      const std::size_t i = map[o];
      double rot_a[3][3][3];  // rot_a[g] = Q * A_{i,g} * Q^T
      for (int g = 0; g < 3; ++g) {
        double a[3][3];
        sym6_to_mat(in.dalpha, 3 * i + g, a);
        rotate_block(qm, a, rot_a[g]);
      }
      for (int go = 0; go < 3; ++go) {
        double acc[3][3] = {};
        for (int g = 0; g < 3; ++g) {
          const double w = qm[3 * go + g];
          for (int r = 0; r < 3; ++r)
            for (int c = 0; c < 3; ++c) acc[r][c] += w * rot_a[g][r][c];
        }
        mat_to_sym6(acc, &out.dalpha, 3 * o + go);
      }
    }
  } else {
    out.dalpha = in.dalpha;
  }
  return out;
}

}  // namespace

engine::FragmentResult to_canonical_frame(const engine::FragmentResult& lab,
                                          const Canonicalization& c) {
  return rotate_result(lab, c.rot, c.perm);
}

engine::FragmentResult to_lab_frame(const engine::FragmentResult& canonical,
                                    const Canonicalization& c) {
  std::vector<std::size_t> inv(c.perm.size());
  for (std::size_t slot = 0; slot < c.perm.size(); ++slot)
    inv[c.perm[slot]] = slot;
  return rotate_result(canonical, transposed(c.rot), inv);
}

engine::FragmentResult permute_result(const engine::FragmentResult& in,
                                      const std::vector<std::size_t>& map) {
  static constexpr Mat9 kIdentity = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  return rotate_result(in, kIdentity, map);
}

// ---------------------------------------------------------------------------
// Persistent-store key serialization.

namespace {

constexpr std::uint64_t kMaxNsBytes = 1u << 12;
constexpr std::uint64_t kMaxKeyAtoms = 1u << 20;

using common::get_u64;
using common::put_u64;

}  // namespace

void write_key(std::ostream& os, const FragmentKey& k) {
  put_u64(os, static_cast<std::uint64_t>(k.ns.size()));
  os.write(k.ns.data(), static_cast<std::streamsize>(k.ns.size()));
  os.write(reinterpret_cast<const char*>(&k.tolerance), sizeof(double));
  put_u64(os, static_cast<std::uint64_t>(k.z.size()));
  os.write(reinterpret_cast<const char*>(k.z.data()),
           static_cast<std::streamsize>(k.z.size() * sizeof(std::int32_t)));
  os.write(reinterpret_cast<const char*>(k.q.data()),
           static_cast<std::streamsize>(k.q.size() * sizeof(std::int64_t)));
  put_u64(os, k.h0);
  put_u64(os, k.h1);
}

bool read_key(std::istream& is, FragmentKey* k) {
  std::uint64_t ns_len = 0;
  if (!get_u64(is, &ns_len) || ns_len > kMaxNsBytes) return false;
  k->ns.resize(static_cast<std::size_t>(ns_len));
  is.read(k->ns.data(), static_cast<std::streamsize>(ns_len));
  is.read(reinterpret_cast<char*>(&k->tolerance), sizeof(double));
  std::uint64_t n = 0;
  if (!is.good() || !get_u64(is, &n) || n > kMaxKeyAtoms) return false;
  k->z.resize(static_cast<std::size_t>(n));
  k->q.resize(static_cast<std::size_t>(3 * n));
  is.read(reinterpret_cast<char*>(k->z.data()),
          static_cast<std::streamsize>(k->z.size() * sizeof(std::int32_t)));
  is.read(reinterpret_cast<char*>(k->q.data()),
          static_cast<std::streamsize>(k->q.size() * sizeof(std::int64_t)));
  return is.good() && get_u64(is, &k->h0) && get_u64(is, &k->h1);
}

}  // namespace qfr::cache
