#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "qfr/chem/molecule.hpp"
#include "qfr/geom/vec3.hpp"

namespace qfr::basis {

/// One primitive Gaussian: c * (x-Ax)^i (y-Ay)^j (z-Az)^k exp(-a r^2).
struct Primitive {
  double exponent = 0.0;
  double coefficient = 0.0;  ///< contraction coefficient incl. normalization
};

/// A contracted Cartesian Gaussian shell (all components of one angular
/// momentum sharing exponents).
struct Shell {
  int l = 0;                    ///< angular momentum (0 = s, 1 = p)
  geom::Vec3 center;            ///< bohr
  std::size_t atom = 0;         ///< owning atom index in the molecule
  std::vector<Primitive> prims;
  std::size_t first_bf = 0;     ///< index of the first basis function

  /// Number of Cartesian components: 1 for s, 3 for p, 6 for d, ...
  std::size_t n_functions() const {
    return static_cast<std::size_t>((l + 1) * (l + 2) / 2);
  }
};

/// Cartesian exponent triple (i, j, k) of one basis function.
struct CartPowers {
  int i = 0, j = 0, k = 0;
};

/// Highest angular momentum cartesian_powers() tabulates.
inline constexpr int kMaxCartesianL = 6;

/// Enumerates Cartesian components of angular momentum l in canonical
/// order (x^l first): for p -> x, y, z. The span views a static table, so
/// the call allocates nothing; it is empty for l < 0 and l must not exceed
/// kMaxCartesianL.
std::span<const CartPowers> cartesian_powers(int l);

/// A molecule's basis: the ordered list of shells plus bookkeeping.
///
/// Substitutes for the paper's all-electron numeric atomic orbitals with
/// all-electron contracted Gaussians (STO-3G class): the same matrix
/// structures (overlap, Hamiltonian, density in a localized AO basis) and
/// the same grid-batched evaluation kernels apply.
class BasisSet {
 public:
  /// Build the built-in STO-3G-class minimal basis for the molecule.
  /// Supported elements: H, C, N, O, S.
  static BasisSet sto3g(const chem::Molecule& mol);

  /// Build the built-in 6-31G split-valence basis (H, C, N, O): two
  /// valence shells per angular momentum, for basis-convergence studies.
  static BasisSet b631g(const chem::Molecule& mol);

  std::size_t n_shells() const { return shells_.size(); }
  std::size_t n_functions() const { return nbf_; }
  const Shell& shell(std::size_t s) const { return shells_[s]; }
  const std::vector<Shell>& shells() const { return shells_; }

  /// Atom index owning basis function mu.
  std::size_t function_atom(std::size_t mu) const { return bf_atom_[mu]; }

  /// Raw (un-normalized) shell data used by the built-in basis tables.
  struct RawShell {
    int l = 0;
    std::vector<Primitive> prims;
  };

 private:
  static BasisSet assemble(
      const chem::Molecule& mol,
      const std::function<std::vector<RawShell>(chem::Element)>& shells_of);

  std::vector<Shell> shells_;
  std::vector<std::size_t> bf_atom_;
  std::size_t nbf_ = 0;
};

/// Normalization constant of a primitive Cartesian Gaussian with exponent
/// `alpha` and powers (i, j, k).
double primitive_norm(double alpha, int i, int j, int k);

}  // namespace qfr::basis
