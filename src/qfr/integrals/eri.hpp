#pragma once

#include <cstddef>
#include <vector>

#include "qfr/basis/basis.hpp"
#include "qfr/la/matrix.hpp"

namespace qfr::ints {

/// Compute the block of integrals (ab|cd) for one shell quartet into
/// `out`, flattened as [fa][fb][fc][fd] (McMurchie-Davidson; arbitrary
/// angular momenta within the Hermite table limits). Builds the two
/// shell-pair term lists and contracts them; EriTensor and rhf_gradient
/// call the same kernel with lists cached per shell pair, so every value
/// here is bitwise equal to theirs.
void eri_shell_quartet(const basis::Shell& a, const basis::Shell& b,
                       const basis::Shell& c, const basis::Shell& d,
                       std::vector<double>& out);

/// Two-electron repulsion integrals (mu nu | lambda sigma) in chemists'
/// notation, stored with full 8-fold permutational symmetry.
///
/// Shell quartets below the Schwarz screening threshold are skipped (their
/// storage stays zero), which is what keeps fragment-sized molecules cheap.
/// This exact-Hartree path is also the DFPT response Hartree potential
/// J(P1), in place of the paper's grid Poisson solve.
class EriTensor {
 public:
  explicit EriTensor(const basis::BasisSet& bs,
                     double screen_threshold = 1e-12);

  std::size_t n_functions() const { return nbf_; }

  /// (ij|kl) with arbitrary index order.
  double operator()(std::size_t i, std::size_t j, std::size_t k,
                    std::size_t l) const {
    return values_[composite(i, j, k, l)];
  }

  /// Coulomb matrix J_ij = sum_kl P_kl (ij|kl).
  la::Matrix coulomb(const la::Matrix& density) const;

  /// Exchange matrix K_ij = sum_kl P_kl (ik|jl).
  la::Matrix exchange(const la::Matrix& density) const;

  /// Number of stored unique values (diagnostics).
  std::size_t storage_size() const { return values_.size(); }

 private:
  static std::size_t pair_index(std::size_t i, std::size_t j) {
    return (i >= j) ? i * (i + 1) / 2 + j : j * (j + 1) / 2 + i;
  }
  static std::size_t composite(std::size_t i, std::size_t j, std::size_t k,
                               std::size_t l) {
    const std::size_t ij = pair_index(i, j);
    const std::size_t kl = pair_index(k, l);
    return (ij >= kl) ? ij * (ij + 1) / 2 + kl : kl * (kl + 1) / 2 + ij;
  }

  std::size_t nbf_ = 0;
  std::vector<double> values_;
};

}  // namespace qfr::ints
