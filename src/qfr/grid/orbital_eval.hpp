#pragma once

#include <array>
#include <span>

#include "qfr/basis/basis.hpp"
#include "qfr/grid/molgrid.hpp"
#include "qfr/la/matrix.hpp"

namespace qfr::grid {

/// Values (and optionally Cartesian gradients) of every basis function on a
/// batch of grid points: chi(p, mu) = chi_mu(r_p).
///
/// These dense (points x nbf) matrices are the operands of the paper's hot
/// kernels: the response density n1(r) = sum_munu P1_munu chi_mu chi_nu and
/// the response Hamiltonian H1_munu = sum_p w_p v1(r_p) chi_mu chi_nu are
/// both batched GEMMs over exactly these arrays (Fig. 6 of the paper).
struct BasisBatch {
  la::Matrix chi;                 ///< (n_points, nbf)
  std::array<la::Matrix, 3> grad; ///< d chi / d{x,y,z}, same shape
  bool has_gradient = false;
};

/// Evaluate all basis functions on the given points.
BasisBatch evaluate_basis(const basis::BasisSet& bs,
                          std::span<const GridPoint> points,
                          bool with_gradient);

/// Density on the batch: rho_p = sum_munu P_munu chi_mu(r_p) chi_nu(r_p),
/// computed as the row-wise contraction of (chi P) with chi — one GEMM plus
/// a Hadamard reduction. `density` is the total AO density matrix.
la::Vector density_on_batch(const BasisBatch& batch,
                            const la::Matrix& density);

/// Potential-matrix accumulation: V_munu += sum_p chi_mu(r_p) *
/// [w_p v(r_p)] * chi_nu(r_p), via the symmetric GEMM chi^T diag(wv) chi.
/// The contribution is symmetric, so the kernels compute only the
/// on/above-diagonal blocks and mirror (Fig. 6 strength reduction);
/// `v_matrix` must enter symmetric for the mirrored result to be exact.
void accumulate_potential_matrix(const BasisBatch& batch,
                                 std::span<const GridPoint> points,
                                 std::span<const double> v_values,
                                 la::Matrix& v_matrix);

}  // namespace qfr::grid
