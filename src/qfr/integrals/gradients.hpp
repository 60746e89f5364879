#pragma once

#include "qfr/la/matrix.hpp"
#include "qfr/scf/scf.hpp"

namespace qfr::ints {

/// Analytic nuclear gradient of the restricted Hartree-Fock energy
/// (3N vector, hartree/bohr), via McMurchie-Davidson derivative integrals:
///
///   dE/dX = P . (dT + dV) - W . dS + Gamma . d(ERI) + dV_nn
///
/// where W is the energy-weighted density and Gamma the two-particle
/// density of the closed-shell determinant. Basis-function derivatives use
/// the exact raise/lower identity
///   d/dA_x [x_A^i e^{-a r^2}] = 2a |i+1> - i |i-1>
/// (per primitive, so no renormalization is involved), and the
/// nuclear-attraction operator's own center dependence enters through the
/// Hellmann-Feynman term dR_tuv/dC_x = -R_{t+1,u,v}.
///
/// This is what upgrades the fragment worker from O((3N)^2) SCF solves
/// (energy-only finite differences) to O(3N) gradient evaluations for the
/// Hessian. Validated against central finite differences of the energy in
/// tests/test_gradients.cpp.
la::Vector rhf_gradient(const scf::ScfContext& ctx,
                        const scf::ScfResult& scf_state);

/// Analytic nuclear gradient of the LDA (exchange-only) energy that
/// scf::ScfSolver minimises with XcModel::kLda. The terms shared with
/// rhf_gradient are the same code; Gamma keeps only the Coulomb part
/// (2 P_mn P_ls). The XC energy sum_p w_p e_xc(rho_p) is differentiated on
/// the solver's own grid, MolGrid(ctx.mol, grid_radial_points) with the
/// 26-point rule, in three pieces:
///   - basis functions moving with their atom:
///       -2 sum_p w_p v_xc(rho_p) sum_{mu on A, nu} P_mn grad chi_mu chi_nu
///   - grid points moving with their owning atom: sum_{p on A} w_p v_xc
///     grad rho_p
///   - the Becke partition weights: sum_p dw_p/dR_A e_xc(rho_p)
/// so the result is the exact derivative of the grid energy, not of its
/// basis-set limit. `grid_radial_points` must be the solve's
/// ScfOptions::grid_radial_points.
la::Vector lda_gradient(const scf::ScfContext& ctx,
                        const scf::ScfResult& scf_state,
                        int grid_radial_points);

}  // namespace qfr::ints
