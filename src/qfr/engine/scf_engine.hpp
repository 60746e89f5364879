#pragma once

#include "qfr/engine/fragment_engine.hpp"
#include "qfr/scf/scf.hpp"

namespace qfr::engine {

/// How the nuclear Hessian is obtained.
enum class HessianMode {
  /// Central second differences of the energy: O((3N)^2) SCF solves.
  /// Works for every XC model; the fallback reference.
  kEnergyFd,
  /// Central first differences of the analytic RHF gradient: O(3N)
  /// gradient evaluations — the production path (Hartree-Fock only).
  kGradientFd,
};

/// Options of the ab initio fragment engine.
struct ScfEngineOptions {
  scf::XcModel xc = scf::XcModel::kHartreeFock;
  HessianMode hessian_mode = HessianMode::kGradientFd;
  /// Finite-difference step for atomic displacements (bohr).
  double displacement = 5e-3;
  /// Skip the polarizability-derivative pass (Hessian only).
  bool compute_dalpha = true;
  /// Route each displacement job's SCF + DFPT GEMM work through one shared
  /// BatchedExecutor (same-shape grouping at phase barriers, SIMD
  /// kernels). false falls back to eager per-product execution — kept for
  /// parity tests and the fig09 real-vs-modeled bench baseline.
  bool batched_gemm = true;
};

/// Real quantum-mechanical fragment engine: SCF (HF or LDA) energies plus
/// DFPT polarizabilities, differentiated by atomic displacements.
///
/// This mirrors the paper's worker loop: the leader generates a set of
/// atomic displacements for a fragment, each displaced geometry gets a
/// full SCF + DFPT treatment, and finite differences assemble
///   - the Hessian from displaced energies (central second differences),
///   - d alpha / d r from displaced DFPT polarizabilities.
/// SCF at each displaced geometry warm-starts from the equilibrium density.
/// The displaced-geometry jobs run on ThreadPool::current() — the pool of
/// the leader computing the fragment, the third tier of the paper's
/// hierarchy — or serially when compute() is called outside any pool.
class ScfEngine : public FragmentEngine {
 public:
  explicit ScfEngine(ScfEngineOptions options = {}) : options_(options) {}

  FragmentResult compute(const chem::Molecule& fragment) const override;
  std::string name() const override { return "scf"; }

  const ScfEngineOptions& options() const { return options_; }

 private:
  ScfEngineOptions options_;
};

}  // namespace qfr::engine
