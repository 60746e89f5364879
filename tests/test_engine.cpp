#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "qfr/chem/molecule.hpp"
#include "qfr/chem/protein.hpp"
#include "qfr/chem/topology.hpp"
#include "qfr/common/thread_pool.hpp"
#include "qfr/common/units.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/engine/scf_engine.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/la/eig.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/obs/trace.hpp"
#include "qfr/spectra/raman.hpp"

namespace qfr::engine {
namespace {

using chem::Element;
using chem::Molecule;

// Mass-weight a Cartesian Hessian (amu masses converted to m_e).
la::Matrix mass_weight(const la::Matrix& h, const Molecule& mol) {
  const auto masses = mol.mass_vector_amu();
  la::Matrix mw = h;
  for (std::size_t i = 0; i < mw.rows(); ++i)
    for (std::size_t j = 0; j < mw.cols(); ++j)
      mw(i, j) /= std::sqrt(masses[i] * units::kAmuToMe * masses[j] *
                            units::kAmuToMe);
  return mw;
}

int count_above(const la::Vector& freqs, double threshold_cm) {
  return static_cast<int>(
      std::count_if(freqs.begin(), freqs.end(),
                    [&](double f) { return f > threshold_cm; }));
}

TEST(Topology, WaterBondsAndAngle) {
  const Molecule w = chem::make_water({0, 0, 0});
  const auto bonds = chem::perceive_bonds(w);
  ASSERT_EQ(bonds.size(), 2u);
  const auto angles = chem::enumerate_angles(w.size(), bonds);
  ASSERT_EQ(angles.size(), 1u);
  EXPECT_EQ(angles[0].j, 0u);  // oxygen apex
}

TEST(Topology, NoSpuriousBondsAcrossWaters) {
  const Molecule a = chem::make_water({0, 0, 0});
  Molecule both = a;
  both.append(chem::make_water({6.0, 0, 0}));  // 6 bohr apart
  const auto bonds = chem::perceive_bonds(both);
  EXPECT_EQ(bonds.size(), 4u);  // 2 per water, none between
}

TEST(Topology, ProteinPerceptionMatchesBuilderTopology) {
  chem::ProteinBuildOptions opts;
  opts.n_residues = 10;
  opts.seed = 3;
  const chem::Protein p = chem::build_synthetic_protein(opts);
  const auto perceived = chem::perceive_bonds(p.mol);
  // Perception should recover at least the built covalent bonds (it may
  // add a few extra close contacts).
  EXPECT_GE(perceived.size(), p.bonds.size());
  EXPECT_LE(perceived.size(), p.bonds.size() + p.bonds.size() / 5);
}

TEST(ModelEngine, WaterFrequenciesInPhysicalBands) {
  const Molecule w = chem::make_water({0, 0, 0});
  ModelEngine eng;
  const FragmentResult res = eng.compute(w);
  const la::Vector freqs =
      spectra::vibrational_frequencies_cm(mass_weight(res.hessian, w));
  ASSERT_EQ(freqs.size(), 9u);
  // Three vibrations: one bend (1200-2000) and two O-H stretches
  // (3200-3900); six exact zero modes (translations + rotations are null
  // directions of the Gauss-Newton Hessian for a 2-bond+1-angle system).
  EXPECT_EQ(count_above(freqs, 1000.0), 3);
  EXPECT_EQ(count_above(freqs, 3000.0), 2);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(freqs[i], 0.0, 50.0);
  EXPECT_GT(freqs[6], 1200.0);
  EXPECT_LT(freqs[6], 2100.0);
  EXPECT_GT(freqs[7], 3200.0);
  EXPECT_LT(freqs[8], 3900.0);
}

TEST(ModelEngine, HessianSymmetricPsdWithAsr) {
  const Molecule w = chem::make_water({0, 0, 0});
  ModelEngine eng;
  const FragmentResult res = eng.compute(w);
  EXPECT_LT(la::max_abs_diff(res.hessian, res.hessian.transposed()), 1e-12);
  // Acoustic sum rule: rigid translations cost nothing.
  for (std::size_t i = 0; i < res.hessian.rows(); ++i) {
    for (int c = 0; c < 3; ++c) {
      double row_sum = 0.0;
      for (std::size_t a = 0; a < w.size(); ++a)
        row_sum += res.hessian(i, 3 * a + c);
      EXPECT_NEAR(row_sum, 0.0, 1e-10);
    }
  }
  const la::Vector evals = la::eigvalsh(res.hessian);
  for (double v : evals) EXPECT_GT(v, -1e-10);
}

TEST(ModelEngine, MethaneChStretchBand) {
  // Tetrahedral CH4 with r(CH) = 1.09 A.
  Molecule m;
  const double r = 1.09 * units::kAngstromToBohr;
  m.add(Element::C, {0, 0, 0});
  const double s = r / std::sqrt(3.0);
  m.add(Element::H, {s, s, s});
  m.add(Element::H, {s, -s, -s});
  m.add(Element::H, {-s, s, -s});
  m.add(Element::H, {-s, -s, s});
  ModelEngine eng;
  const FragmentResult res = eng.compute(m);
  const la::Vector freqs =
      spectra::vibrational_frequencies_cm(mass_weight(res.hessian, m));
  // Four C-H stretch modes in the 2800-3200 band.
  EXPECT_EQ(count_above(freqs, 2700.0), 4);
  for (double f : freqs) EXPECT_LT(f, 3300.0);
}

TEST(ModelEngine, DalphaNonZeroForStretches) {
  const Molecule w = chem::make_water({0, 0, 0});
  ModelEngine eng;
  const FragmentResult res = eng.compute(w);
  double norm = 0.0;
  for (std::size_t c = 0; c < res.dalpha.cols(); ++c)
    for (std::size_t k = 0; k < 6; ++k)
      norm += res.dalpha(k, c) * res.dalpha(k, c);
  EXPECT_GT(norm, 1e-4);
}

TEST(ModelEngine, DalphaTranslationInvariant) {
  // Rigid translation does not change alpha: rows of dalpha sum to zero
  // over atoms per Cartesian component.
  const Molecule w = chem::make_water({0, 0, 0});
  ModelEngine eng;
  const FragmentResult res = eng.compute(w);
  for (int k = 0; k < 6; ++k)
    for (int c = 0; c < 3; ++c) {
      double sum = 0.0;
      for (std::size_t a = 0; a < w.size(); ++a)
        sum += res.dalpha(k, 3 * a + c);
      EXPECT_NEAR(sum, 0.0, 1e-8) << "component " << k << " dir " << c;
    }
}

TEST(ModelEngine, PolarizabilityIsotropicForSymmetricMolecule) {
  // CH4: alpha must be (nearly) isotropic by symmetry.
  Molecule m;
  const double r = 1.09 * units::kAngstromToBohr;
  m.add(Element::C, {0, 0, 0});
  const double s = r / std::sqrt(3.0);
  m.add(Element::H, {s, s, s});
  m.add(Element::H, {s, -s, -s});
  m.add(Element::H, {-s, s, -s});
  m.add(Element::H, {-s, -s, s});
  ModelEngine eng;
  const FragmentResult res = eng.compute(m);
  EXPECT_NEAR(res.alpha(0, 0), res.alpha(1, 1), 1e-9);
  EXPECT_NEAR(res.alpha(1, 1), res.alpha(2, 2), 1e-9);
  EXPECT_NEAR(res.alpha(0, 1), 0.0, 1e-9);
}

TEST(ModelEngine, ScalesToResidueFragments) {
  chem::ProteinBuildOptions opts;
  opts.n_residues = 5;
  opts.seed = 5;
  const chem::Protein p = chem::build_synthetic_protein(opts);
  ModelEngine eng;
  const FragmentResult res = eng.compute_with_topology(p.mol, p.bonds);
  EXPECT_EQ(res.hessian.rows(), 3 * p.n_atoms());
  const la::Vector freqs =
      spectra::vibrational_frequencies_cm(mass_weight(res.hessian, p.mol));
  // C-H/N-H stretches present.
  EXPECT_GT(count_above(freqs, 2500.0), 0);
  // Nothing unphysically high.
  for (double f : freqs) EXPECT_LT(f, 4200.0);
}

TEST(ScfEngine, H2HessianAndStretchFrequency) {
  Molecule h2;
  h2.add(Element::H, {0, 0, 0});
  h2.add(Element::H, {0, 0, 1.35});  // near the STO-3G equilibrium
  ScfEngine eng;
  const FragmentResult res = eng.compute(h2);
  EXPECT_LT(la::max_abs_diff(res.hessian, res.hessian.transposed()), 1e-8);
  const la::Vector freqs =
      spectra::vibrational_frequencies_cm(mass_weight(res.hessian, h2));
  // One genuine stretch; RHF/STO-3G overestimates H2 at ~5000+ cm^-1.
  EXPECT_GT(freqs.back(), 4200.0);
  EXPECT_LT(freqs.back(), 6500.0);
  // The other five modes are small (geometry is near-stationary).
  for (std::size_t i = 0; i + 1 < freqs.size(); ++i)
    EXPECT_LT(std::fabs(freqs[i]), 800.0);
  // Gradient mode (the default): one +/- displacement pair per coordinate.
  EXPECT_EQ(res.displacement_tasks, 2 * 6);
  EXPECT_GT(res.flops, 0);
}

TEST(ScfEngine, H2DalphaParallelDominates) {
  Molecule h2;
  h2.add(Element::H, {0, 0, 0});
  h2.add(Element::H, {0, 0, 1.35});
  ScfEngine eng;
  const FragmentResult res = eng.compute(h2);
  // d alpha_zz / d z of atom 1 is the dominant derivative for a z-aligned
  // H2, and it is antisymmetric between the two atoms.
  const double dzz_atom0 = res.dalpha(2, 2);
  const double dzz_atom1 = res.dalpha(2, 5);
  EXPECT_GT(std::fabs(dzz_atom1), 1e-3);
  EXPECT_NEAR(dzz_atom0, -dzz_atom1, 1e-3);
  // xy derivative of a z-aligned diatomic vanishes by symmetry.
  EXPECT_NEAR(res.dalpha(3, 2), 0.0, 1e-6);
}

// Property sweep: every amino-acid residue type builds, perceives a sane
// topology, and yields a physical vibrational spectrum from the model
// engine (PSD Hessian, stretches below 4,200 cm^-1, C-H band present).
class ResidueTypeSweep : public ::testing::TestWithParam<int> {};

TEST_P(ResidueTypeSweep, SingleResidueFragmentIsPhysical) {
  const auto type = static_cast<chem::ResidueType>(GetParam());
  chem::ProteinBuildOptions opts;
  opts.n_residues = 1;
  opts.seed = 1000 + static_cast<std::uint64_t>(type);
  const chem::Protein p = chem::build_protein_from_sequence({type}, opts);
  ASSERT_EQ(p.residues[0].n_atoms,
            static_cast<std::size_t>(
                chem::residue_composition(type).total_atoms()));

  ModelEngine eng;
  const FragmentResult res = eng.compute_with_topology(p.mol, p.bonds);
  const la::Vector evals = la::eigvalsh(res.hessian);
  for (double v : evals) EXPECT_GT(v, -1e-9) << chem::residue_code(type);
  const la::Vector freqs =
      spectra::vibrational_frequencies_cm(mass_weight(res.hessian, p.mol));
  for (double f : freqs) EXPECT_LT(f, 4200.0) << chem::residue_code(type);
  // Every residue has C-H bonds: a band above 2500 must exist.
  EXPECT_GT(count_above(freqs, 2500.0), 0) << chem::residue_code(type);
  // Polarizability positive definite-ish on the diagonal.
  for (int c = 0; c < 3; ++c)
    EXPECT_GT(res.alpha(c, c), 0.0) << chem::residue_code(type);
}

INSTANTIATE_TEST_SUITE_P(AllTwenty, ResidueTypeSweep,
                         ::testing::Range(0, chem::kNumResidueTypes));

TEST(ScfEngine, GradientModeMatchesEnergyFdHessian) {
  // The production FD-of-analytic-gradient Hessian must agree with the
  // O((3N)^2) energy-difference reference to FD accuracy.
  const Molecule w = chem::make_water({0, 0, 0});
  ScfEngineOptions grad_opts;
  grad_opts.hessian_mode = HessianMode::kGradientFd;
  grad_opts.compute_dalpha = false;
  ScfEngineOptions efd_opts;
  efd_opts.hessian_mode = HessianMode::kEnergyFd;
  efd_opts.compute_dalpha = false;
  const FragmentResult hg = ScfEngine(grad_opts).compute(w);
  const FragmentResult he = ScfEngine(efd_opts).compute(w);
  EXPECT_LT(la::max_abs_diff(hg.hessian, he.hessian), 5e-5);
  // Frequencies agree to a fraction of a wavenumber in the stretch region.
  const la::Vector fg =
      spectra::vibrational_frequencies_cm(mass_weight(hg.hessian, w));
  const la::Vector fe =
      spectra::vibrational_frequencies_cm(mass_weight(he.hessian, w));
  for (std::size_t i = 6; i < 9; ++i)
    EXPECT_NEAR(fg[i], fe[i], 2.0) << "mode " << i;
  // And it is far cheaper: 2*(3N) jobs instead of 2*(3N) + 4*C(3N,2).
  EXPECT_LT(hg.displacement_tasks, he.displacement_tasks / 5);
}

TEST(ScfEngine, DisplacementWorkersMatchSerial) {
  // Computed inside a pool's loop, the displacement jobs (singles with
  // DFPT, then the energy-FD cross pairs) spread over the caller and two
  // helpers. Each job writes only its own slots, so every derivative is
  // bitwise equal to the serial engine's.
  const Molecule w = chem::make_water({0, 0, 0});
  ScfEngineOptions opts;
  opts.xc = scf::XcModel::kLda;
  opts.hessian_mode = HessianMode::kEnergyFd;
  const ScfEngine eng(opts);
  ASSERT_EQ(ThreadPool::current(), nullptr);
  const FragmentResult serial = eng.compute(w);
  FragmentResult par;
  ThreadPool pool(2);
  pool.parallel_for(1, [&](std::size_t) { par = eng.compute(w); });
  EXPECT_EQ(la::max_abs_diff(serial.hessian, par.hessian), 0.0);
  EXPECT_EQ(la::max_abs_diff(serial.dalpha, par.dalpha), 0.0);
  EXPECT_EQ(la::max_abs_diff(serial.dmu, par.dmu), 0.0);
  EXPECT_EQ(serial.energy, par.energy);
  EXPECT_EQ(serial.displacement_tasks, par.displacement_tasks);
  EXPECT_EQ(serial.flops, par.flops);
}

TEST(ScfEngine, DisplacementSpansCoverSinglesAndCrossPairs) {
  // One span per displacement job: a displacement.pair per coordinate and
  // a displacement.cross per energy-FD cross pair.
  Molecule h2;
  h2.add(Element::H, {0, 0, 0});
  h2.add(Element::H, {0, 0, 1.35});
  ScfEngineOptions opts;
  opts.xc = scf::XcModel::kLda;
  opts.hessian_mode = HessianMode::kEnergyFd;
  opts.compute_dalpha = false;
  obs::Session session;
  {
    obs::ScopedSession scope(&session);
    ScfEngine(opts).compute(h2);
  }
  std::size_t pairs = 0, crosses = 0;
  for (const obs::TraceEvent& ev : session.tracer().events()) {
    const std::string name = ev.name;
    pairs += name == "displacement.pair";
    crosses += name == "displacement.cross";
  }
  EXPECT_EQ(pairs, 6u);
  EXPECT_EQ(crosses, 15u);
}

TEST(ScfEngine, WaterThreeVibrations) {
  const Molecule w = chem::make_water({0, 0, 0});
  ScfEngineOptions opts;
  opts.compute_dalpha = false;  // Hessian-only keeps this test fast
  ScfEngine eng(opts);
  const FragmentResult res = eng.compute(w);
  const la::Vector freqs =
      spectra::vibrational_frequencies_cm(mass_weight(res.hessian, w));
  // Three vibrational modes well above the noisy rigid-body ones. The
  // experimental geometry is not the STO-3G minimum, so "zero" modes can
  // reach a few hundred cm^-1.
  EXPECT_EQ(count_above(freqs, 1500.0), 3);
  EXPECT_GT(freqs.back(), 3500.0);  // asymmetric stretch, overestimated
}

}  // namespace
}  // namespace qfr::engine
