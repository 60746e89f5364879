#include "qfr/basis/basis.hpp"

#include <array>
#include <cmath>
#include <functional>

#include "qfr/common/error.hpp"
#include "qfr/common/units.hpp"

namespace qfr::basis {

namespace {

double double_factorial(int n) {
  double r = 1.0;
  for (int k = n; k > 1; k -= 2) r *= k;
  return r;
}

using ShellData = BasisSet::RawShell;

// STO-3G exponents/coefficients (EMSL basis set exchange). The sulfur 3sp
// block is approximate (recalled to ~1e-3); sulfur appears only in the
// classical-model path of this reproduction, so SCF reference energies are
// validated for H/C/N/O systems.
std::vector<ShellData> sto3g_shells(chem::Element e) {
  using chem::Element;
  static const std::vector<double> k1s_c = {0.15432897, 0.53532814,
                                            0.44463454};
  static const std::vector<double> k2s_c = {-0.09996723, 0.39951283,
                                            0.70011547};
  static const std::vector<double> k2p_c = {0.15591627, 0.60768372,
                                            0.39195739};
  static const std::vector<double> k3s_c = {-0.21962037, 0.22559543,
                                            0.90039843};
  static const std::vector<double> k3p_c = {0.01058760, 0.59516701,
                                            0.46200101};

  auto make = [](int l, const std::vector<double>& exps,
                 const std::vector<double>& coefs) {
    ShellData s;
    s.l = l;
    for (std::size_t i = 0; i < exps.size(); ++i)
      s.prims.push_back({exps[i], coefs[i]});
    return s;
  };

  switch (e) {
    case Element::H:
      return {make(0, {3.42525091, 0.62391373, 0.16885540}, k1s_c)};
    case Element::C:
      return {make(0, {71.6168370, 13.0450960, 3.5305122}, k1s_c),
              make(0, {2.9412494, 0.6834831, 0.2222899}, k2s_c),
              make(1, {2.9412494, 0.6834831, 0.2222899}, k2p_c)};
    case Element::N:
      return {make(0, {99.1061690, 18.0523120, 4.8856602}, k1s_c),
              make(0, {3.7804559, 0.8784966, 0.2857144}, k2s_c),
              make(1, {3.7804559, 0.8784966, 0.2857144}, k2p_c)};
    case Element::O:
      return {make(0, {130.7093200, 23.8088610, 6.4436083}, k1s_c),
              make(0, {5.0331513, 1.1695961, 0.3803890}, k2s_c),
              make(1, {5.0331513, 1.1695961, 0.3803890}, k2p_c)};
    case Element::S:
      return {make(0, {533.1257359, 97.1095183, 26.2816250}, k1s_c),
              make(0, {33.3297517, 7.7451175, 2.4188455}, k2s_c),
              make(1, {33.3297517, 7.7451175, 2.4188455}, k2p_c),
              make(0, {2.0291942, 0.5661400, 0.2215833}, k3s_c),
              make(1, {2.0291942, 0.5661400, 0.2215833}, k3p_c)};
  }
  QFR_ASSERT(false, "unsupported element in sto3g basis");
  return {};
}

// 6-31G split-valence basis (Hehre/Ditchfield/Pople) for H, C, N, O.
std::vector<ShellData> b631g_shells(chem::Element e) {
  using chem::Element;
  auto make = [](int l, const std::vector<double>& exps,
                 const std::vector<double>& coefs) {
    ShellData s;
    s.l = l;
    for (std::size_t i = 0; i < exps.size(); ++i)
      s.prims.push_back({exps[i], coefs[i]});
    return s;
  };
  switch (e) {
    case Element::H:
      return {make(0, {18.7311370, 2.8253937, 0.6401217},
                   {0.03349460, 0.23472695, 0.81375733}),
              make(0, {0.1612778}, {1.0})};
    case Element::C:
      return {make(0,
                   {3047.5249, 457.36951, 103.94869, 29.210155, 9.2866630,
                    3.1639270},
                   {0.0018347, 0.0140373, 0.0688426, 0.2321844, 0.4679413,
                    0.3623120}),
              make(0, {7.8682724, 1.8812885, 0.5442493},
                   {-0.1193324, -0.1608542, 1.1434564}),
              make(1, {7.8682724, 1.8812885, 0.5442493},
                   {0.0689991, 0.3164240, 0.7443083}),
              make(0, {0.1687144}, {1.0}),
              make(1, {0.1687144}, {1.0})};
    case Element::N:
      return {make(0,
                   {4173.5110, 627.45790, 142.90210, 40.234330, 12.820210,
                    4.3904370},
                   {0.0018348, 0.0139950, 0.0685870, 0.2322410, 0.4690700,
                    0.3604550}),
              make(0, {11.626358, 2.7162800, 0.7722180},
                   {-0.1149610, -0.1691180, 1.1458520}),
              make(1, {11.626358, 2.7162800, 0.7722180},
                   {0.0675800, 0.3239070, 0.7408950}),
              make(0, {0.2120313}, {1.0}),
              make(1, {0.2120313}, {1.0})};
    case Element::O:
      return {make(0,
                   {5484.6717, 825.23495, 188.04696, 52.964500, 16.897570,
                    5.7996353},
                   {0.0018311, 0.0139501, 0.0684451, 0.2327143, 0.4701930,
                    0.3585209}),
              make(0, {15.539616, 3.5999336, 1.0137618},
                   {-0.1107775, -0.1480263, 1.1307670}),
              make(1, {15.539616, 3.5999336, 1.0137618},
                   {0.0708743, 0.3397528, 0.7271586}),
              make(0, {0.2700058}, {1.0}),
              make(1, {0.2700058}, {1.0})};
    default:
      QFR_REQUIRE(false, "6-31G is provided for H, C, N, O only");
  }
  return {};
}

}  // namespace

// Assemble a basis from per-element shell data.
BasisSet BasisSet::assemble(
    const chem::Molecule& mol,
    const std::function<std::vector<RawShell>(chem::Element)>& shells_of) {
  BasisSet bs;
  for (std::size_t a = 0; a < mol.size(); ++a) {
    for (const auto& data : shells_of(mol.atom(a).element)) {
      Shell sh;
      sh.l = data.l;
      sh.center = mol.atom(a).position;
      sh.atom = a;
      sh.first_bf = bs.nbf_;
      sh.prims = data.prims;

      for (auto& p : sh.prims)
        p.coefficient *= primitive_norm(p.exponent, data.l, 0, 0);

      double s = 0.0;
      for (const auto& pa : sh.prims)
        for (const auto& pb : sh.prims) {
          const double psum = pa.exponent + pb.exponent;
          const double pref =
              double_factorial(2 * data.l - 1) /
              std::pow(2.0 * psum, static_cast<double>(data.l));
          s += pa.coefficient * pb.coefficient * pref *
               std::pow(units::kPi / psum, 1.5);
        }
      const double scale = 1.0 / std::sqrt(s);
      for (auto& p : sh.prims) p.coefficient *= scale;

      bs.nbf_ += sh.n_functions();
      for (std::size_t f = 0; f < sh.n_functions(); ++f)
        bs.bf_atom_.push_back(a);
      bs.shells_.push_back(std::move(sh));
    }
  }
  return bs;
}

namespace {

// Number of Cartesian components of all momenta below l.
constexpr std::size_t components_below(int l) {
  return static_cast<std::size_t>(l * (l + 1) * (l + 2) / 6);
}

// The components of l = 0..kMaxCartesianL, concatenated in order of l.
constexpr auto kCartesianTable = [] {
  std::array<CartPowers, components_below(kMaxCartesianL + 1)> out{};
  std::size_t n = 0;
  for (int l = 0; l <= kMaxCartesianL; ++l)
    for (int i = l; i >= 0; --i)
      for (int j = l - i; j >= 0; --j) out[n++] = {i, j, l - i - j};
  return out;
}();

}  // namespace

std::span<const CartPowers> cartesian_powers(int l) {
  QFR_REQUIRE(l <= kMaxCartesianL, "cartesian_powers: angular momentum "
                                       << l << " exceeds " << kMaxCartesianL);
  if (l < 0) return {};
  return std::span<const CartPowers>(kCartesianTable)
      .subspan(components_below(l), components_below(l + 1) -
                                        components_below(l));
}

double primitive_norm(double alpha, int i, int j, int k) {
  const int l = i + j + k;
  const double num = std::pow(2.0 * alpha / units::kPi, 1.5) *
                     std::pow(4.0 * alpha, static_cast<double>(l));
  const double den = double_factorial(2 * i - 1) *
                     double_factorial(2 * j - 1) *
                     double_factorial(2 * k - 1);
  return std::sqrt(num / den);
}

BasisSet BasisSet::sto3g(const chem::Molecule& mol) {
  return assemble(mol, sto3g_shells);
}

BasisSet BasisSet::b631g(const chem::Molecule& mol) {
  return assemble(mol, b631g_shells);
}

}  // namespace qfr::basis
