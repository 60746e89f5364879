// Google-benchmark micro-benchmarks of the hot kernels: the blocked GEMM
// (scalar vs AVX2/FMA dispatch), the batched executor, the symmetry-aware
// strength reductions of Fig. 6 (real measured speedup, complementing the
// modeled Fig. 9), grid density evaluation, the sparse Hessian matvec
// driving the Lanczos solver, and the cell-list pair search behind the
// generalized-concap construction, and the McMurchie-Davidson integral
// layer every displaced geometry pays for: the Schwarz-screened ERI
// tensor and the analytic RHF gradient.
//
// With --json <path> the binary skips google-benchmark and emits a small
// deterministic, hand-timed qfr.bench.v1 document instead (the format
// scripts/ci.sh archives as BENCH_kernels.json): ISA speedup, symmetric
// strength reduction, batched-vs-eager executor ratios, the ERI and
// RHF-gradient build times of one water, and its CPSCF polarizability
// time and iteration count (HF and LDA).

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "qfr/chem/molecule.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/dfpt/response.hpp"
#include "qfr/geom/cell_list.hpp"
#include "qfr/integrals/eri.hpp"
#include "qfr/integrals/gradients.hpp"
#include "qfr/la/batched_executor.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/la/kernels.hpp"
#include "qfr/la/sparse.hpp"
#include "qfr/obs/export.hpp"
#include "qfr/scf/scf.hpp"
#include "qfr/spectra/lanczos.hpp"
#include "qfr/xdev/strength_reduction.hpp"

namespace {

using qfr::Rng;
using qfr::la::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = rng.uniform(-1, 1);
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    qfr::la::gemm(qfr::la::Trans::kNo, qfr::la::Trans::kNo, 1.0, a, b, 0.0,
                  c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_H1ExpressionNaive(benchmark::State& state) {
  const auto nbf = static_cast<std::size_t>(state.range(0));
  const Matrix chi = random_matrix(256, nbf, 3);
  const Matrix gchi = random_matrix(256, nbf, 4);
  for (auto _ : state) {
    auto h = qfr::xdev::h1_expression_naive(chi, gchi);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_H1ExpressionNaive)->Arg(48)->Arg(96)->Arg(192);

void BM_H1ExpressionReduced(benchmark::State& state) {
  const auto nbf = static_cast<std::size_t>(state.range(0));
  const Matrix chi = random_matrix(256, nbf, 3);
  const Matrix gchi = random_matrix(256, nbf, 4);
  for (auto _ : state) {
    auto h = qfr::xdev::h1_expression_reduced(chi, gchi);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_H1ExpressionReduced)->Arg(48)->Arg(96)->Arg(192);

void BM_GradRhoNaive(benchmark::State& state) {
  const auto nbf = static_cast<std::size_t>(state.range(0));
  const Matrix chi = random_matrix(256, nbf, 5);
  const Matrix gchi = random_matrix(256, nbf, 6);
  Matrix p = random_matrix(nbf, nbf, 7);
  for (std::size_t i = 0; i < nbf; ++i)
    for (std::size_t j = 0; j < i; ++j) p(i, j) = p(j, i);
  for (auto _ : state) {
    auto g = qfr::xdev::grad_rho_naive(chi, gchi, p);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_GradRhoNaive)->Arg(48)->Arg(96)->Arg(192);

void BM_GradRhoReduced(benchmark::State& state) {
  const auto nbf = static_cast<std::size_t>(state.range(0));
  const Matrix chi = random_matrix(256, nbf, 5);
  const Matrix gchi = random_matrix(256, nbf, 6);
  Matrix p = random_matrix(nbf, nbf, 7);
  for (std::size_t i = 0; i < nbf; ++i)
    for (std::size_t j = 0; j < i; ++j) p(i, j) = p(j, i);
  for (auto _ : state) {
    auto g = qfr::xdev::grad_rho_reduced(chi, gchi, p);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_GradRhoReduced)->Arg(48)->Arg(96)->Arg(192);

void BM_SparseHessianMatvec(benchmark::State& state) {
  // Block-tridiagonal-ish sparse Hessian of n atoms (3n x 3n).
  const auto atoms = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 3 * atoms;
  Rng rng(11);
  std::vector<qfr::la::Triplet> trips;
  for (std::size_t a = 0; a < atoms; ++a)
    for (std::size_t b = a; b < std::min(atoms, a + 12); ++b)
      for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j) {
          const double v = rng.uniform(-1, 1);
          trips.push_back({3 * a + i, 3 * b + j, v});
          if (a != b) trips.push_back({3 * b + j, 3 * a + i, v});
        }
  const auto h = qfr::la::CsrMatrix::from_triplets(dim, dim, trips);
  qfr::la::Vector x(dim, 1.0), y(dim, 0.0);
  for (auto _ : state) {
    h.matvec(1.0, x, 0.0, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * h.nnz() * 2);
}
BENCHMARK(BM_SparseHessianMatvec)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LanczosSpectrum(benchmark::State& state) {
  const auto atoms = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 3 * atoms;
  Rng rng(13);
  std::vector<qfr::la::Triplet> trips;
  for (std::size_t a = 0; a < atoms; ++a)
    for (std::size_t b = a; b < std::min(atoms, a + 6); ++b) {
      const double v = rng.uniform(0.0, 0.3);
      for (int i = 0; i < 3; ++i) {
        trips.push_back({3 * a + i, 3 * b + i, a == b ? v + 1.0 : -v});
        if (a != b) trips.push_back({3 * b + i, 3 * a + i, -v});
      }
    }
  const auto h = qfr::la::CsrMatrix::from_triplets(dim, dim, trips);
  qfr::la::Vector d(dim);
  for (auto& v : d) v = rng.uniform(-1, 1);
  const qfr::spectra::MatVec op = [&](std::span<const double> x,
                                      std::span<double> y) {
    h.matvec(1.0, x, 0.0, y);
  };
  qfr::spectra::LanczosOptions opts;
  opts.steps = 100;
  for (auto _ : state) {
    auto lr = qfr::spectra::lanczos(op, d, dim, opts);
    auto m = qfr::spectra::averaged_gauss_quadrature(lr);
    benchmark::DoNotOptimize(m.nodes.data());
  }
}
BENCHMARK(BM_LanczosSpectrum)->Arg(2000)->Arg(20000);

void BM_CellListPairs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(17);
  std::vector<qfr::geom::Vec3> pts(n);
  const double box = std::cbrt(static_cast<double>(n) / 0.033);
  for (auto& p : pts)
    p = {rng.uniform(0, box), rng.uniform(0, box), rng.uniform(0, box)};
  for (auto _ : state) {
    qfr::geom::CellList cl(pts, 7.56);  // 4 A in bohr
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
      cl.for_each_neighbor(i, [&](std::size_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CellListPairs)->Arg(10000)->Arg(100000);

void BM_GemmScalarForced(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  Matrix c(n, n);
  qfr::la::kernels::ScopedForceScalar scalar_only;
  for (auto _ : state) {
    qfr::la::gemm(qfr::la::Trans::kNo, qfr::la::Trans::kNo, 1.0, a, b, 0.0,
                  c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmScalarForced)->Arg(64)->Arg(128)->Arg(256);

void BM_BatchedExecutorFlush(benchmark::State& state) {
  // A grid-phase-like batch: many same-shape tasks contracting against one
  // shared density, flushed at the phase barrier.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t n_tasks = 16;
  const Matrix b = random_matrix(n, n, 2);
  std::vector<Matrix> as, cs(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    as.push_back(random_matrix(n, n, 3 + i));
    cs[i].resize_zero(n, n);
  }
  qfr::la::BatchedExecutor exec;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n_tasks; ++i)
      exec.enqueue(qfr::la::Trans::kNo, qfr::la::Trans::kNo, 1.0, as[i], b,
                   0.0, cs[i]);
    exec.flush();
    benchmark::DoNotOptimize(cs[0].data());
  }
  state.SetItemsProcessed(state.iterations() * n_tasks * 2 * n * n * n);
}
BENCHMARK(BM_BatchedExecutorFlush)->Arg(48)->Arg(96)->Arg(192);

// Integral inputs of one water: its basis, and for the gradient a
// converged RHF state.
qfr::basis::BasisSet water_basis(qfr::scf::BasisKind kind) {
  const auto w = qfr::chem::make_water({0, 0, 0});
  return kind == qfr::scf::BasisKind::kB631g ? qfr::basis::BasisSet::b631g(w)
                                             : qfr::basis::BasisSet::sto3g(w);
}

struct WaterScf {
  std::shared_ptr<qfr::scf::ScfContext> ctx;
  qfr::scf::ScfResult state;
};

WaterScf water_scf(qfr::scf::XcModel xc = qfr::scf::XcModel::kHartreeFock) {
  WaterScf out;
  out.ctx = std::make_shared<qfr::scf::ScfContext>(
      qfr::scf::ScfContext::build(qfr::chem::make_water({0, 0, 0})));
  qfr::scf::ScfOptions opts;
  opts.xc = xc;
  out.state = qfr::scf::ScfSolver(out.ctx, opts).solve();
  return out;
}

// The LDA gradient on the grid of a default-option LDA solve.
qfr::la::Vector water_lda_gradient(const WaterScf& w) {
  return qfr::ints::lda_gradient(
      *w.ctx, w.state, qfr::scf::ScfOptions{}.grid_radial_points);
}

void BM_EriTensor(benchmark::State& state) {
  const auto bs = water_basis(state.range(0) == 0
                                  ? qfr::scf::BasisKind::kSto3g
                                  : qfr::scf::BasisKind::kB631g);
  for (auto _ : state) {
    const qfr::ints::EriTensor eri(bs);
    benchmark::DoNotOptimize(eri(0, 0, 0, 0));
  }
}
// 0 = STO-3G water, 1 = 6-31G water.
BENCHMARK(BM_EriTensor)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RhfGradient(benchmark::State& state) {
  const WaterScf w = water_scf();
  for (auto _ : state) {
    const auto g = qfr::ints::rhf_gradient(*w.ctx, w.state);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_RhfGradient)->Unit(benchmark::kMillisecond);

void BM_LdaGradient(benchmark::State& state) {
  const WaterScf w = water_scf(qfr::scf::XcModel::kLda);
  for (auto _ : state) {
    const auto g = water_lda_gradient(w);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_LdaGradient)->Unit(benchmark::kMillisecond);

// ---- deterministic --json mode ------------------------------------------

// Seconds per call, best of `reps` timed blocks of enough calls to fill a
// few milliseconds each.
template <typename F>
double time_per_call(F&& fn, int calls_per_block = 4, int reps = 5) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const qfr::WallTimer timer;
    for (int c = 0; c < calls_per_block; ++c) fn();
    best = std::min(best, timer.seconds() / calls_per_block);
  }
  return best;
}

int run_json_mode(const std::string& path) {
  using qfr::la::BatchedExecutor;
  using qfr::la::TaskSym;
  using qfr::la::Trans;
  namespace kernels = qfr::la::kernels;

  qfr::obs::BenchReport report;
  report.name = "micro_kernels";
  report.meta.emplace_back("schema.note", "hand-timed, best-of-5");
  report.meta.emplace_back("isa", kernels::isa_name(kernels::active_isa()));

  // ISA speedup of the blocked GEMM.
  for (const std::size_t n : {64ul, 128ul, 256ul}) {
    const Matrix a = random_matrix(n, n, 1);
    const Matrix b = random_matrix(n, n, 2);
    Matrix c(n, n);
    auto one = [&] {
      qfr::la::gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, c);
    };
    const double t_simd = time_per_call(one);
    double t_scalar = 0.0;
    {
      kernels::ScopedForceScalar scalar_only;
      t_scalar = time_per_call(one);
    }
    const double flops = 2.0 * n * n * n;
    const std::string suffix = "/" + std::to_string(n);
    report.samples.push_back(
        {"gemm.scalar.gflops" + suffix, flops / t_scalar / 1e9, "gflops"});
    report.samples.push_back(
        {"gemm.simd.gflops" + suffix, flops / t_simd / 1e9, "gflops"});
    report.samples.push_back(
        {"gemm.simd.speedup" + suffix, t_scalar / t_simd, "x"});
  }

  // Fig. 6 symmetric strength reduction on the executor path.
  for (const std::size_t n : {128ul, 256ul}) {
    const std::size_t k = n / 2;
    const Matrix a = random_matrix(n, k, 3);
    Matrix c(n, n);
    const double t_full = time_per_call([&] {
      qfr::la::kernels::execute_task(qfr::la::make_gemm_task(
          Trans::kNo, Trans::kYes, 1.0, a, a, 0.0, c));
    });
    const double t_sym = time_per_call([&] {
      qfr::la::kernels::execute_task(
          qfr::la::make_gemm_task(Trans::kNo, Trans::kYes, 1.0, a, a, 0.0, c,
                                  TaskSym::kSymmetricOut));
    });
    report.samples.push_back({"sym.reduction.speedup/" + std::to_string(n),
                              t_full / t_sym, "x"});
  }

  // Batched flush vs eager per-product execution of the same task stream.
  {
    const std::size_t n = 96, n_tasks = 16;
    const Matrix b = random_matrix(n, n, 5);
    std::vector<Matrix> as, cs(n_tasks);
    for (std::size_t i = 0; i < n_tasks; ++i) {
      as.push_back(random_matrix(n, n, 7 + i));
      cs[i].resize_zero(n, n);
    }
    auto stream = [&](BatchedExecutor& exec) {
      for (std::size_t i = 0; i < n_tasks; ++i)
        exec.enqueue(Trans::kNo, Trans::kNo, 1.0, as[i], b, 0.0, cs[i]);
      exec.flush();
    };
    BatchedExecutor batched(BatchedExecutor::Policy::kBatched);
    BatchedExecutor eager(BatchedExecutor::Policy::kEager);
    const double t_batched = time_per_call([&] { stream(batched); });
    const double t_eager = time_per_call([&] { stream(eager); });
    report.samples.push_back(
        {"batch.vs_eager.speedup", t_eager / t_batched, "x"});
  }

  // H1 strength reduction (Fig. 6(a)) on whole expressions.
  for (const std::size_t nbf : {96ul, 192ul}) {
    const Matrix chi = random_matrix(256, nbf, 11);
    const Matrix gchi = random_matrix(256, nbf, 12);
    const double t_naive = time_per_call(
        [&] { benchmark::DoNotOptimize(
            qfr::xdev::h1_expression_naive(chi, gchi).data()); });
    const double t_red = time_per_call(
        [&] { benchmark::DoNotOptimize(
            qfr::xdev::h1_expression_reduced(chi, gchi).data()); });
    report.samples.push_back({"h1.reduce.speedup/" + std::to_string(nbf),
                              t_naive / t_red, "x"});
  }

  // Integral layer of one displaced geometry.
  {
    const auto sto3g = water_basis(qfr::scf::BasisKind::kSto3g);
    const auto b631g = water_basis(qfr::scf::BasisKind::kB631g);
    const WaterScf w = water_scf();
    const WaterScf w_lda = water_scf(qfr::scf::XcModel::kLda);
    const double t_sto3g = time_per_call(
        [&] { benchmark::DoNotOptimize(qfr::ints::EriTensor(sto3g)(0, 0, 0, 0)); });
    const double t_631g = time_per_call(
        [&] { benchmark::DoNotOptimize(qfr::ints::EriTensor(b631g)(0, 0, 0, 0)); });
    const double t_grad = time_per_call([&] {
      benchmark::DoNotOptimize(
          qfr::ints::rhf_gradient(*w.ctx, w.state).data());
    });
    const double t_lda_grad = time_per_call(
        [&] { benchmark::DoNotOptimize(water_lda_gradient(w_lda).data()); });
    report.samples.push_back({"eri.water_sto3g.ms", t_sto3g * 1e3, "ms"});
    report.samples.push_back({"eri.water_631g.ms", t_631g * 1e3, "ms"});
    report.samples.push_back(
        {"rhf_gradient.water_sto3g.ms", t_grad * 1e3, "ms"});
    report.samples.push_back(
        {"lda_gradient.water_sto3g.ms", t_lda_grad * 1e3, "ms"});
  }

  // CPSCF polarizability of one water (three field directions) at the
  // SCF engine's tolerance. Each direction's CG takes at most
  // n_occ * n_virt + 1 iterations in exact arithmetic; the amplitude
  // dimension is recorded so CI can gate the counts against it.
  for (const auto xc :
       {qfr::scf::XcModel::kHartreeFock, qfr::scf::XcModel::kLda}) {
    const WaterScf w = water_scf(xc);
    qfr::dfpt::DfptOptions opts;
    opts.tolerance = 1e-10;
    int iterations = 0;
    const double t = time_per_call([&] {
      qfr::dfpt::ResponseEngine engine(w.ctx, w.state, xc, opts);
      iterations = engine.polarizability().total_iterations;
    });
    const std::string key =
        xc == qfr::scf::XcModel::kLda ? "cpscf.water_sto3g.lda"
                                      : "cpscf.water_sto3g.hf";
    report.samples.push_back({key + ".ms", t * 1e3, "ms"});
    report.samples.push_back(
        {key + ".iterations", static_cast<double>(iterations), "count"});
    if (xc == qfr::scf::XcModel::kHartreeFock) {
      const auto n_occ = static_cast<double>(w.state.n_occupied);
      const auto n_bf = static_cast<double>(w.ctx->bs.n_functions());
      report.samples.push_back(
          {"cpscf.water_sto3g.amplitudes", n_occ * (n_bf - n_occ), "count"});
    }
  }

  std::ofstream os(path);
  if (!os.good()) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
    return 1;
  }
  qfr::obs::write_bench_json(os, report);
  std::printf("bench JSON written to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return run_json_mode(json_path);

  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
