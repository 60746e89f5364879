// Tests of the content-addressed fragment-result cache (qfr::cache):
// canonicalization invariance, frame mapping against direct computes,
// LRU/byte budgeting, single-flight deduplication under threads, the
// persistent store's corruption handling, and the runtime/workflow
// integration (hit accounting, fallback-level namespacing, chaos parity).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "qfr/cache/canonical.hpp"
#include "qfr/cache/store.hpp"
#include "qfr/chem/molecule.hpp"
#include "qfr/chem/protein.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/fault/chaos.hpp"
#include "qfr/fault/fault_injector.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/qframan/workflow.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "scratch_path.hpp"

namespace qfr::cache {
namespace {

using chem::Element;
using chem::Molecule;
using engine::FragmentResult;
using geom::Vec3;

// ---------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------

/// Proper rotation about a random axis by a random angle (Rodrigues).
std::array<double, 9> random_rotation(Rng& rng) {
  Vec3 axis{rng.normal(), rng.normal(), rng.normal()};
  axis = axis.normalized();
  const double t = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
  const double c = std::cos(t), s = std::sin(t);
  std::array<double, 9> r{};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      r[3 * i + j] = c * (i == j ? 1.0 : 0.0) +
                     (1.0 - c) * axis[i] * axis[j] +
                     s * (i == 1 && j == 2   ? -axis.x
                          : i == 2 && j == 1 ? axis.x
                          : i == 0 && j == 2 ? axis.y
                          : i == 2 && j == 0 ? -axis.y
                          : i == 0 && j == 1 ? -axis.z
                          : i == 1 && j == 0 ? axis.z
                                             : 0.0);
  return r;
}

Vec3 apply(const std::array<double, 9>& r, const Vec3& v) {
  return {r[0] * v.x + r[1] * v.y + r[2] * v.z,
          r[3] * v.x + r[4] * v.y + r[5] * v.z,
          r[6] * v.x + r[7] * v.y + r[8] * v.z};
}

/// Rigidly move `mol` (rotate, translate) and re-order its atoms by
/// `perm` (new index i takes old atom perm[i]).
Molecule rigid_image(const Molecule& mol, const std::array<double, 9>& r,
                     const Vec3& shift, const std::vector<std::size_t>& perm) {
  Molecule out;
  for (std::size_t i = 0; i < mol.size(); ++i) {
    const chem::Atom& a = mol.atom(perm[i]);
    out.add(a.element, apply(r, a.position) + shift);
  }
  return out;
}

std::vector<std::size_t> random_permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

/// A rigid chiral 5-atom test molecule (generic positions, 5 distinct
/// elements): no symmetry, so its mirror image is a different content.
Molecule chiral5() {
  Molecule m;
  m.add(Element::H, {0.1, 0.2, 0.3});
  m.add(Element::C, {1.9, 0.0, 0.1});
  m.add(Element::N, {0.0, 2.1, 0.2});
  m.add(Element::O, {0.3, 0.4, 2.3});
  m.add(Element::S, {-1.6, 1.1, -0.7});
  return m;
}

double max_abs_diff(const la::Matrix& a, const la::Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  return m;
}

double max_abs(const la::Matrix& a) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.data()[i]));
  return m;
}

/// In-memory cache options at the standard tolerance.
CacheOptions mem_opts() {
  CacheOptions o;
  o.enabled = true;
  o.tolerance = 1e-4;
  return o;
}

/// gtest-friendly scratch path, removed on destruction.
struct ScratchFile {
  std::string path;
  explicit ScratchFile(const std::string& name) {
    path = scratch_path(name);
    std::remove(path.c_str());
  }
  ~ScratchFile() { std::remove(path.c_str()); }
};

// ---------------------------------------------------------------------
// Canonicalization.
// ---------------------------------------------------------------------

TEST(Canonical, KeyInvariantUnderRigidMotionAndPermutation) {
  Rng rng(11);
  for (const Molecule& base :
       {chem::make_water({0, 0, 0}, 0.35), chiral5()}) {
    const Canonicalization ref = canonicalize(base, 1e-4, "model");
    for (int trial = 0; trial < 20; ++trial) {
      const auto rot = random_rotation(rng);
      const Vec3 shift{rng.uniform(-30, 30), rng.uniform(-30, 30),
                       rng.uniform(-30, 30)};
      const auto perm = random_permutation(base.size(), rng);
      const Molecule image = rigid_image(base, rot, shift, perm);
      const Canonicalization c = canonicalize(image, 1e-4, "model");
      EXPECT_TRUE(c.key == ref.key) << "trial " << trial;
      EXPECT_EQ(c.key.h0, ref.key.h0);
      EXPECT_EQ(c.key.h1, ref.key.h1);
    }
  }
}

TEST(Canonical, DistinctContentYieldsDistinctKeys) {
  const Molecule water = chem::make_water({0, 0, 0});
  const Canonicalization ref = canonicalize(water, 1e-4, "model");

  // Stretch one O-H bond well past the tolerance: different content.
  Molecule stretched = water;
  stretched.atom(1).position += Vec3{0.05, 0.0, 0.0};
  EXPECT_FALSE(canonicalize(stretched, 1e-4, "model").key == ref.key);

  // Same geometry under a different engine namespace must not alias.
  EXPECT_FALSE(canonicalize(water, 1e-4, "scf_hf").key == ref.key);

  // Same geometry at a different tolerance is a different key space.
  EXPECT_FALSE(canonicalize(water, 1e-3, "model").key == ref.key);

  // A mirror image of a chiral molecule must MISS (reflections are not
  // in the canonical group: polarizability derivatives are chiral).
  const Molecule mol = chiral5();
  Molecule mirrored;
  for (const chem::Atom& a : mol.atoms())
    mirrored.add(a.element,
                 {a.position.x, a.position.y, -a.position.z});
  EXPECT_FALSE(canonicalize(mirrored, 1e-4, "model").key ==
               canonicalize(mol, 1e-4, "model").key);
}

TEST(Canonical, FrameMappingRoundTripsExactly) {
  const Molecule mol = chiral5();
  const std::size_t dim = 3 * mol.size();
  const Canonicalization c = canonicalize(mol, 1e-4, "model");

  Rng rng(5);
  FragmentResult r;
  r.energy = -7.25;
  r.flops = 1234;
  r.displacement_tasks = 30;
  r.hessian.resize_zero(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      r.hessian(i, j) = r.hessian(j, i) = rng.normal();
  r.alpha.resize_zero(3, 3);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j <= i; ++j) r.alpha(i, j) = r.alpha(j, i) = rng.normal();
  r.dalpha.resize_zero(6, dim);
  for (std::size_t i = 0; i < r.dalpha.size(); ++i)
    r.dalpha.data()[i] = rng.normal();
  r.dmu.resize_zero(3, dim);
  for (std::size_t i = 0; i < r.dmu.size(); ++i)
    r.dmu.data()[i] = rng.normal();

  const FragmentResult canonical = to_canonical_frame(r, c);
  const FragmentResult back = to_lab_frame(canonical, c);
  EXPECT_DOUBLE_EQ(back.energy, r.energy);
  EXPECT_EQ(back.flops, r.flops);
  EXPECT_EQ(back.displacement_tasks, r.displacement_tasks);
  EXPECT_LT(max_abs_diff(back.hessian, r.hessian), 1e-12);
  EXPECT_LT(max_abs_diff(back.alpha, r.alpha), 1e-12);
  EXPECT_LT(max_abs_diff(back.dalpha, r.dalpha), 1e-12);
  EXPECT_LT(max_abs_diff(back.dmu, r.dmu), 1e-12);
}

TEST(Canonical, BackRotatedHitMatchesDirectComputeOfRotatedPose) {
  // The physical contract of the whole cache: compute a water at pose A,
  // serve a rigidly-moved copy at pose B from the cached entry, and the
  // served tensors must match a DIRECT compute at pose B. The Hessian is
  // analytic in the model engine (exactly covariant); dalpha/dmu are
  // central FD at 1e-4 bohr, whose orientation-dependent truncation error
  // bounds the match at ~1e-9 relative.
  const engine::ModelEngine eng;
  Rng rng(3);
  const Molecule a = chem::make_water({0, 0, 0}, 0.2);
  const FragmentResult ra = eng.compute(a);

  ResultCache cache(mem_opts());
  ASSERT_TRUE(cache.insert(eng.name(), a, ra));

  for (int trial = 0; trial < 5; ++trial) {
    const auto rot = random_rotation(rng);
    const Vec3 shift{rng.uniform(-10, 10), rng.uniform(-10, 10),
                     rng.uniform(-10, 10)};
    const auto perm = random_permutation(a.size(), rng);
    const Molecule b = rigid_image(a, rot, shift, perm);

    const auto served = cache.lookup(eng.name(), b);
    ASSERT_TRUE(served.has_value()) << "trial " << trial;
    EXPECT_TRUE(served->cache_hit);

    const FragmentResult direct = eng.compute(b);
    EXPECT_NEAR(served->energy, direct.energy, 1e-10);
    const double scale_h = std::max(1.0, max_abs(direct.hessian));
    EXPECT_LT(max_abs_diff(served->hessian, direct.hessian) / scale_h, 1e-8)
        << "trial " << trial;
    const double scale_a = std::max(1.0, max_abs(direct.alpha));
    EXPECT_LT(max_abs_diff(served->alpha, direct.alpha) / scale_a, 1e-8);
    const double scale_da = std::max(1.0, max_abs(direct.dalpha));
    EXPECT_LT(max_abs_diff(served->dalpha, direct.dalpha) / scale_da, 1e-8)
        << "trial " << trial;
    const double scale_dm = std::max(1.0, max_abs(direct.dmu));
    EXPECT_LT(max_abs_diff(served->dmu, direct.dmu) / scale_dm, 1e-8);
  }
}

TEST(Canonical, KeySerializationRoundTrips) {
  const Canonicalization c =
      canonicalize(chem::make_water({1, 2, 3}, 0.7), 1e-4, "scf_hf");
  common::ByteWriter w;
  write_key(w, c.key);
  common::ByteReader in(w.view());
  FragmentKey back;
  ASSERT_TRUE(read_key(in, &back));
  EXPECT_TRUE(back == c.key);

  // Truncated stream: clean false, no throw.
  const std::string bytes(w.view());
  common::ByteReader half(std::string_view(bytes).substr(0, bytes.size() / 2));
  FragmentKey dropped;
  EXPECT_FALSE(read_key(half, &dropped));
  // ... and so is every other strict prefix.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    common::ByteReader prefix(std::string_view(bytes).substr(0, cut));
    FragmentKey partial;
    EXPECT_FALSE(read_key(prefix, &partial)) << "cut at " << cut;
  }
}

// ---------------------------------------------------------------------
// In-memory store: hits, eviction, single flight, poisoning defense.
// ---------------------------------------------------------------------

TEST(Store, SecondRequestIsServedFromCache) {
  ResultCache cache(mem_opts());
  const Molecule w = chem::make_water({0, 0, 0});
  std::atomic<int> computes{0};
  auto compute = [&] {
    ++computes;
    engine::ModelEngine eng;
    return eng.compute(w);
  };
  const FragmentResult first = cache.get_or_compute("model", w, compute);
  EXPECT_FALSE(first.cache_hit);
  // A rotated copy hits the same entry.
  Rng rng(1);
  const Molecule moved = rigid_image(w, random_rotation(rng), {5, 6, 7},
                                     random_permutation(w.size(), rng));
  const FragmentResult second = cache.get_or_compute("model", moved, compute);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(computes.load(), 1);
  EXPECT_NEAR(second.energy, first.energy, 1e-12);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(Store, ProbeIsReadOnlyAndNeverCountsTowardStats) {
  ResultCache cache(mem_opts());
  const Molecule w = chem::make_water({0, 0, 0});
  const Canonicalization c =
      canonicalize(w, cache.options().tolerance, "model");
  EXPECT_FALSE(cache.probe(c).has_value());
  const engine::ModelEngine eng;
  cache.get_or_compute("model", w, [&] { return eng.compute(w); });
  const CacheStats before = cache.stats();
  ASSERT_TRUE(cache.probe(c).has_value());
  // The tiered-reuse engine probes on every fragment; hit/miss stats must
  // keep describing real get_or_compute traffic only.
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);
}

TEST(Store, FindNearMatchesWithinTheRadiusOnly) {
  ResultCache cache(mem_opts());
  const Molecule w = chem::make_water({0, 0, 0});
  const engine::ModelEngine eng;
  cache.get_or_compute("model", w, [&] { return eng.compute(w); });

  Molecule bent = w;
  bent.atom(1).position += Vec3{0.01, 0.0, 0.0};
  const Canonicalization c =
      canonicalize(bent, cache.options().tolerance, "model");
  EXPECT_FALSE(cache.probe(c).has_value());  // distorted: not an exact hit

  const std::optional<NearHit> hit = cache.find_near(c, 0.05);
  ASSERT_TRUE(hit.has_value());
  EXPECT_GT(hit->max_displacement, 0.0);
  EXPECT_LE(hit->max_displacement, 0.05);
  EXPECT_EQ(hit->old_canonical_pos.size(), w.size());

  // A radius below the actual distortion finds nothing, and neither does
  // the same geometry keyed under a different engine namespace.
  EXPECT_FALSE(cache.find_near(c, 1e-4).has_value());
  const Canonicalization other =
      canonicalize(bent, cache.options().tolerance, "scf");
  EXPECT_FALSE(cache.find_near(other, 0.05).has_value());
}

TEST(Store, LruEvictionRespectsByteBudget) {
  // One shard, a budget of roughly two water entries: inserting many
  // distinct geometries must evict the least recently used.
  const engine::ModelEngine eng;
  const Molecule probe = chem::make_water({0, 0, 0});
  const std::size_t entry_cost = result_bytes(eng.compute(probe)) +
                                 canonicalize(probe, 1e-4, "model")
                                     .key.payload_bytes();
  CacheOptions opts;
  opts.enabled = true;
  opts.n_shards = 1;
  opts.max_bytes = 2 * entry_cost + entry_cost / 2;
  ResultCache cache(opts);

  // Distinct contents: stretch a bond differently each time.
  auto variant = [&](int k) {
    Molecule m = probe;
    m.atom(1).position += Vec3{0.1 * (k + 1), 0.0, 0.0};
    return m;
  };
  for (int k = 0; k < 5; ++k) {
    const Molecule m = variant(k);
    cache.get_or_compute("model", m, [&] { return eng.compute(m); });
  }
  const CacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0);
  EXPECT_LE(s.entries, 2u);
  EXPECT_LE(s.bytes, opts.max_bytes);
  // The most recent geometry survived; the oldest was evicted.
  EXPECT_TRUE(cache.lookup("model", variant(4)).has_value());
  EXPECT_FALSE(cache.lookup("model", variant(0)).has_value());
}

TEST(Store, SingleFlightManyThreadsOneCompute) {
  // N threads request the same content concurrently: exactly one inner
  // compute runs, everyone gets the result. Run under TSan in CI.
  ResultCache cache(mem_opts());
  const Molecule w = chem::make_water({0, 0, 0});
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;

  std::vector<std::thread> threads;
  std::vector<double> energies(kThreads, 0.0);
  std::atomic<int> hits{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      const Molecule mine =
          rigid_image(w, random_rotation(rng),
                      {rng.uniform(-5, 5), 0, 0},
                      random_permutation(w.size(), rng));
      const FragmentResult r = cache.get_or_compute("model", mine, [&] {
        ++computes;
        // Long enough that the other threads pile onto the in-flight
        // latch instead of finding the finished entry.
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        engine::ModelEngine eng;
        return eng.compute(mine);
      });
      energies[t] = r.energy;
      if (r.cache_hit) ++hits;
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(hits.load(), kThreads - 1);
  for (int t = 1; t < kThreads; ++t)
    EXPECT_NEAR(energies[t], energies[0], 1e-10);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, kThreads - 1);
  EXPECT_GT(s.inflight_waits, 0);
}

TEST(Store, FailedLeaderWakesWaitersWithoutPoisoningTheKey) {
  ResultCache cache(mem_opts());
  const Molecule w = chem::make_water({0, 0, 0});
  std::atomic<int> calls{0};

  // First compute throws; the key must stay clean and computable.
  EXPECT_THROW(cache.get_or_compute("model", w,
                                    [&]() -> FragmentResult {
                                      ++calls;
                                      throw NumericalError(
                                          "scf diverged",
                                          std::source_location::current());
                                    }),
               NumericalError);
  const FragmentResult ok = cache.get_or_compute("model", w, [&] {
    ++calls;
    engine::ModelEngine eng;
    return eng.compute(w);
  });
  EXPECT_FALSE(ok.cache_hit);
  EXPECT_EQ(calls.load(), 2);

  // Threaded variant: a slow failing leader plus waiters; every waiter
  // must recover by retrying, never hang, never observe the failure.
  // Stretch a bond so this is new content, not a rigid copy of `w`
  // (which the successful retry above just cached).
  Molecule w2 = chem::make_water({30, 0, 0});
  w2.atom(1).position += Vec3{0.15, 0.0, 0.0};
  std::atomic<int> attempts{0};
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        const FragmentResult r =
            cache.get_or_compute("model", w2, [&]() -> FragmentResult {
              const int a = ++attempts;
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
              if (a == 1)
                throw NumericalError("first attempt fails",
                                     std::source_location::current());
              engine::ModelEngine eng;
              return eng.compute(w2);
            });
        (void)r;
        ++successes;
      } catch (const NumericalError&) {
        // Only the first leader sees its own failure.
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(successes.load(), kThreads - 1);
  EXPECT_GE(attempts.load(), 2);
}

TEST(Store, NonFiniteAndFilteredResultsAreNeverCached) {
  ResultCache cache(mem_opts());
  const Molecule w = chem::make_water({0, 0, 0});

  FragmentResult poisoned = engine::ModelEngine().compute(w);
  poisoned.hessian(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(cache.insert("model", w, poisoned));
  EXPECT_FALSE(cache.lookup("model", w).has_value());

  // The insert filter (the workflow wires the sweep validator here)
  // refuses structurally-bad results; the caller still gets its result
  // back from get_or_compute, but nobody else ever will.
  cache.set_insert_filter([](const FragmentResult&) { return false; });
  const FragmentResult r = cache.get_or_compute("model", w, [&] {
    return engine::ModelEngine().compute(w);
  });
  EXPECT_FALSE(r.cache_hit);
  EXPECT_FALSE(cache.lookup("model", w).has_value());
  EXPECT_GE(cache.stats().insert_rejects, 2);
}

TEST(Store, EngineNamespacesNeverAlias) {
  // Fallback-level consistency: the same geometry cached under the
  // primary engine's name must miss when requested for a fallback
  // engine (and vice versa) — a degraded fragment can not be served a
  // primary-quality result it did not earn, nor the other way around.
  ResultCache cache(mem_opts());
  const Molecule w = chem::make_water({0, 0, 0});
  ASSERT_TRUE(cache.insert("scf_hf", w, engine::ModelEngine().compute(w)));
  EXPECT_TRUE(cache.lookup("scf_hf", w).has_value());
  EXPECT_FALSE(cache.lookup("model", w).has_value());
  EXPECT_FALSE(cache.lookup("scf_hf+fd", w).has_value());
}

// ---------------------------------------------------------------------
// Persistent store.
// ---------------------------------------------------------------------

CacheOptions disk_opts(const std::string& path) {
  CacheOptions o;
  o.enabled = true;
  o.tolerance = 1e-4;
  o.store_path = path;
  return o;
}

TEST(PersistentStore, EntriesSurviveAcrossInstances) {
  ScratchFile f("qfr_cache_roundtrip.bin");
  const engine::ModelEngine eng;
  const Molecule w = chem::make_water({0, 0, 0}, 0.4);
  const FragmentResult direct = eng.compute(w);
  {
    ResultCache cache(disk_opts(f.path));
    ASSERT_TRUE(cache.insert("model", w, direct));
  }
  ResultCache reloaded(disk_opts(f.path));
  EXPECT_EQ(reloaded.stats().store_loaded, 1);
  // Served to a rotated pose from the reloaded store.
  Rng rng(9);
  const Molecule moved = rigid_image(w, random_rotation(rng), {3, 1, 4},
                                     random_permutation(w.size(), rng));
  const auto hit = reloaded.lookup("model", moved);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->energy, direct.energy, 1e-12);
}

TEST(PersistentStore, CorruptRecordIsSkippedAndReported) {
  ScratchFile f("qfr_cache_corrupt.bin");
  const engine::ModelEngine eng;
  const Molecule w1 = chem::make_water({0, 0, 0});
  Molecule w2 = w1;
  w2.atom(1).position += Vec3{0.2, 0, 0};
  long long first_end = 0;
  {
    ResultCache cache(disk_opts(f.path));
    ASSERT_TRUE(cache.insert("model", w1, eng.compute(w1)));
    std::ifstream probe(f.path, std::ios::binary | std::ios::ate);
    first_end = static_cast<long long>(probe.tellg());
    ASSERT_TRUE(cache.insert("model", w2, eng.compute(w2)));
  }
  // Flip one byte inside the second record's payload.
  {
    std::fstream fs(f.path,
                    std::ios::binary | std::ios::in | std::ios::out);
    fs.seekg(0, std::ios::end);
    const long long end = static_cast<long long>(fs.tellg());
    const long long mid = first_end + (end - first_end) / 2;
    fs.seekg(mid);
    char b = 0;
    fs.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    fs.seekp(mid);
    fs.write(&b, 1);
  }
  // The load's counters are mirrored into the ambient session's registry,
  // so a run report shows the damage.
  obs::Session session;
  const obs::ScopedSession ambient(&session);
  ResultCache reloaded(disk_opts(f.path));
  const CacheStats s = reloaded.stats();
  EXPECT_EQ(s.store_loaded, 1);
  EXPECT_EQ(s.store_corrupt, 1);
  EXPECT_EQ(session.metrics().counter_value("qfr.cache.store_loaded"), 1);
  EXPECT_EQ(session.metrics().counter_value("qfr.cache.store_corrupt"), 1);
  EXPECT_TRUE(reloaded.lookup("model", w1).has_value());
  EXPECT_FALSE(reloaded.lookup("model", w2).has_value());

  // Detecting damage rewrites a clean store: a third open reports no
  // corruption and still serves the surviving entry.
  ResultCache again(disk_opts(f.path));
  EXPECT_EQ(again.stats().store_corrupt, 0);
  EXPECT_EQ(again.stats().store_loaded, 1);
  EXPECT_TRUE(again.lookup("model", w1).has_value());
}

TEST(PersistentStore, ForeignToleranceRecordsAreSkipped) {
  ScratchFile f("qfr_cache_foreign_tol.bin");
  const Molecule w = chem::make_water({0, 0, 0});
  {
    ResultCache cache(disk_opts(f.path));
    ASSERT_TRUE(cache.insert("model", w, engine::ModelEngine().compute(w)));
  }
  CacheOptions coarse = disk_opts(f.path);
  coarse.tolerance = 1e-2;  // different grid: keys do not line up
  obs::Session session;
  const obs::ScopedSession ambient(&session);
  ResultCache reloaded(coarse);
  EXPECT_EQ(reloaded.stats().store_loaded, 0);
  EXPECT_EQ(reloaded.stats().store_skipped, 1);
  EXPECT_EQ(session.metrics().counter_value("qfr.cache.store_skipped"), 1);
  EXPECT_FALSE(reloaded.lookup("model", w).has_value());
}

TEST(PersistentStore, OtherVersionIsRejectedByName) {
  ScratchFile f("qfr_cache_version.bin");
  {
    ResultCache cache(disk_opts(f.path));
    const Molecule w = chem::make_water({0, 0, 0});
    ASSERT_TRUE(cache.insert("model", w, engine::ModelEngine().compute(w)));
  }
  {
    // Stamp the version field (the second header word) with version 1.
    std::fstream fs(f.path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t v1 = 1;
    fs.seekp(8);
    fs.write(reinterpret_cast<const char*>(&v1), sizeof(v1));
  }
  try {
    ResultCache reloaded(disk_opts(f.path));
    FAIL() << "a version-1 store was accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("got 1"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 2"), std::string::npos) << what;
  }
}

TEST(PersistentStore, CompactRewritesExactlyTheLiveEntries) {
  ScratchFile f("qfr_cache_compact.bin");
  const engine::ModelEngine eng;
  ResultCache cache(disk_opts(f.path));
  for (int k = 0; k < 3; ++k) {
    Molecule m = chem::make_water({0, 0, 0});
    m.atom(1).position += Vec3{0.1 * (k + 1), 0, 0};
    ASSERT_TRUE(cache.insert("model", m, eng.compute(m)));
  }
  cache.compact();
  ResultCache reloaded(disk_opts(f.path));
  EXPECT_EQ(reloaded.stats().store_loaded, 3);
  EXPECT_EQ(reloaded.stats().store_corrupt, 0);
}

// ---------------------------------------------------------------------
// Runtime integration.
// ---------------------------------------------------------------------

std::vector<frag::Fragment> water_fragments(std::size_t n) {
  std::vector<frag::Fragment> frags(n);
  for (std::size_t i = 0; i < n; ++i) {
    frags[i].id = i;
    frags[i].kind = frag::FragmentKind::kWater;
    // Same internal geometry, different pose per fragment.
    frags[i].mol = chem::make_water({static_cast<double>(20 * i), 5.0, -3.0},
                                    0.3 * static_cast<double>(i));
  }
  return frags;
}

TEST(RuntimeCache, DuplicateFragmentsAreServedFromCacheAndCounted) {
  const std::size_t n_frag = 12;
  const auto frags = water_fragments(n_frag);
  ResultCache cache(mem_opts());
  obs::Session session;

  runtime::RuntimeOptions ropts;
  ropts.n_leaders = 2;
  ropts.workers_per_leader = 2;
  ropts.cache = &cache;
  ropts.obs = &session;
  const runtime::MasterRuntime rt(std::move(ropts));
  const engine::ModelEngine eng;
  const runtime::RunReport rep = rt.run(frags, eng);

  ASSERT_EQ(rep.n_failed(), 0u);
  // Every monomer after the first compute is a hit (single flight also
  // collapses concurrent first requests to one compute).
  EXPECT_EQ(rep.n_cache_hits(), n_frag - 1);
  std::size_t flagged = 0;
  for (const auto& o : rep.outcomes)
    if (o.cache_hit) ++flagged;
  EXPECT_EQ(flagged, n_frag - 1);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, static_cast<std::int64_t>(n_frag - 1));
  EXPECT_EQ(s.misses, 1);
  // The obs mirror: both the cache's own counters and the scheduler
  // aggregate landed in the session registry.
  EXPECT_EQ(session.metrics().counter_value("qfr.cache.hits"),
            static_cast<std::int64_t>(n_frag - 1));
  EXPECT_EQ(session.metrics().counter_value("qfr.cache.misses"), 1);
  EXPECT_EQ(session.metrics().counter_value("sched.cache_hits"),
            static_cast<std::int64_t>(n_frag - 1));
  // All results identical physics: same energy everywhere.
  for (std::size_t id = 1; id < n_frag; ++id)
    EXPECT_NEAR(rep.results[id].energy, rep.results[0].energy, 1e-10);
}

TEST(RuntimeCache, ChaosSweepAcceptedSetIsUnchangedByTheCache) {
  // The cache must be invisible to fault-tolerance semantics: a seeded
  // chaos sweep (leader kills + hangs under supervision) accepts exactly
  // the same fragment set, on the same engines, with and without it.
  const std::size_t n_frag = 16;
  const std::size_t n_leaders = 3;
  const auto frags = water_fragments(n_frag);
  const engine::ModelEngine eng;

  auto run_once = [&](ResultCache* cache) {
    fault::ChaosScheduleOptions copts;
    copts.seed = 4242;
    copts.n_leaders = n_leaders;
    copts.kill_probability = 0.3;
    copts.max_kills_per_leader = 1;
    copts.hang_probability = 0.2;
    copts.max_hangs_per_leader = 1;
    copts.hang_seconds = 0.06;
    const fault::ChaosSchedule chaos(copts);
    fault::FaultInjector injector(chaos.plan());

    runtime::RuntimeOptions ropts;
    ropts.n_leaders = n_leaders;
    ropts.straggler_timeout = 10.0;
    ropts.abort_on_failure = false;
    ropts.supervision.enabled = true;
    ropts.supervision.heartbeat_timeout = 0.03;
    ropts.supervision.poll_interval = 0.003;
    ropts.fault_injector = &injector;
    ropts.cache = cache;
    const runtime::MasterRuntime rt(std::move(ropts));
    return rt.run(frags, eng);
  };

  const runtime::RunReport baseline = run_once(nullptr);
  ResultCache cache(mem_opts());
  const runtime::RunReport cached = run_once(&cache);

  ASSERT_EQ(baseline.outcomes.size(), cached.outcomes.size());
  for (std::size_t id = 0; id < n_frag; ++id) {
    EXPECT_EQ(baseline.outcomes[id].completed, cached.outcomes[id].completed)
        << "fragment " << id;
    EXPECT_EQ(baseline.outcomes[id].engine, cached.outcomes[id].engine)
        << "fragment " << id;
    EXPECT_EQ(baseline.outcomes[id].engine_level,
              cached.outcomes[id].engine_level)
        << "fragment " << id;
    if (baseline.outcomes[id].completed) {
      EXPECT_NEAR(baseline.results[id].energy, cached.results[id].energy,
                  1e-10)
          << "fragment " << id;
    }
  }
}

// ---------------------------------------------------------------------
// Workflow integration: spectrum parity and hit rate.
// ---------------------------------------------------------------------

TEST(WorkflowCache, CachedSweepReproducesUncachedSpectrum) {
  // Pure water box, monomer fragments only: every water is a rigid copy
  // of the same monomer, so all but the first compute must be cache
  // hits, and the assembled spectrum must match the uncached run to
  // 1e-8 relative.
  frag::BioSystem sys;
  chem::WaterBoxOptions wopts;
  wopts.edge_angstrom = 9.0;
  wopts.seed = 12;
  sys.waters = chem::build_water_box(wopts, Molecule{});
  ASSERT_GE(sys.waters.size(), 5u);

  qframan::WorkflowOptions base;
  base.fragmentation.include_two_body = false;
  base.n_leaders = 2;
  base.workers_per_leader = 2;
  base.omega_points = 400;
  base.solver = qframan::SolverKind::kExact;

  const qframan::WorkflowResult uncached =
      qframan::RamanWorkflow(base).run(sys);
  EXPECT_EQ(uncached.sweep.n_cache_hits, 0u);

  qframan::WorkflowOptions with_cache = base;
  with_cache.cache.enabled = true;
  const qframan::WorkflowResult cached =
      qframan::RamanWorkflow(with_cache).run(sys);

  // >= 80% of the water-class computes came from the cache (here: all
  // but the very first).
  const std::size_t n = sys.waters.size();
  EXPECT_EQ(cached.sweep.n_cache_hits, n - 1);
  EXPECT_GE(static_cast<double>(cached.sweep.n_cache_hits),
            0.8 * static_cast<double>(n));

  ASSERT_EQ(cached.spectrum.intensity.size(),
            uncached.spectrum.intensity.size());
  double peak = 0.0;
  for (const double v : uncached.spectrum.intensity)
    peak = std::max(peak, std::abs(v));
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < uncached.spectrum.intensity.size(); ++i)
    EXPECT_NEAR(cached.spectrum.intensity[i], uncached.spectrum.intensity[i],
                1e-8 * peak)
        << "axis point " << i;
}

}  // namespace
}  // namespace qfr::cache
