#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "qfr/common/error.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/common/thread_pool.hpp"
#include "qfr/common/timer.hpp"

namespace qfr {
namespace {

TEST(Error, RequireThrowsInvalidArgument) {
  EXPECT_THROW(
      [] { QFR_REQUIRE(1 == 2, "one is not two"); }(), InvalidArgument);
}

TEST(Error, AssertThrowsInternalError) {
  EXPECT_THROW([] { QFR_ASSERT(false, "bad invariant"); }(), InternalError);
}

TEST(Error, NumericFailThrowsNumericalError) {
  EXPECT_THROW([] { QFR_NUMERIC_FAIL("no convergence"); }(), NumericalError);
}

TEST(Error, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW([] { QFR_REQUIRE(true, ""); QFR_ASSERT(true, ""); }());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.below(17);
    EXPECT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng r(17);
  const int n = 200000;
  double s1 = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    s1 += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s1 / n, 0.0, 0.02);
  EXPECT_NEAR(s2 / n, 1.0, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(99);
  Rng child = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == child());
  EXPECT_LT(same, 5);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ManySmallTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 500; ++i)
    futs.push_back(pool.submit([&] { count++; }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ZeroHelpersRunsOnTheCaller) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(7, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(ThreadPool::current(), &pool);
    hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(ThreadPool::current(), nullptr);
}

TEST(ThreadPool, ThrowWaitsForEveryStartedIndex) {
  // One index throws while the others are still running: parallel_for may
  // rethrow only after they finish, since they write into the caller's
  // frame. Indices not yet started when the throw lands are skipped.
  ThreadPool pool(3);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  {
    std::vector<int> written(8, 0);
    EXPECT_THROW(pool.parallel_for(written.size(),
                                   [&](std::size_t i) {
                                     started++;
                                     if (i == 0) {
                                       std::this_thread::sleep_for(
                                           std::chrono::milliseconds(5));
                                       finished++;
                                       throw std::runtime_error("index 0");
                                     }
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(40));
                                     written[i] = 1;
                                     finished++;
                                   }),
                 std::runtime_error);
    EXPECT_EQ(started.load(), finished.load());
  }
  // Nothing still running may touch the destroyed vector.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(started.load(), finished.load());
}

TEST(ThreadPool, NestedParallelForFromEveryPoolThread) {
  // Every compute thread (caller + 3 helpers) sits in an outer index at
  // once and opens nested loops on the same pool; all must complete.
  ThreadPool pool(3);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kInner = 50;
  std::atomic<std::size_t> arrived{0};
  std::atomic<std::size_t> leaves{0};
  std::set<std::thread::id> outer_threads;
  std::mutex mutex;
  EXPECT_EQ(ThreadPool::current(), nullptr);
  pool.parallel_for(kThreads, [&](std::size_t) {
    EXPECT_EQ(ThreadPool::current(), &pool);
    {
      std::lock_guard<std::mutex> lock(mutex);
      outer_threads.insert(std::this_thread::get_id());
    }
    arrived++;
    while (arrived.load() < kThreads) std::this_thread::yield();
    pool.parallel_for(kInner, [&](std::size_t) {
      EXPECT_EQ(ThreadPool::current(), &pool);
      pool.parallel_for(3, [&](std::size_t) { leaves++; });
    });
  });
  EXPECT_EQ(outer_threads.size(), kThreads);
  EXPECT_EQ(leaves.load(), kThreads * kInner * 3);
  EXPECT_EQ(ThreadPool::current(), nullptr);
}

TEST(Timer, MeasuresMonotonicallyIncreasingTime) {
  WallTimer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Timer, PhaseTimerAccumulates) {
  PhaseTimer p;
  p.start();
  p.stop();
  p.start();
  p.stop();
  EXPECT_EQ(p.intervals(), 2);
  EXPECT_GE(p.total_seconds(), 0.0);
}

}  // namespace
}  // namespace qfr
