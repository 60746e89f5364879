#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace qfr {

/// Fixed-size worker thread pool.
///
/// This is the execution substrate for the in-process master/leader/worker
/// runtime: each leader owns a pool of helper threads, and the leader
/// thread itself is one more compute thread, since parallel_for runs
/// indices on the caller too. Loops nest: a fragment running inside a
/// leader's parallel_for fans its displacement jobs out over the same
/// pool (see current()), which is the paper's third tier.
class ThreadPool {
 public:
  /// Creates `n` helper threads. With n = 0, parallel_for runs entirely
  /// on the calling thread and submit is unavailable.
  explicit ThreadPool(std::size_t n);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of helper threads.
  std::size_t size() const { return threads_.size(); }

  /// The pool whose loop the calling thread is inside: its own pool for a
  /// helper thread, the pool of the enclosing parallel_for for a caller,
  /// nullptr otherwise.
  static ThreadPool* current();

  /// Enqueue a task; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// Run fn(i) for i in [0, n) on the caller and the helper threads, and
  /// return once every index has run. Indices are claimed one at a time
  /// from a shared counter, and the caller waits only for indices already
  /// claimed, so parallel_for may be called from inside fn (or from any
  /// helper thread) without deadlock. If fn throws, indices not yet
  /// started are skipped, and the first exception is rethrown after every
  /// started index has finished.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void enqueue(std::function<void()> task, std::size_t copies = 1);
  void worker_loop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace qfr
