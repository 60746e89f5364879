#include "qfr/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>

namespace qfr {
namespace {

thread_local ThreadPool* t_current = nullptr;

/// Shared state of one parallel_for. Helper tasks own it jointly with the
/// caller, so a helper dequeued after the loop finished finds no index
/// left and never touches `fn`, which lives on the caller's stack.
struct Loop {
  Loop(std::size_t n, const std::function<void(std::size_t)>& fn)
      : n(n), fn(fn) {}

  const std::size_t n;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};  // early-out hint; `error` is the record
  std::mutex mutex;                 // guards done and error
  std::condition_variable finished;
  std::size_t done = 0;
  std::exception_ptr error;  // first exception thrown by fn
};

/// Claims and runs indices until none is left. An index claimed after a
/// failure is counted as done without running, so the loop drains fast.
void drain(Loop& loop) {
  for (;;) {
    const std::size_t i = loop.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= loop.n) return;
    std::exception_ptr error;
    if (!loop.failed.load(std::memory_order_relaxed)) {
      try {
        loop.fn(i);
      } catch (...) {
        error = std::current_exception();
        loop.failed.store(true, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(loop.mutex);
    if (error && !loop.error) loop.error = error;
    if (++loop.done == loop.n) loop.finished.notify_all();
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t n) {
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool* ThreadPool::current() { return t_current; }

void ThreadPool::enqueue(std::function<void()> task, std::size_t copies) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::runtime_error("submit on stopped ThreadPool");
    if (threads_.empty())
      throw std::logic_error("submit on a ThreadPool without threads");
    for (std::size_t c = 1; c < copies; ++c) queue_.push(task);
    queue_.push(std::move(task));
  }
  if (copies == 1)
    cv_.notify_one();
  else
    cv_.notify_all();
}

void ThreadPool::worker_loop() {
  t_current = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto loop = std::make_shared<Loop>(n, fn);
  // The caller runs indices too, so at most n - 1 helpers can find work.
  const std::size_t helpers = std::min(size(), n - 1);
  if (helpers > 0) enqueue([loop] { drain(*loop); }, helpers);

  ThreadPool* const outer = t_current;
  t_current = this;
  drain(*loop);
  t_current = outer;

  // Every index is claimed by now; wait for those still running elsewhere.
  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->finished.wait(lock, [&] { return loop->done == n; });
  if (loop->error) std::rethrow_exception(loop->error);
}

}  // namespace qfr
