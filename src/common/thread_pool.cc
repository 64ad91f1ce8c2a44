#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace scube {

// Shared between a ParallelFor call and its helper tasks. Helpers hold a
// shared_ptr, so a helper scheduled after the caller returned still finds
// live (but exhausted) state and exits without touching `fn`.
struct ThreadPool::ForState {
  size_t n = 0;
  const std::function<void(size_t, size_t)>* fn = nullptr;  // caller-owned
  std::atomic<size_t> next{0};         // next unclaimed index
  std::atomic<size_t> next_worker{1};  // helper worker ids (caller is 0)
  std::atomic<bool> cancelled{false};

  sync::Mutex mu;
  sync::CondVar cv;
  size_t in_flight GUARDED_BY(mu) = 0;  // helpers currently inside Drain()
  std::exception_ptr error GUARDED_BY(mu);

  // Claims and runs indices until the range is exhausted or cancelled.
  // `fn` is only dereferenced for a successfully claimed index; every
  // index is claimed before the caller returns, so a late helper never
  // touches the (by then dead) caller-owned closure.
  void Drain(size_t worker) {
    while (!cancelled.load(std::memory_order_relaxed)) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*fn)(worker, i);
      } catch (...) {
        sync::MutexLock lock(&mu);
        if (!error) error = std::current_exception();
        cancelled.store(true, std::memory_order_relaxed);
      }
    }
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { RunWorker(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    sync::MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_.SignalAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::RunWorker() {
  for (;;) {
    std::function<void()> task;
    {
      sync::MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) cv_.Wait(&mu_);
      // Drain before exiting: a late helper finds its range exhausted and
      // returns at once.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(
    size_t n, size_t max_workers,
    const std::function<void(size_t worker, size_t index)>& fn) {
  if (n == 0) return;
  size_t workers = std::max<size_t>(1, max_workers);
  if (n == 1 || workers == 1) {
    for (size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->n = n;
  state->fn = &fn;

  // Helpers beyond the range size (or the pool size) would only contend.
  size_t helpers = std::min({workers - 1, n - 1, num_threads()});
  {
    sync::MutexLock lock(&mu_);
    for (size_t h = 0; h < helpers; ++h) {
      queue_.emplace_back([state] {
        size_t worker = state->next_worker.fetch_add(1);
        {
          sync::MutexLock lock(&state->mu);
          ++state->in_flight;
        }
        state->Drain(worker);
        {
          sync::MutexLock lock(&state->mu);
          --state->in_flight;
        }
        state->cv.SignalAll();
      });
    }
  }
  cv_.SignalAll();

  state->Drain(/*worker=*/0);  // the caller participates

  // Every index is claimed by now; wait only for helpers mid-body.
  // Not-yet-started helpers will find the range exhausted and exit
  // without touching `fn` or the caller's stack.
  {
    sync::MutexLock lock(&state->mu);
    while (state->in_flight != 0) state->cv.Wait(&state->mu);
    if (state->error) std::rethrow_exception(state->error);
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(EffectiveThreads(0));
  return pool;
}

size_t ThreadPool::ParallelForShared(
    size_t n, size_t num_threads,
    const std::function<void(size_t worker, size_t index)>& fn) {
  size_t width = std::min(EffectiveThreads(num_threads),
                          std::max<size_t>(1, n));
  if (width == 1) {
    for (size_t i = 0; i < n; ++i) fn(0, i);
    return 1;
  }
  // The pool's workers plus the caller are all that can run at once.
  ThreadPool& pool = Shared();
  width = std::min(width, pool.num_threads() + 1);
  pool.ParallelFor(n, width, fn);
  return width;
}

size_t ThreadPool::EffectiveThreads(size_t num_threads) {
  if (num_threads != 0) return num_threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace scube
