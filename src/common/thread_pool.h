// Fixed-size thread pool shared by every subsystem that fans work out
// (parallel cube fill, parallel Seal(), the findings build).
//
// Deliberately small and work-stealing-free: a mutex-guarded FIFO queue,
// N worker threads, and one entry point, ParallelFor(n, w, fn), which
// blocks until fn ran for every index in [0, n), with at most `w`
// concurrent participants (the caller is one of them). Subsystems reach
// the shared pool through ParallelForShared, which keeps sequential runs
// off it.
//
// Deadlock avoidance is by construction, not by stealing: ParallelFor
// claims indices from a shared atomic counter and the *calling thread
// participates*. Even when every pool worker is busy (or the pool is the
// caller's own pool, nested arbitrarily deep), the caller alone drains
// the range and returns. Helper tasks that only get scheduled after the
// range is exhausted find nothing to claim and return immediately — the
// call never blocks on a task that has not started.
//
// Exceptions thrown by ParallelFor bodies cancel the remaining indices
// and the first one is rethrown on the calling thread. Determinism is the
// caller's job: have fn(worker, i) write only to slot i (plus per-worker
// scratch) and merge slots in index order — then the result is identical
// for every thread count, including 1.

#ifndef SCUBE_COMMON_THREAD_POOL_H_
#define SCUBE_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace scube {

/// \brief Fixed pool of worker threads behind one ParallelFor.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue (every queued helper task still runs) and joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Runs fn(worker, index) for every index in [0, n), claiming indices
  /// dynamically. At most `max_workers` participants run concurrently
  /// (clamped to >= 1), each with a distinct `worker` id in
  /// [0, max_workers); the calling thread is participant 0. Blocks until
  /// the whole range completed; rethrows the first body exception after
  /// cancelling unclaimed indices.
  void ParallelFor(size_t n, size_t max_workers,
                   const std::function<void(size_t worker, size_t index)>& fn);

  /// Process-wide shared pool, lazily created with
  /// hardware_concurrency() threads. Use ParallelForShared's `num_threads`
  /// to bound a caller's parallelism instead of building private pools.
  static ThreadPool& Shared();

  /// ParallelFor on the shared pool, at most `num_threads` wide (0 =
  /// hardware concurrency). Returns the width that ran: min(num_threads,
  /// n, Shared()'s workers + 1), at least 1; worker ids are below it. A
  /// width-1 range runs inline on the caller without creating Shared(),
  /// which spawns hardware_concurrency() workers on first touch.
  static size_t ParallelForShared(
      size_t n, size_t num_threads,
      const std::function<void(size_t worker, size_t index)>& fn);

  /// Resolves a `num_threads` option: 0 = hardware concurrency (>= 1),
  /// anything else is taken literally.
  static size_t EffectiveThreads(size_t num_threads);

 private:
  struct ForState;

  void RunWorker();

  mutable sync::Mutex mu_;
  sync::CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace scube

#endif  // SCUBE_COMMON_THREAD_POOL_H_
