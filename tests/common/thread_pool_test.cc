// ThreadPool contract: ParallelFor covers exactly [0, n) with bounded
// worker ids, empty ranges return immediately, body exceptions cancel and
// rethrow on the caller, ParallelFor nested inside a body on the pool's
// only worker cannot deadlock, and concurrent callers share the pool.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace scube {
namespace {

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, pool.num_threads() + 1,
                   [&](size_t /*worker*/, size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForDeterministicMergePattern) {
  // The intended usage: fn(worker, i) writes only slot i; the merged
  // result is identical for every worker bound, including 1.
  ThreadPool pool(4);
  constexpr size_t kN = 257;
  auto run = [&](size_t max_workers) {
    std::vector<uint64_t> out(kN, 0);
    pool.ParallelFor(kN, max_workers,
                     [&](size_t /*worker*/, size_t i) { out[i] = i * i + 1; });
    return out;
  };
  EXPECT_EQ(run(1), run(2));
  EXPECT_EQ(run(1), run(5));
}

TEST(ThreadPoolTest, WorkerIdsStayWithinBound) {
  ThreadPool pool(8);
  constexpr size_t kWorkers = 3;
  std::atomic<bool> out_of_bounds{false};
  pool.ParallelFor(500, kWorkers, [&](size_t worker, size_t /*i*/) {
    if (worker >= kWorkers) out_of_bounds = true;
  });
  EXPECT_FALSE(out_of_bounds.load());
}

TEST(ThreadPoolTest, EmptyRangeReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, pool.num_threads() + 1,
                   [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, BodyExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(100, pool.num_threads() + 1,
                                [&](size_t /*worker*/, size_t i) {
                                  if (i == 17) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionCancelsUnclaimedIndices) {
  ThreadPool pool(1);  // single participant -> strictly ordered claims
  std::atomic<size_t> ran{0};
  EXPECT_THROW(pool.ParallelFor(1000, 1,
                                [&](size_t /*worker*/, size_t i) {
                                  ran.fetch_add(1);
                                  if (i == 3) throw std::runtime_error("stop");
                                }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 4u);  // indices 0..3, then cancelled
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A body on the only worker of a one-thread pool runs ParallelFor nested
  // two deep: no worker is free to help, so a blocking fork-join would
  // starve; the caller-participates design drains inline. The caller
  // (participant 0) holds its index until the worker's body is done, so
  // the worker must claim the other one.
  ThreadPool pool(1);
  const size_t workers = pool.num_threads() + 1;
  std::atomic<bool> worker_done{false};
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(2, workers, [&](size_t worker, size_t /*i*/) {
    if (worker == 0) {
      while (!worker_done.load()) std::this_thread::yield();
      return;
    }
    pool.ParallelFor(8, workers, [&](size_t, size_t) {
      pool.ParallelFor(8, workers,
                       [&](size_t, size_t) { total.fetch_add(1); });
    });
    worker_done = true;
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPoolTest, ManyConcurrentParallelForsFromThreads) {
  ThreadPool pool(4);
  constexpr size_t kCallers = 16;
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      pool.ParallelFor(100, pool.num_threads() + 1,
                       [&](size_t, size_t) { total.fetch_add(1); });
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(total.load(), kCallers * 100u);
}

TEST(ThreadPoolTest, EffectiveThreadsResolvesAutoAndLiteral) {
  EXPECT_GE(ThreadPool::EffectiveThreads(0), 1u);
  EXPECT_EQ(ThreadPool::EffectiveThreads(1), 1u);
  EXPECT_EQ(ThreadPool::EffectiveThreads(7), 7u);
}

TEST(ThreadPoolTest, SharedPoolIsUsableAndStable) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
  std::atomic<int> n{0};
  a.ParallelFor(32, a.num_threads() + 1,
                [&](size_t, size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 32);
}

}  // namespace
}  // namespace scube
