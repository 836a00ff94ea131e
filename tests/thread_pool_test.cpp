// Tests for archex::support::ThreadPool: inline single-thread mode, futures
// and exception propagation, run_workers ids and joins, and nest-safety (a
// task that itself fans out must not deadlock the pool).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "support/thread_pool.hpp"

namespace archex::support {
namespace {

TEST(ThreadPool, ClampsThreadCount) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.num_threads(), 4);
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, SubmitReturnsValue) {
  for (int n : {1, 3}) {
    ThreadPool pool(n);
    auto future = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(pool.wait(future), 42);
  }
}

TEST(ThreadPool, SubmitPropagatesException) {
  for (int n : {1, 3}) {
    ThreadPool pool(n);
    auto future =
        pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW((void)pool.wait(future), std::runtime_error);
  }
}

TEST(ThreadPool, NestedSubmitDoesNotDeadlock) {
  // Every outer task fans out again on the same pool and waits for its
  // inner tasks; with blocking joins this would deadlock as soon as all
  // workers wait on inner tasks.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  std::vector<std::future<void>> outer;
  for (int i = 0; i < 8; ++i) {
    outer.push_back(pool.submit([&] {
      std::vector<std::future<void>> inner;
      for (long j = 0; j < 8; ++j) {
        inner.push_back(pool.submit([&total, j] { total += j; }));
      }
      for (auto& f : inner) pool.wait(f);
    }));
  }
  for (auto& f : outer) pool.wait(f);
  EXPECT_EQ(total.load(), 8 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(ThreadPool, RunWorkersGivesEveryBodyAStableId) {
  for (int pool_size : {1, 4}) {
    for (int count : {1, 3, 6}) {
      ThreadPool pool(pool_size);
      std::vector<std::atomic<int>> started(
          static_cast<std::size_t>(count));
      pool.run_workers(count, [&](int w) {
        ASSERT_GE(w, 0);
        ASSERT_LT(w, count);
        ++started[static_cast<std::size_t>(w)];
      });
      for (int w = 0; w < count; ++w) {
        EXPECT_EQ(started[static_cast<std::size_t>(w)].load(), 1)
            << "worker " << w << " pool=" << pool_size;
      }
    }
  }
}

TEST(ThreadPool, RunWorkersJoinsAllBodiesBeforeRethrowing) {
  // Bodies reference this local; a body left running past the rethrow
  // would race its destruction (tsan would flag it).
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.run_workers(4,
                                [&](int w) {
                                  if (w == 0) {
                                    throw std::runtime_error("boom");
                                  }
                                  ++finished;
                                }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

TEST(ThreadPool, ManySmallTasksViaSubmit) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  futures.reserve(200);
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([i] { return i; }));
  }
  long total = 0;
  for (auto& f : futures) total += pool.wait(f);
  EXPECT_EQ(total, 199L * 200 / 2);
}

}  // namespace
}  // namespace archex::support
