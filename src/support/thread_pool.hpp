// archex/support/thread_pool.hpp
//
// Fixed-size thread pool: the concurrency substrate for the parallel
// branch & bound workers (run_workers) and the archex_server's request
// workers (submit). Design goals, in order:
//
//  * the pool only *schedules*; callers own the decomposition and any
//    determinism contract;
//  * no surprises at num_threads() == 1 — everything runs inline on the
//    calling thread, giving a true serial baseline for speedup measurements;
//  * nest-safe waiting — a thread blocked in wait() keeps draining the
//    shared queue, so a task that itself fans out cannot deadlock the pool.
//
// There is deliberately no work stealing and no per-thread deque *in the
// pool itself*: callers submit a handful of coarse tasks, for which a
// single mutex-protected queue is both simpler and cheaper than a stealing
// scheduler. Schedulers that do steal — the parallel branch & bound's
// global node pool (src/ilp/branch_and_bound.cpp) — are built one layer
// above, on run_workers(), where the stealing policy can be domain-aware
// (bound-ordered nodes, incumbent-based pruning at steal time).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace archex::support {

class ThreadPool {
 public:
  /// A pool that runs work on `num_threads` threads *including* the caller
  /// (run_workers participates): n - 1 workers are spawned. Values < 1 are
  /// clamped to 1; 1 means fully inline execution (no threads created).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency, including the calling thread.
  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Number of hardware threads, at least 1.
  [[nodiscard]] static int hardware_threads();

  /// Schedule `fn` on a worker and return its future. With no workers the
  /// call runs inline and the returned future is already ready.
  template <typename F>
  [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (workers_.empty()) {
      (*task)();
      return future;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Run `body(w)` once for each worker id w in [0, count), all eligible to
  /// execute concurrently, with the caller running body(0) inline: a
  /// *static* launch of long-running collaborators (e.g. branch-and-bound
  /// workers that share a node pool), each with a stable id for per-worker
  /// scratch state.
  /// All bodies are joined before returning, even on error; the first
  /// exception thrown by any body is rethrown afterwards. Bodies may
  /// cooperate through shared state but must not *require* more than one of
  /// them to be running at once (count may exceed num_threads(), in which
  /// case excess bodies start as earlier ones finish).
  void run_workers(int count, const std::function<void(int)>& body);

  /// Block until `future` is ready, helping with queued pool work while
  /// waiting (nest-safe join).
  template <typename T>
  T wait(std::future<T>& future) {
    using namespace std::chrono_literals;
    while (future.wait_for(0s) != std::future_status::ready) {
      if (!run_one()) future.wait_for(50us);
    }
    return future.get();
  }

 private:
  /// Pop and run one queued task; false when the queue was empty.
  bool run_one();
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace archex::support
