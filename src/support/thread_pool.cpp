#include "support/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace archex::support {

ThreadPool::ThreadPool(int num_threads) {
  const int workers = std::max(1, num_threads) - 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

bool ThreadPool::run_one() {
  std::function<void()> job;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    job = std::move(queue_.front());
    queue_.pop_front();
  }
  job();
  return true;
}

void ThreadPool::run_workers(int count, const std::function<void(int)>& body) {
  if (count <= 0) return;
  if (count == 1 || workers_.empty()) {
    for (int w = 0; w < count; ++w) body(w);
    return;
  }

  std::vector<std::future<void>> joins;
  joins.reserve(static_cast<std::size_t>(count - 1));
  for (int w = 1; w < count; ++w) {
    joins.push_back(submit([&body, w] { body(w); }));
  }
  // Join everything before rethrowing: a body may reference caller locals,
  // so no body can be left running once run_workers returns.
  std::exception_ptr first_error;
  try {
    body(0);
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& join : joins) {
    try {
      wait(join);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace archex::support
