// In-memory span recorder for the traced run. A span is opened around each
// call into a library layer from the benchmark's own code: name, start,
// end, the enclosing span on the same thread, and the op it belongs to.
// Spans are kept in memory and written out when the run ends; a layer's
// self time is its spans' duration minus the duration of their children.
//
// With tracing off, Span is two predictable branches and records nothing.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its index. `op` < 0
  /// inherits the enclosing span's op.
  int begin(const char* name, long op);
  void end(int index);

  struct SelfTime {
    double seconds = 0.0;  // summed over the spans of one name
    long spans = 0;
  };
  /// Self time per span name.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;
  [[nodiscard]] std::size_t size() const;

  /// One JSON object per line: name, op, parent, thread, start_us, end_us.
  void write(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    long op;
    int parent;
    int thread;
    Clock::time_point start;
    Clock::time_point end;
  };

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Record> records_;  // guarded by mu_
  int next_thread_ = 0;          // guarded by mu_
};

/// The process-wide recorder.
Tracer& tracer();

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  explicit Span(const char* name, long op = -1)
      : index_(tracer().enabled() ? tracer().begin(name, op) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

}  // namespace perfbench
