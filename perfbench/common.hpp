// Shared plumbing of the archex benchmark program: run options, the result
// record every workload fills in, seeded sampling, timers and the output
// checks. Everything here is benchmark code; the library is only called
// from the workload files.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the golden files (goldens/*.json).
  std::string goldens_dir;
  /// Directory the traced run writes its spans to.
  std::string trace_dir;
};

/// One reported metric. `applicable` false marks a per-layer metric the
/// workload does not exercise; it is printed with value 0.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool applicable = true;
};

struct Result {
  long attempted = 0;
  long failed = 0;
  /// Ops whose timing-independent counters differed from the same op's
  /// first run in this process, or that hit a solver limit. Reported, and
  /// kept apart from `failed`, which counts wrong answers only.
  long drift = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the final JSON line.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit, true});
  }
  void not_applicable(const std::string& name, const std::string& unit) {
    metrics.push_back({name, 0.0, unit, false});
  }
};

/// Deterministic generator: std::mt19937_64's output sequence is fixed by
/// the standard, and the helpers below avoid the implementation-defined
/// standard distributions, so a seed names the same inputs on every
/// platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// 10^U(log10 lo, log10 hi).
  double log_uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(engine_() % n);
  }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

 private:
  std::mt19937_64 engine_;
};

[[nodiscard]] double now_seconds();
/// Process CPU time (user + system, all threads) from getrusage.
[[nodiscard]] double cpu_seconds();
/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// The highest percentile with at least ten samples above it: the value at
/// sorted index n - 11, reported with its percentile rank.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  long samples = 0;
};
[[nodiscard]] Tail tail_latency(std::vector<double> values);

/// |a - b| <= rel_tol * max(|a|, |b|). Failures span 1e-22 .. 1, so an
/// absolute tolerance would accept any two tiny values.
[[nodiscard]] bool close_rel(double a, double b, double rel_tol = 1e-9);
[[nodiscard]] double rel_err(double a, double b);

/// The vCPUs of the host can differ in speed for minutes at a time (one may
/// share a physical core with a busy neighbour), so a serial run would take
/// the speed of whichever CPU it happened to start on. Serial workloads
/// instead move the calling thread to the next allowed CPU before every op
/// and every set-up, so each run samples every CPU alike.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next CPU of the allowed set.
  void advance();
  /// CPUs in the rotation (at least 1).
  [[nodiscard]] int size() const {
    return cpus_.empty() ? 1 : static_cast<int>(cpus_.size());
  }

 private:
  std::vector<std::size_t> cpus_;
  std::size_t next_ = 0;
};

/// Runs `setup` in `rounds` rounds and returns the median round time; the
/// state the last call leaves behind is what the measured phase uses. With
/// a rotation, a round times `setup` once on every CPU, after an untimed
/// call that warms that CPU's caches, and its time is their mean, so the
/// figure moves smoothly with the share of slow CPUs instead of flipping
/// when half of them are slow.
double median_setup_seconds(int rounds, const std::function<void()>& setup,
                            CpuRotation* rotation = nullptr);

/// End-to-end metrics shared by every workload: latencies in seconds, one
/// per op, over the measured phase.
void add_end_to_end(Result& result, double setup_s, double wall_s,
                    double cpu_s, const std::vector<double>& latencies_s);

/// Per-layer values of a traced run, by metric name.
using LayerValues = std::map<std::string, double>;

/// Appends every per-layer metric, in BENCHMARK.json order; names missing
/// from `values` are printed as not applicable to the workload.
void add_per_layer(Result& result, const LayerValues& values);

/// Fills self_ms.<span name> (mean self time per span), trace.spans and
/// the tracing overhead (untraced minus traced ops/s), and writes the spans
/// to `<trace_dir>/<workload>-<seed>.jsonl` when a directory is given.
void add_trace_summary(LayerValues& values, const Options& options,
                       double untraced_ops_per_s, double traced_ops_per_s);

[[nodiscard]] std::string read_text(const std::string& path);
[[nodiscard]] archex::json::Value load_json(const std::string& path);
void write_text(const std::string& path, const std::string& text);

Result run_synth(const Options& options);
Result run_serve(const Options& options);
Result run_analyze(const Options& options);

/// Recompute the golden files from the library at hand (status, cost and
/// exact failure of every pool entry).
void make_synth_goldens(const std::string& path);
void make_analyze_goldens(const std::string& path);

}  // namespace perfbench
