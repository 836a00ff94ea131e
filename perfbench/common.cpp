#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "trace.hpp"

namespace perfbench {

double Rng::log_uniform(double lo, double hi) {
  return std::pow(10.0, uniform(std::log10(lo), std::log10(hi)));
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

Tail tail_latency(std::vector<double> values) {
  Tail tail;
  tail.samples = static_cast<long>(values.size());
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t index = n > 11 ? n - 11 : 0;
  tail.value = values[index];
  tail.percentile =
      100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return tail;
}

bool close_rel(double a, double b, double rel_tol) {
  return std::fabs(a - b) <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}

double rel_err(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale == 0.0 ? 0.0 : std::fabs(a - b) / scale;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
}

CpuRotation::~CpuRotation() {
  // Give the thread its whole allowed set back.
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t cpu : cpus_) CPU_SET(cpu, &set);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::advance() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  next_ = (next_ + 1) % cpus_.size();
  if (sched_setaffinity(0, sizeof set, &set) != 0) cpus_.clear();
}

double median_setup_seconds(int rounds, const std::function<void()>& setup,
                            CpuRotation* rotation) {
  const int per_round = rotation != nullptr ? rotation->size() : 1;
  std::vector<double> times;
  for (int round = 0; round < rounds; ++round) {
    double total = 0.0;
    for (int i = 0; i < per_round; ++i) {
      if (rotation != nullptr) {
        rotation->advance();
        setup();  // untimed: warm the new CPU's caches first
      }
      const double t0 = now_seconds();
      setup();
      total += now_seconds() - t0;
    }
    times.push_back(total / per_round);
  }
  return median(times);
}

void add_end_to_end(Result& result, double setup_s, double wall_s,
                    double cpu_s, const std::vector<double>& latencies_s) {
  const auto ops = static_cast<double>(latencies_s.size());
  const Tail tail = tail_latency(latencies_s);
  result.add("setup_s", setup_s, "s");
  result.add("ops_per_s", ops / wall_s, "1/s");
  result.add("latency_p50_ms", 1e3 * median(latencies_s), "ms");
  result.add("latency_tail_ms", 1e3 * tail.value, "ms");
  result.add("cpu_ms_per_op", 1e3 * cpu_s / ops, "ms");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::ostringstream note;
  note << "latency_tail_ms is p" << tail.percentile << " of " << tail.samples
       << " ops";
  result.notes.push_back(note.str());
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Keep in step with "per_layer" in BENCHMARK.json.
constexpr LayerMetric kLayerMetrics[] = {
    {"server.queue_wait_ms.p50", "ms"},
    {"server.queue_wait_ms.p99", "ms"},
    {"server.handle_ms.p50", "ms"},
    {"server.handle_ms.p99", "ms"},
    {"server.wire_ms.p50", "ms"},
    {"server.shed", "count"},
    {"server.malformed", "count"},
    {"server.cache_hit_rate", "ratio"},
    {"server.nogood_families", "count"},
    {"server.latency_ms.p50.repeated", "ms"},
    {"server.latency_ms.p50.new", "ms"},
    {"server.handle_ms.p50.repeated", "ms"},
    {"server.handle_ms.p50.new", "ms"},
    {"server.handle_ms.p50.tight", "ms"},
    {"wire.request_parse_us", "us"},
    {"wire.response_emit_us", "us"},
    {"wire.response_parse_us", "us"},
    {"wire.request_bytes", "B"},
    {"wire.response_bytes", "B"},
    {"encode.template_ms", "ms"},
    {"encode.base_ilp_ms", "ms"},
    {"encode.ar_ms", "ms"},
    {"encode.rows", "count"},
    {"encode.vars", "count"},
    {"mr.iterations", "count"},
    {"mr.learncons_rows", "count"},
    {"mr.oracle_nogoods", "count"},
    {"mr.solver_s", "s"},
    {"mr.analysis_s", "s"},
    {"ar.setup_s", "s"},
    {"ar.solver_s", "s"},
    {"pareto.points", "count"},
    {"ilp.nodes", "count"},
    {"ilp.nodes_pruned", "count"},
    {"ilp.nogoods_learned", "count"},
    {"ilp.nogood_prunings", "count"},
    {"ilp.nogood_prune_ratio", "ratio"},
    {"ilp.pseudocost_branches", "count"},
    {"ilp.limit_hits", "count"},
    {"ilp.ms_per_node", "ms"},
    {"lp.pivots", "count"},
    {"lp.pivots_per_node", "count"},
    {"lp.us_per_pivot", "us"},
    {"lp.factorizations", "count"},
    {"lp.eta_updates", "count"},
    {"lp.max_eta_len", "count"},
    {"lp.dual_reopts", "count"},
    {"lp.dual_fallbacks", "count"},
    {"lp.warm_start_ratio", "ratio"},
    {"lp.scratch_solves", "count"},
    {"presolve.rows_removed", "count"},
    {"presolve.fixed_vars", "count"},
    {"rel.analyze_ms.p50", "ms"},
    {"rel.analyze_ms.max", "ms"},
    {"rel.cache_hits", "count"},
    {"rel.cache_misses", "count"},
    {"rel.cache_hit_rate", "ratio"},
    {"rel.cache_entries", "count"},
    {"rel.max_rel_err", "ratio"},
    {"bdd.nodes_allocated", "count"},
    {"bdd.computed_hit_rate", "ratio"},
    {"bdd.final_nodes", "count"},
    {"self_ms.op", "ms"},
    {"self_ms.eps", "ms"},
    {"self_ms.encode", "ms"},
    {"self_ms.synthesis", "ms"},
    {"self_ms.ilp", "ms"},
    {"self_ms.rel", "ms"},
    {"self_ms.bdd", "ms"},
    {"self_ms.wire", "ms"},
    {"self_ms.server", "ms"},
    {"check.counter_drift", "count"},
    {"trace.spans", "count"},
    {"trace.overhead_ops_per_s", "1/s"},
    {"trace.overhead_frac", "ratio"},
};

}  // namespace

void add_per_layer(Result& result, const LayerValues& values) {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    if (it == values.end()) {
      result.not_applicable(m.name, m.unit);
    } else {
      result.add(m.name, it->second, m.unit);
    }
  }
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(
        std::begin(kLayerMetrics), std::end(kLayerMetrics),
        [&](const LayerMetric& m) { return name == m.name; });
    if (!known) throw std::logic_error("unlisted per-layer metric " + name);
  }
}

void add_trace_summary(LayerValues& values, const Options& options,
                       double untraced_ops_per_s, double traced_ops_per_s) {
  for (const auto& [name, total] : tracer().self_times()) {
    values["self_ms." + name] =
        1e3 * total.seconds / static_cast<double>(total.spans);
  }
  values["trace.spans"] = static_cast<double>(tracer().size());
  values["trace.overhead_ops_per_s"] = untraced_ops_per_s - traced_ops_per_s;
  values["trace.overhead_frac"] =
      (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s;
  if (!options.trace_dir.empty()) {
    tracer().write(options.trace_dir + "/" + options.workload + "-" +
                   std::to_string(options.seed) + ".jsonl");
  }
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

archex::json::Value load_json(const std::string& path) {
  return archex::json::parse(read_text(path));
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
}

}  // namespace perfbench
