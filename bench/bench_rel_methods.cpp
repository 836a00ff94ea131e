// Ablation: the two exact K-terminal reliability analyzers. Factoring
// (pivot decomposition with reachability pruning, the reference) vs. the
// ROBDD method (the default), on EPS-shaped parallel-chain architectures
// with a growing number of redundant paths, plus the Monte-Carlo
// estimators. google-benchmark timings.
//
// Interpretation notes (see EXPERIMENTS.md):
//  * factoring grows ~3^k in the chain count k on fully parallel systems —
//    exact analysis is exponential, which is the paper's very motivation
//    for calling RELANALYSIS "only when needed";
//  * BDD rides the graph width instead; both methods sum only non-negative
//    terms and keep full relative precision far below 1e-14, which the
//    report checks as rel_err.
//
// The headline report printed before the google-benchmark table is a
// synthesis-style workload (repeated factoring of the largest EPS-shaped
// instance) run plain and then through a shared EvalCache, with the
// speedup, the cache hit rate, and a bit-identity check of the two result
// streams.
//
// `--order=<topo|bfs|degree>` selects the variable-ordering heuristic the
// BDD benchmarks compile with (default topo, i.e. rel::BddOrdering::kAuto:
// topological, BFS levels on cyclic graphs). Independent of the flag, the
// headline report prints a per-ordering peak-BDD-size ablation over the
// EPS-shaped instances — the baseline for future ordering work.
//
// The headline measurements (cold-cache BDD vs factoring, BDD engine
// counters, ordering ablation) are also written to BENCH_rel.json through
// the shared section merger (bench/bench_json.hpp), like BENCH_solver.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "graph/digraph.hpp"
#include "rel/bdd_method.hpp"
#include "rel/eval_cache.hpp"
#include "rel/exact.hpp"
#include "rel/monte_carlo.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace archex;

rel::BddOrdering g_order = rel::BddOrdering::kAuto;  // --order
const char* g_order_name = "topo";

/// `chains` disjoint G->B->D->L chains sharing one sink, plus cross edges
/// from every B to every D (raising the path count combinatorially).
struct ParallelChains {
  graph::Digraph g;
  std::vector<graph::NodeId> sources;
  graph::NodeId sink;
  std::vector<double> p;

  explicit ParallelChains(int chains, bool cross)
      : g(3 * chains + 1), sink(3 * chains) {
    for (int c = 0; c < chains; ++c) {
      const int ggen = c;
      const int bus = chains + c;
      const int dc = 2 * chains + c;
      sources.push_back(ggen);
      g.add_edge(ggen, bus);
      g.add_edge(bus, dc);
      g.add_edge(dc, sink);
    }
    if (cross) {
      for (int c = 0; c < chains; ++c) {
        for (int d = 0; d < chains; ++d) {
          if (c != d) g.add_edge(chains + c, 2 * chains + d);
        }
      }
    }
    p.assign(static_cast<std::size_t>(g.num_nodes()), 2e-4);
    p[static_cast<std::size_t>(sink)] = 0.0;
  }
};

void BM_Factoring(benchmark::State& state) {
  const ParallelChains arch(static_cast<int>(state.range(0)),
                            state.range(1) != 0);
  double r = 0.0;
  for (auto _ : state) {
    r = rel::failure_probability(arch.g, arch.sources, arch.sink, arch.p,
                                 rel::ExactMethod::kFactoring);
    benchmark::DoNotOptimize(r);
  }
  state.counters["failure"] = r;
}

/// Factoring through a shared EvalCache: after the first iteration every
/// pivot subproblem is resident, so this measures the memoized regime a
/// synthesis loop (many near-identical evaluations) operates in.
void BM_FactoringCached(benchmark::State& state) {
  const ParallelChains arch(static_cast<int>(state.range(0)),
                            state.range(1) != 0);
  rel::EvalCache cache;
  rel::EvalContext ctx;
  ctx.cache = &cache;
  double r = 0.0;
  for (auto _ : state) {
    r = rel::failure_probability(arch.g, arch.sources, arch.sink, arch.p,
                                 ctx, rel::ExactMethod::kFactoring);
    benchmark::DoNotOptimize(r);
  }
  state.counters["failure"] = r;
  state.counters["hit_rate"] = cache.stats().hit_rate();
}

/// BDD compilation + evaluation, cold: a fresh manager per iteration, the
/// way a synthesis loop meets each new iterate. The counters report the
/// engine state of the last iteration.
void BM_Bdd(benchmark::State& state) {
  const ParallelChains arch(static_cast<int>(state.range(0)),
                            state.range(1) != 0);
  rel::BddEvalStats stats;
  double r = 0.0;
  for (auto _ : state) {
    r = rel::bdd_failure_probability(arch.g, arch.sources, arch.sink, arch.p,
                                     g_order, &stats);
    benchmark::DoNotOptimize(r);
  }
  state.counters["failure"] = r;
  state.counters["peak_nodes"] = static_cast<double>(stats.peak_nodes);
  state.counters["final_nodes"] = static_cast<double>(stats.final_nodes);
  state.counters["computed_hit_rate"] = stats.computed_hit_rate;
}

/// kBdd through a shared EvalContext: whole-graph memoization, so every
/// iteration after the first is one canonical-key lookup.
void BM_BddCached(benchmark::State& state) {
  const ParallelChains arch(static_cast<int>(state.range(0)),
                            state.range(1) != 0);
  rel::EvalCache cache;
  rel::EvalContext ctx;
  ctx.cache = &cache;
  double r = 0.0;
  for (auto _ : state) {
    r = rel::failure_probability(arch.g, arch.sources, arch.sink, arch.p,
                                 ctx, rel::ExactMethod::kBdd);
    benchmark::DoNotOptimize(r);
  }
  state.counters["failure"] = r;
  state.counters["hit_rate"] = cache.stats().hit_rate();
}

void BM_MonteCarlo100k(benchmark::State& state) {
  const ParallelChains arch(static_cast<int>(state.range(0)),
                            state.range(1) != 0);
  Rng rng(7);
  double r = 0.0;
  for (auto _ : state) {
    r = rel::monte_carlo_failure(arch.g, arch.sources, arch.sink, arch.p,
                                 100000, rng)
            .estimate;
    benchmark::DoNotOptimize(r);
  }
  state.counters["estimate"] = r;
}

/// Sharded estimator (fixed per-shard RNG streams, see MonteCarloOptions).
void BM_MonteCarloSharded100k(benchmark::State& state) {
  const ParallelChains arch(static_cast<int>(state.range(0)),
                            state.range(1) != 0);
  rel::MonteCarloOptions opt;
  opt.samples = 100000;
  double r = 0.0;
  for (auto _ : state) {
    r = rel::monte_carlo_failure_sharded(arch.g, arch.sources, arch.sink,
                                         arch.p, opt)
            .estimate;
    benchmark::DoNotOptimize(r);
  }
  state.counters["estimate"] = r;
}

// Args: {chains, cross-edges?}. Cross edges multiply the path count:
// f = chains (disjoint) vs f = chains^2 (crossed).
BENCHMARK(BM_Factoring)
    ->Args({2, 0})->Args({4, 0})->Args({8, 0})->Args({12, 0})
    ->Args({2, 1})->Args({3, 1})->Args({4, 1})->Args({6, 1})
    ->Unit(benchmark::kMicrosecond);
// {12,0} is omitted from the cached variant: its subproblem count saturates
// the default cache capacity (stores get rejected, no payoff) and one cold
// iteration dominates the whole harness run.
BENCHMARK(BM_FactoringCached)
    ->Args({8, 0})->Args({4, 1})->Args({6, 1})
    ->Unit(benchmark::kMicrosecond);
// The BDD method rides the graph width, so the {12,0} instance that is
// omitted from the cached factoring variant is cheap here.
BENCHMARK(BM_Bdd)
    ->Args({2, 0})->Args({4, 0})->Args({8, 0})->Args({12, 0})
    ->Args({2, 1})->Args({3, 1})->Args({4, 1})->Args({6, 1})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BddCached)
    ->Args({8, 0})->Args({4, 1})->Args({6, 1})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MonteCarlo100k)
    ->Args({4, 0})->Args({4, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MonteCarloSharded100k)
    ->Args({4, 0})->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

/// Headline acceptance check: a synthesis-style workload — the largest
/// EPS-shaped instance of this harness factored `kEvals` times, the way
/// ILP-MR/Pareto re-analyze near-identical iterates — plain vs through a
/// shared EvalCache. Prints speedup, hit rate, and a bit-identity verdict.
/// Returns the measurements for the BENCH_rel.json section.
json::Object report_headline_speedup() {
  constexpr int kEvals = 8;
  const ParallelChains arch(6, /*cross=*/true);

  Stopwatch serial_watch;
  serial_watch.start();
  std::vector<double> serial;
  serial.reserve(kEvals);
  for (int i = 0; i < kEvals; ++i) {
    serial.push_back(rel::failure_probability(arch.g, arch.sources, arch.sink,
                                              arch.p,
                                              rel::ExactMethod::kFactoring));
  }
  serial_watch.stop();

  rel::EvalCache cache;
  rel::EvalContext ctx;
  ctx.cache = &cache;
  Stopwatch cached_watch;
  cached_watch.start();
  std::vector<double> cached;
  cached.reserve(kEvals);
  for (int i = 0; i < kEvals; ++i) {
    cached.push_back(rel::failure_probability(arch.g, arch.sources, arch.sink,
                                              arch.p, ctx,
                                              rel::ExactMethod::kFactoring));
  }
  cached_watch.stop();

  const bool identical = serial == cached;
  const auto stats = cache.stats();
  std::printf(
      "=== headline: %d factoring evaluations of the largest EPS-shaped "
      "instance (chains=6, crossed) ===\n"
      "plain (no cache): %.3f s\n"
      "cached: %.3f s  -> speedup %.2fx\n"
      "cache: %llu hits / %llu misses (hit rate %.1f%%), %zu entries\n"
      "cached results identical to plain: %s\n\n",
      kEvals, serial_watch.elapsed_seconds(), cached_watch.elapsed_seconds(),
      serial_watch.elapsed_seconds() /
          std::max(cached_watch.elapsed_seconds(), 1e-12),
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses), 100.0 * stats.hit_rate(),
      stats.size, identical ? "yes" : "NO (determinism contract violated)");

  json::Object out;
  out["evals"] = kEvals;
  out["serial_seconds"] = serial_watch.elapsed_seconds();
  out["cached_seconds"] = cached_watch.elapsed_seconds();
  out["cache_hit_rate"] = stats.hit_rate();
  out["bit_identical"] = identical;
  return out;
}

/// BDD acceptance + ablation report over the EPS-shaped instances: cold
/// kBdd vs cold kFactoring (one evaluation each) with their relative
/// disagreement, the BDD engine counters, and the peak-node ablation across
/// the three ordering heuristics.
json::Object report_bdd(json::Array& ablation_rows) {
  struct Instance {
    int chains;
    bool cross;
  };
  // The last entry is the harness's largest EPS-shaped instance — the one
  // the acceptance criterion (BDD at least as fast as cold factoring)
  // is checked on.
  const std::vector<Instance> instances{{2, false}, {4, false}, {8, false},
                                        {12, false}, {2, true}, {3, true},
                                        {4, true},  {6, true}};

  std::printf("=== BDD method (--order=%s): cold evaluation vs factoring, "
              "engine counters, ordering ablation ===\n"
              "%8s %6s | %12s %12s %8s %9s | %10s %10s %8s %8s | %10s %10s "
              "%10s\n",
              g_order_name, "chains", "cross", "factor (ms)", "bdd (ms)",
              "speedup", "rel err", "peak", "final", "uniq occ", "cmp hit",
              "topo peak", "bfs peak", "deg peak");

  json::Array rows;
  for (const Instance& inst : instances) {
    const ParallelChains arch(inst.chains, inst.cross);

    Stopwatch fw;
    fw.start();
    const double rf = rel::failure_probability(
        arch.g, arch.sources, arch.sink, arch.p, rel::ExactMethod::kFactoring);
    fw.stop();

    rel::BddEvalStats stats;
    Stopwatch bw;
    bw.start();
    const double rb = rel::bdd_failure_probability(
        arch.g, arch.sources, arch.sink, arch.p, g_order, &stats);
    bw.stop();

    // Ordering ablation: peak node count of each heuristic on this
    // instance (the compilation is rerun; timings above stay untouched).
    json::Object peaks;
    std::size_t peak_of[3] = {0, 0, 0};
    const rel::BddOrdering orders[3] = {rel::BddOrdering::kAuto,
                                        rel::BddOrdering::kBfsLevel,
                                        rel::BddOrdering::kDegree};
    const char* order_names[3] = {"topo", "bfs", "degree"};
    for (int k = 0; k < 3; ++k) {
      rel::BddEvalStats s;
      (void)rel::bdd_failure_probability(arch.g, arch.sources, arch.sink,
                                         arch.p, orders[k], &s);
      peak_of[k] = s.peak_nodes;
      peaks[order_names[k]] = static_cast<long long>(s.peak_nodes);
    }

    // Failures reach 1e-39 here: only the relative error shows whether the
    // two exact methods agree (abs_diff of such values is always tiny).
    const double rel_err = std::fabs(rf - rb) / rf;
    std::printf("%8d %6s | %12.3f %12.3f %8.1fx %9.2g | %10zu %10zu %8.3f "
                "%8.3f | %10zu %10zu %10zu\n",
                inst.chains, inst.cross ? "yes" : "no",
                1e3 * fw.elapsed_seconds(), 1e3 * bw.elapsed_seconds(),
                fw.elapsed_seconds() / std::max(bw.elapsed_seconds(), 1e-12),
                rel_err, stats.peak_nodes, stats.final_nodes,
                stats.unique_occupancy, stats.computed_hit_rate, peak_of[0],
                peak_of[1], peak_of[2]);

    json::Object row;
    row["chains"] = inst.chains;
    row["cross"] = inst.cross;
    row["factoring_cold_seconds"] = fw.elapsed_seconds();
    row["bdd_cold_seconds"] = bw.elapsed_seconds();
    row["abs_diff"] = std::fabs(rf - rb);
    row["rel_err"] = rel_err;
    json::Object engine;
    engine["num_vars"] = stats.num_vars;
    engine["nodes_allocated"] = static_cast<long long>(stats.peak_nodes);
    engine["final_nodes"] = static_cast<long long>(stats.final_nodes);
    engine["unique_occupancy"] = stats.unique_occupancy;
    engine["computed_hit_rate"] = stats.computed_hit_rate;
    row["bdd"] = std::move(engine);
    rows.push_back(std::move(row));

    json::Object ablation;
    ablation["chains"] = inst.chains;
    ablation["cross"] = inst.cross;
    ablation["peak_nodes"] = std::move(peaks);
    ablation_rows.push_back(std::move(ablation));
  }

  const json::Object& largest = rows.back().as_object();
  std::printf("\nlargest instance: bdd %.3f ms vs factoring %.3f ms (cold), "
              "|r_bdd - r_factoring| = %.3g, relative %.3g\n\n",
              1e3 * largest.at("bdd_cold_seconds").as_number(),
              1e3 * largest.at("factoring_cold_seconds").as_number(),
              largest.at("abs_diff").as_number(),
              largest.at("rel_err").as_number());

  json::Object out;
  out["order"] = g_order_name;
  out["instances"] = std::move(rows);
  return out;
}

}  // namespace

bool set_order(const char* name) {
  if (std::strcmp(name, "topo") == 0) {
    g_order = rel::BddOrdering::kAuto;
  } else if (std::strcmp(name, "bfs") == 0) {
    g_order = rel::BddOrdering::kBfsLevel;
  } else if (std::strcmp(name, "degree") == 0) {
    g_order = rel::BddOrdering::kDegree;
  } else {
    std::fprintf(stderr, "unknown --order '%s' (want topo, bfs, or degree)\n",
                 name);
    return false;
  }
  g_order_name = name;
  return true;
}

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--order=", 8) == 0) {
      if (!set_order(argv[i] + 8)) return 1;
    } else {
      args.push_back(argv[i]);
    }
  }

  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  json::Object section;
  section["headline"] = report_headline_speedup();
  json::Array ablation;
  section["bdd"] = report_bdd(ablation);
  section["ordering_ablation"] = std::move(ablation);
  if (!bench::write_bench_section("BENCH_rel.json", "rel_methods",
                                  json::Value(std::move(section)))) {
    std::fprintf(stderr, "warning: could not write BENCH_rel.json\n");
  } else {
    std::puts("wrote BENCH_rel.json (section rel_methods)");
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
