// Differential tests for the one-compilation multi-sink BDD analysis
// (rel::bdd_failure_probabilities and rel::failure_probabilities): every
// sink's failure must be bitwise equal to its own single-sink compilation
// (rel::bdd_failure_probability) on seeded random DAGs, cyclic digraphs,
// the cyclic-union / acyclic-sink fallback and EPS g4-g6 architectures, and
// the EvalCache must see exactly the hits and misses of a per-sink loop.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/configuration.hpp"
#include "eps/eps_template.hpp"
#include "graph/digraph.hpp"
#include "rel/bdd_method.hpp"
#include "rel/eval_cache.hpp"
#include "rel/exact.hpp"
#include "support/rng.hpp"

namespace archex::rel {
namespace {

using graph::Digraph;
using graph::NodeId;

::testing::AssertionResult same_bits(double actual, double expected) {
  if (std::bit_cast<std::uint64_t>(actual) ==
      std::bit_cast<std::uint64_t>(expected)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << actual << " differs bitwise from " << expected;
}

/// Per-sink reference: one single-sink compilation each.
std::vector<double> per_sink(const Digraph& g,
                             const std::vector<NodeId>& sources,
                             const std::vector<NodeId>& sinks,
                             const std::vector<double>& p) {
  std::vector<double> out;
  for (NodeId sink : sinks) {
    out.push_back(bdd_failure_probability(g, sources, sink, p));
  }
  return out;
}

void expect_bitwise_equal(const Digraph& g,
                          const std::vector<NodeId>& sources,
                          const std::vector<NodeId>& sinks,
                          const std::vector<double>& p) {
  const std::vector<double> expected = per_sink(g, sources, sinks, p);
  const std::vector<double> shared =
      bdd_failure_probabilities(g, sources, sinks, p);
  ASSERT_EQ(shared.size(), sinks.size());
  for (std::size_t k = 0; k < sinks.size(); ++k) {
    EXPECT_TRUE(same_bits(shared[k], expected[k])) << "sink " << sinks[k];
  }
}

/// Failure probabilities in [0, 0.5), about a fifth of them exactly 0 (such
/// nodes consume no BDD variable, which shifts every later index).
std::vector<double> random_probs(Rng& rng, int n) {
  std::vector<double> p(static_cast<std::size_t>(n));
  for (auto& v : p) v = rng.next_bernoulli(0.2) ? 0.0 : rng.next_double() * 0.5;
  return p;
}

// ---- random graphs ------------------------------------------------------------

class MultiSinkDag : public ::testing::TestWithParam<int> {};

TEST_P(MultiSinkDag, BitIdenticalToPerSinkCompiles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6007 + 5);
  const int n = 8 + static_cast<int>(rng.next_below(9));  // 8..16 nodes
  Digraph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.next_bernoulli(0.3)) g.add_edge(u, v);
    }
  }
  // The last four nodes are sinks; some may be cut off (failure 1).
  expect_bitwise_equal(g, {0, 1}, {n - 4, n - 3, n - 2, n - 1},
                       random_probs(rng, n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSinkDag, ::testing::Range(0, 80));

class MultiSinkDigraph : public ::testing::TestWithParam<int> {};

TEST_P(MultiSinkDigraph, BitIdenticalToPerSinkCompiles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7841 + 29);
  const int n = 7 + static_cast<int>(rng.next_below(8));  // 7..14 nodes
  Digraph g(n);
  // Edges in both index directions: the union of the relevant sets is
  // usually cyclic, and single sinks' sets sometimes are not.
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u != v && rng.next_bernoulli(0.18)) g.add_edge(u, v);
    }
  }
  expect_bitwise_equal(g, {0}, {n - 3, n - 2, n - 1}, random_probs(rng, n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSinkDigraph, ::testing::Range(0, 80));

TEST(MultiSink, CyclicUnionWithAcyclicSinkCompilesThatSinkAlone) {
  // Sink 4's relevant set {0, 1, 2, 4} is acyclic, and its topological
  // order 0 2 1 4 differs from the BFS-level order 0 1 2 4 that the cyclic
  // union (through the 5 <-> 6 loop feeding sink 7) would impose.
  Digraph g(8);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  g.add_edge(1, 4);
  g.add_edge(0, 5);
  g.add_edge(5, 6);
  g.add_edge(6, 5);
  g.add_edge(6, 7);
  g.add_edge(2, 6);
  const std::vector<NodeId> sources{0};
  const std::vector<double> p{0.1, 0.2, 0.3, 0.0, 0.15, 0.25, 0.05, 0.12};
  EXPECT_EQ(bdd_variable_order(g, sources, 4),
            (std::vector<NodeId>{0, 2, 1, 4}));
  EXPECT_EQ(bdd_variable_order(g, sources, 4, BddOrdering::kBfsLevel),
            (std::vector<NodeId>{0, 1, 2, 4}));
  expect_bitwise_equal(g, sources, {4, 7}, p);
  expect_bitwise_equal(g, sources, {7, 4, 3}, p);  // 3: no path at all
}

TEST(MultiSink, CyclicUnionFallbackKeepsBitsOnSeededGraphs) {
  // Mostly-forward random graphs with a few back edges. On these seeds one
  // sink's acyclic relevant set, compiled under the cyclic union's BFS-level
  // order instead of its own topological order, rounds differently in the
  // last bit: only the compile-alone fallback keeps them bit-identical.
  for (const std::uint64_t seed : {1983u, 13846u, 23283u, 27687u}) {
    Rng rng(seed * 31 + 7);
    const int n = 6 + static_cast<int>(rng.next_below(8));
    Digraph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.next_bernoulli(0.35)) g.add_edge(u, v);
      }
    }
    for (int k = 0; k < 2; ++k) {
      const auto u = static_cast<NodeId>(
          1 + rng.next_below(static_cast<std::uint64_t>(n - 1)));
      const auto v = static_cast<NodeId>(
          1 + rng.next_below(static_cast<std::uint64_t>(n - 1)));
      if (u > v && !g.has_edge(u, v)) g.add_edge(u, v);
    }
    std::vector<double> p(static_cast<std::size_t>(n));
    for (auto& x : p) x = rng.next_double() * 0.6;
    expect_bitwise_equal(g, {0}, {n - 2, n - 1, n - 3}, p);
  }
}

TEST(MultiSink, EdgeCases) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const std::vector<double> p{0.1, 0.2, 0.3, 0.4};
  // No sources: every sink is cut off.
  EXPECT_EQ(bdd_failure_probabilities(g, {}, {1, 2}, p),
            (std::vector<double>{1.0, 1.0}));
  // No sinks: nothing to compile.
  EXPECT_TRUE(bdd_failure_probabilities(g, {0}, {}, p).empty());
  expect_bitwise_equal(g, {0}, {3, 2, 0}, p);  // cut-off sink, source sink
  EXPECT_THROW((void)bdd_failure_probabilities(g, {0}, {4}, p),
               PreconditionError);
}

TEST(MultiSink, ExpiredDeadlineThrowsTimeoutError) {
  // 12x12 grid with both corners of the last row as sinks: enough ite work
  // that the BDD engine polls its deadline.
  const int side = 12;
  Digraph g(side * side);
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      const NodeId v = r * side + c;
      if (c + 1 < side) g.add_edge(v, v + 1);
      if (r + 1 < side) g.add_edge(v, v + side);
    }
  }
  const std::vector<double> p(static_cast<std::size_t>(side * side), 0.1);
  const std::vector<NodeId> sinks{side * side - 1, side * (side - 1)};
  EXPECT_THROW((void)bdd_failure_probabilities(
                   g, {0}, sinks, p,
                   std::chrono::steady_clock::now() - std::chrono::seconds(1)),
               TimeoutError);
}

// ---- EPS architectures and the EvalCache ----------------------------------------

struct EpsCase {
  Digraph g;
  std::vector<NodeId> sources;
  std::vector<NodeId> sinks;
  std::vector<double> p;
};

/// Seeded EPS g4-g6 architectures, each candidate edge kept with a
/// probability drawn from [0.4, 1): the analyze benchmark's shapes.
std::vector<EpsCase> eps_cases() {
  std::vector<EpsCase> out;
  for (int generators : {4, 5, 6}) {
    eps::EpsSpec spec;
    spec.num_generators = generators;
    const core::Template tmpl = eps::make_eps_template(spec).tmpl;
    Rng rng(static_cast<std::uint64_t>(generators) * 15485863 + 7);
    for (int arch = 0; arch < 4; ++arch) {
      const double keep = 0.4 + 0.6 * rng.next_double();
      std::vector<bool> selection;
      for (int e = 0; e < tmpl.num_candidate_edges(); ++e) {
        selection.push_back(rng.next_bernoulli(keep));
      }
      const core::Configuration config(tmpl, selection);
      out.push_back({config.analysis_graph(), tmpl.sources(), tmpl.sinks(),
                     tmpl.node_failure_probs()});
    }
  }
  return out;
}

/// A partition whose type 0 is exactly the case's sources.
std::vector<graph::TypeId> types_of(const EpsCase& c) {
  std::vector<graph::TypeId> types(static_cast<std::size_t>(c.g.num_nodes()),
                                   1);
  for (NodeId s : c.sources) types[static_cast<std::size_t>(s)] = 0;
  return types;
}

TEST(MultiSinkEps, BitIdenticalToPerSinkCompiles) {
  for (const EpsCase& c : eps_cases()) {
    expect_bitwise_equal(c.g, c.sources, c.sinks, c.p);
  }
}

TEST(MultiSinkEps, CacheTrafficMatchesPerSinkLoop) {
  for (const EpsCase& c : eps_cases()) {
    EvalCache loop_cache;
    EvalCache shared_cache;
    EvalContext loop_ctx;
    EvalContext shared_ctx;
    loop_ctx.cache = &loop_cache;
    shared_ctx.cache = &shared_cache;
    // Warm both caches with the first sink only, so the next pass mixes
    // hits and misses; then a cold-missing pass, then an all-hit pass.
    (void)failure_probability(c.g, c.sources, c.sinks.front(), c.p, loop_ctx);
    (void)failure_probability(c.g, c.sources, c.sinks.front(), c.p,
                              shared_ctx);
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<double> loop;
      for (NodeId sink : c.sinks) {
        loop.push_back(failure_probability(c.g, c.sources, sink, c.p,
                                           loop_ctx));
      }
      const std::vector<double> shared =
          failure_probabilities(c.g, c.sources, c.sinks, c.p, shared_ctx);
      ASSERT_EQ(shared.size(), loop.size());
      for (std::size_t k = 0; k < loop.size(); ++k) {
        EXPECT_TRUE(same_bits(shared[k], loop[k])) << "pass " << pass;
      }
      const EvalCache::Stats a = loop_cache.stats();
      const EvalCache::Stats b = shared_cache.stats();
      EXPECT_EQ(b.hits, a.hits) << "pass " << pass;
      EXPECT_EQ(b.misses, a.misses) << "pass " << pass;
      EXPECT_EQ(b.size, a.size) << "pass " << pass;
    }
  }
}

TEST(MultiSinkEps, WorstSinkIsTheFirstMaximum) {
  for (const EpsCase& c : eps_cases()) {
    const std::vector<double> each = per_sink(c.g, c.sources, c.sinks, c.p);
    std::size_t first_max = 0;
    for (std::size_t k = 1; k < each.size(); ++k) {
      if (each[k] > each[first_max]) first_max = k;
    }
    const WorstSink worst = worst_sink_failure(c.g, c.sources, c.sinks, c.p);
    EXPECT_EQ(worst.sink, c.sinks[first_max]);
    EXPECT_TRUE(same_bits(worst.failure, each[first_max]));
    EXPECT_TRUE(same_bits(
        worst_failure_probability(c.g, graph::Partition(types_of(c)), c.sinks,
                                  c.p),
        each[first_max]));
  }
  const WorstSink none = worst_sink_failure(Digraph(2), {0}, {}, {0.1, 0.1});
  EXPECT_EQ(none.sink, -1);
  EXPECT_EQ(none.failure, 0.0);
}

}  // namespace
}  // namespace archex::rel
