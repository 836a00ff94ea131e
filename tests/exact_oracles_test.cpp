// Tests for the test-only exact oracles (exact_oracles.hpp) against the
// library's two exact methods: series-parallel reduction must agree with
// factoring and BDD wherever it fully reduces, and report the graphs it
// cannot reduce instead of guessing.
#include <gtest/gtest.h>

#include <optional>

#include "exact_oracles.hpp"
#include "graph/digraph.hpp"
#include "rel/exact.hpp"
#include "support/rng.hpp"

namespace archex::rel {
namespace {

using graph::Digraph;
using graph::NodeId;
using oracle::inclusion_exclusion_failure;
using oracle::series_parallel_failure;

constexpr ExactMethod kFactoring = ExactMethod::kFactoring;
constexpr ExactMethod kBdd = ExactMethod::kBdd;

TEST(SeriesParallel, SeriesChainMatchesFactoring) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const std::vector<double> p{0.1, 0.2, 0.05};
  const auto sp = series_parallel_failure(g, {0}, 2, p);
  ASSERT_TRUE(sp.has_value());
  EXPECT_NEAR(*sp, failure_probability(g, {0}, 2, p, kFactoring), 1e-12);
  EXPECT_NEAR(*sp, failure_probability(g, {0}, 2, p, kBdd), 1e-12);
}

TEST(SeriesParallel, ParallelChainsMatchFactoring) {
  // Example-1 topology: two disjoint G->B->D->L chains.
  Digraph g(7);
  g.add_edge(0, 2);
  g.add_edge(2, 4);
  g.add_edge(4, 6);
  g.add_edge(1, 3);
  g.add_edge(3, 5);
  g.add_edge(5, 6);
  const std::vector<double> p{0.1, 0.1, 0.2, 0.2, 0.15, 0.15, 0.05};
  const auto sp = series_parallel_failure(g, {0, 1}, 6, p);
  ASSERT_TRUE(sp.has_value());
  EXPECT_NEAR(*sp, failure_probability(g, {0, 1}, 6, p, kFactoring), 1e-12);
  EXPECT_NEAR(*sp, failure_probability(g, {0, 1}, 6, p, kBdd), 1e-12);
  EXPECT_NEAR(*sp, inclusion_exclusion_failure(g, {0, 1}, 6, p), 1e-12);
}

TEST(SeriesParallel, DisconnectedSinkIsCertainFailure) {
  Digraph g(3);
  g.add_edge(0, 1);
  const auto sp = series_parallel_failure(g, {0}, 2, {0.1, 0.1, 0.1});
  ASSERT_TRUE(sp.has_value());
  EXPECT_DOUBLE_EQ(*sp, 1.0);
}

TEST(SeriesParallel, WheatstoneBridgeIsIrreducible) {
  // s -> a, s -> b, a -> c, b -> c (the "bridge" a -> b makes it non-SP).
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(1, 2);  // the bridge
  g.add_edge(3, 4);
  const std::vector<double> p{0.1, 0.1, 0.1, 0.1, 0.0};
  EXPECT_FALSE(series_parallel_failure(g, {0}, 4, p).has_value());
  // Both production methods still handle it, of course.
  const double rf = failure_probability(g, {0}, 4, p, kFactoring);
  EXPECT_GT(rf, 0.0);
  EXPECT_NEAR(failure_probability(g, {0}, 4, p, kBdd), rf, 1e-12);
}

// Property: wherever the reduction succeeds, it must equal both production
// methods.
class SpAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SpAgreement, MatchesFactoringWhenReducible) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2063 + 29);
  const int n = 5 + static_cast<int>(rng.next_below(5));
  Digraph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.next_bernoulli(0.35)) g.add_edge(u, v);
    }
  }
  std::vector<double> p(static_cast<std::size_t>(n));
  for (auto& q : p) q = rng.next_double() * 0.5;
  const std::vector<NodeId> sources{0, 1};
  const NodeId sink = n - 1;
  const auto sp = series_parallel_failure(g, sources, sink, p);
  if (!sp) return;  // irreducible instance: nothing to check
  EXPECT_NEAR(*sp, failure_probability(g, sources, sink, p, kFactoring), 1e-9);
  EXPECT_NEAR(*sp, failure_probability(g, sources, sink, p, kBdd), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpAgreement, ::testing::Range(0, 40));

}  // namespace
}  // namespace archex::rel
