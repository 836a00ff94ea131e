// Tests for the ROBDD subsystem: the BddManager engine itself (hash-consing
// canonicity, ite rules, restrict, probability sweep, counters), the
// rel::ExactMethod::kBdd analyzer against closed forms, factoring and the
// test-only inclusion–exclusion oracle (exact_oracles.hpp) on randomized DAGs
// and general digraphs, the variable-ordering
// heuristics, relative precision of failures far below 1e-16, the
// whole-graph EvalCache interaction (including the first-writer-wins
// contract across methods), and the EvalContext deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/configuration.hpp"
#include "eps/eps_template.hpp"
#include "exact_oracles.hpp"
#include "graph/digraph.hpp"
#include "rel/bdd_method.hpp"
#include "rel/eval_cache.hpp"
#include "rel/exact.hpp"
#include "rel/monte_carlo.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace archex::rel {
namespace {

using bdd::BddManager;
using bdd::BddStats;
using bdd::Ref;
using graph::Digraph;
using graph::NodeId;

// ---- fixtures ---------------------------------------------------------------

/// |actual - expected| <= tol * |expected|. Failures reach 1e-24 here, so an
/// absolute tolerance such as 1e-12 would accept any answer at all.
::testing::AssertionResult rel_near(double actual, double expected,
                                    double tol) {
  const double err = std::abs(actual - expected);
  if (err <= tol * std::abs(expected)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << actual << " vs " << expected << ": relative error "
         << err / std::abs(expected) << " > " << tol;
}

// Series chain G -> B -> L (closed form mirrors rel_test.cpp).
struct Series {
  Digraph g{3};
  std::vector<double> p;
  Series(double pg, double pb, double pl) : p{pg, pb, pl} {
    g.add_edge(0, 1);
    g.add_edge(1, 2);
  }
  [[nodiscard]] double closed_form() const {
    return 1.0 - (1.0 - p[0]) * (1.0 - p[1]) * (1.0 - p[2]);
  }
};

// Fig. 1b / Example 1: two disjoint chains sharing the sink L.
// Node ids: G1=0 G2=1 B1=2 B2=3 D1=4 D2=5 L=6.
struct Example1 {
  Digraph g{7};
  std::vector<double> p;
  Example1(double pg, double pb, double pd, double pl)
      : p{pg, pg, pb, pb, pd, pd, pl} {
    g.add_edge(0, 2);
    g.add_edge(2, 4);
    g.add_edge(4, 6);
    g.add_edge(1, 3);
    g.add_edge(3, 5);
    g.add_edge(5, 6);
  }
  [[nodiscard]] double closed_form() const {
    const double pg = p[0], pb = p[2], pd = p[4], pl = p[6];
    const double chain = pd + (1 - pd) * (pb + (1 - pb) * pg);
    return pl + (1 - pl) * chain * chain;
  }
};

/// side x side directed grid (edges right and down), source at the top-left
/// corner, sink at the bottom-right. Treewidth `side`: not series-parallel
/// reducible and adversarial for factoring, which makes it the
/// deadline-test workload; the BDD method handles it comfortably.
Digraph make_grid(int side) {
  Digraph g(side * side);
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      const NodeId v = r * side + c;
      if (c + 1 < side) g.add_edge(v, v + 1);
      if (r + 1 < side) g.add_edge(v, v + side);
    }
  }
  return g;
}

// ---- BddManager engine ------------------------------------------------------

TEST(BddManager, TerminalIteRules) {
  BddManager mgr(2);
  const Ref x = mgr.var(0);
  const Ref y = mgr.var(1);
  EXPECT_EQ(mgr.ite(BddManager::kTrue, x, y), x);
  EXPECT_EQ(mgr.ite(BddManager::kFalse, x, y), y);
  EXPECT_EQ(mgr.ite(x, y, y), y);
  EXPECT_EQ(mgr.ite(x, BddManager::kTrue, BddManager::kFalse), x);
  EXPECT_EQ(mgr.bdd_and(x, BddManager::kTrue), x);
  EXPECT_EQ(mgr.bdd_or(x, BddManager::kFalse), x);
  EXPECT_EQ(mgr.bdd_not(mgr.bdd_not(x)), x);
}

TEST(BddManager, HashConsingMakesEqualFunctionsEqualRefs) {
  BddManager mgr(2);
  const Ref f = mgr.bdd_or(mgr.var(0), mgr.var(1));
  // De Morgan: !(!x & !y) must reach the very same node.
  const Ref g = mgr.bdd_not(
      mgr.bdd_and(mgr.bdd_not(mgr.var(0)), mgr.bdd_not(mgr.var(1))));
  EXPECT_EQ(f, g);
  // Commuted operands: canonicity again forces one node.
  EXPECT_EQ(mgr.bdd_and(mgr.var(0), mgr.var(1)),
            mgr.bdd_and(mgr.var(1), mgr.var(0)));
  EXPECT_GT(mgr.stats().unique_hits, 0u);
}

TEST(BddManager, RestrictComputesCofactors) {
  BddManager mgr(3);
  // f = (x0 & x1) | x2.
  const Ref f = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(1)), mgr.var(2));
  EXPECT_EQ(mgr.restrict(f, 0, true), mgr.bdd_or(mgr.var(1), mgr.var(2)));
  EXPECT_EQ(mgr.restrict(f, 0, false), mgr.var(2));
  EXPECT_EQ(mgr.restrict(f, 2, true), BddManager::kTrue);
  EXPECT_EQ(mgr.restrict(f, 2, false), mgr.bdd_and(mgr.var(0), mgr.var(1)));
  EXPECT_EQ(mgr.restrict(mgr.var(0), 0, true), BddManager::kTrue);
  EXPECT_EQ(mgr.restrict(mgr.var(0), 0, false), BddManager::kFalse);
}

TEST(BddManager, ProbFalseMatchesHandComputation) {
  BddManager mgr(3);
  // P[x0 = 0] = 0.7, P[x1 = 0] = 0.5, P[x2 = 0] = 0.8.
  const std::vector<double> p{0.7, 0.5, 0.8};
  EXPECT_DOUBLE_EQ(mgr.prob_false(BddManager::kTrue, p), 0.0);
  EXPECT_DOUBLE_EQ(mgr.prob_false(BddManager::kFalse, p), 1.0);
  // P[x0 & x1 = 0] = 1 - 0.3 * 0.5.
  const Ref a = mgr.bdd_and(mgr.var(0), mgr.var(1));
  EXPECT_NEAR(mgr.prob_false(a, p), 0.85, 1e-15);
  // P[x0 | x1 = 0] = 0.7 * 0.5.
  const Ref o = mgr.bdd_or(mgr.var(0), mgr.var(1));
  EXPECT_NEAR(mgr.prob_false(o, p), 0.35, 1e-15);
  // P[(x0 & x1) | x2 = 0] = P[x2 = 0] P[x0 & x1 = 0] = 0.8 * 0.85.
  const Ref f = mgr.bdd_or(a, mgr.var(2));
  EXPECT_NEAR(mgr.prob_false(f, p), 0.68, 1e-15);
}

TEST(BddManager, ProbFalseKeepsRelativePrecisionNearZero) {
  // x0 | x1 | x2 is false only when all three are: 1e-8^3 = 1e-24, far
  // below the 1e-16 where 1 - P[f = 1] would cancel to 0.
  BddManager mgr(3);
  const Ref f = mgr.bdd_or(mgr.bdd_or(mgr.var(0), mgr.var(1)), mgr.var(2));
  const double r = mgr.prob_false(f, std::vector<double>(3, 1e-8));
  EXPECT_NEAR(r, 1e-24, 1e-36);
}

TEST(BddManager, StatsCountConsingAndComputedTraffic) {
  BddManager mgr(2);
  const Ref a = mgr.bdd_and(mgr.var(0), mgr.var(1));
  const std::uint64_t lookups_before = mgr.stats().computed_lookups;
  const Ref b = mgr.bdd_and(mgr.var(0), mgr.var(1));
  EXPECT_EQ(a, b);
  const BddStats& s = mgr.stats();
  // x0, x1, and the conjunction: three decision nodes plus two terminals.
  EXPECT_EQ(s.unique_entries, static_cast<std::size_t>(3));
  EXPECT_EQ(s.nodes_allocated, static_cast<std::size_t>(5));
  EXPECT_GT(s.computed_lookups, lookups_before);
  EXPECT_GT(s.computed_hits, 0u);  // the repeated ite is a computed-table hit
  EXPECT_GT(s.unique_occupancy(), 0.0);
  EXPECT_GE(s.computed_hit_rate(), 0.0);
  EXPECT_LE(s.computed_hit_rate(), 1.0);
}

TEST(BddManager, ParityIsCanonicalAndTableLoadStaysBounded) {
  // Parity of n variables has exactly 2n - 1 decision nodes in the ROBDD; a
  // wrong reduction or consing bug inflates the count immediately.
  BddManager mgr(16);
  Ref f = BddManager::kFalse;
  for (int i = 0; i < 16; ++i) f = mgr.ite(mgr.var(i), mgr.bdd_not(f), f);
  EXPECT_EQ(mgr.num_nodes(f), static_cast<std::size_t>(31));
  const BddStats& s = mgr.stats();
  EXPECT_GE(s.unique_buckets, s.unique_entries);  // rehash keeps load <= 1
  EXPECT_NEAR(mgr.prob_false(f, std::vector<double>(16, 0.5)), 0.5, 1e-15);
}

TEST(BddManager, NumNodesCountsDecisionNodesOnly) {
  BddManager mgr(2);
  EXPECT_EQ(mgr.num_nodes(BddManager::kTrue), static_cast<std::size_t>(0));
  EXPECT_EQ(mgr.num_nodes(mgr.var(0)), static_cast<std::size_t>(1));
  EXPECT_EQ(mgr.num_nodes(mgr.bdd_and(mgr.var(0), mgr.var(1))),
            static_cast<std::size_t>(2));
}

// ---- kBdd against closed forms ----------------------------------------------

TEST(BddMethod, SeriesChainMatchesClosedForm) {
  const Series s(0.1, 0.2, 0.05);
  EXPECT_NEAR(failure_probability(s.g, {0}, 2, s.p, ExactMethod::kBdd),
              s.closed_form(), 1e-15);
}

TEST(BddMethod, Example1MatchesPaperClosedForm) {
  const Example1 small(2e-4, 2e-4, 2e-4, 0.0);
  EXPECT_NEAR(failure_probability(small.g, {0, 1}, 6, small.p,
                                  ExactMethod::kBdd),
              small.closed_form(), 1e-15);
  const Example1 large(0.3, 0.2, 0.1, 0.05);
  EXPECT_NEAR(failure_probability(large.g, {0, 1}, 6, large.p,
                                  ExactMethod::kBdd),
              large.closed_form(), 1e-12);
}

TEST(BddMethod, EdgeCasesMatchFactoringSemantics) {
  // Sink == the only source: fails exactly when it fails itself.
  Digraph chain(2);
  chain.add_edge(0, 1);
  EXPECT_NEAR(failure_probability(chain, {0}, 0, {0.25, 0.5},
                                  ExactMethod::kBdd),
              0.25, 1e-15);
  // Unreachable sink: certain failure.
  Digraph split(3);
  split.add_edge(0, 1);
  EXPECT_DOUBLE_EQ(failure_probability(split, {0}, 2, {0.1, 0.1, 0.1},
                                       ExactMethod::kBdd),
                   1.0);
  // No sources: certain failure.
  EXPECT_DOUBLE_EQ(failure_probability(chain, {}, 1, {0.0, 0.0},
                                       ExactMethod::kBdd),
                   1.0);
  // A p = 1 node on the only path: certain failure.
  const Series cut(0.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(failure_probability(cut.g, {0}, 2, cut.p,
                                       ExactMethod::kBdd),
                   1.0);
  // All components perfect: zero failure.
  const Example1 perfect(0.0, 0.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(failure_probability(perfect.g, {0, 1}, 6, perfect.p,
                                       ExactMethod::kBdd),
                   0.0);
}

TEST(BddMethod, ValidatesInputs) {
  Digraph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW((void)failure_probability(g, {0}, 5, {0.1, 0.1},
                                         ExactMethod::kBdd),
               PreconditionError);
  EXPECT_THROW((void)failure_probability(g, {0}, 1, {0.1}, ExactMethod::kBdd),
               PreconditionError);
  EXPECT_THROW((void)failure_probability(g, {0}, 1, {0.1, 1.5},
                                         ExactMethod::kBdd),
               PreconditionError);
  EXPECT_THROW((void)failure_probability(g, {9}, 1, {0.1, 0.1},
                                         ExactMethod::kBdd),
               PreconditionError);
}

TEST(BddMethod, GridMatchesFactoring) {
  const Digraph g = make_grid(4);
  const std::vector<double> p(16, 0.2);
  const double rf = failure_probability(g, {0}, 15, p,
                                        ExactMethod::kFactoring);
  EXPECT_NEAR(failure_probability(g, {0}, 15, p, ExactMethod::kBdd), rf,
              1e-12);
}

TEST(BddMethod, WorstOverSinksSupportsBdd) {
  Digraph g(5);
  const graph::Partition part({0, 0, 1, 2, 2});
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(2, 4);
  const std::vector<double> p{0.1, 0.1, 0.0, 0.0, 0.3};
  EXPECT_DOUBLE_EQ(
      worst_failure_probability(g, part, {3, 4}, p, ExactMethod::kBdd),
      worst_failure_probability(g, part, {3, 4}, p, ExactMethod::kFactoring));
}

TEST(BddMethod, StatsReportEngineCounters) {
  const Example1 e(0.3, 0.2, 0.1, 0.05);
  BddEvalStats stats;
  const double r = bdd_failure_probability(e.g, {0, 1}, 6, e.p,
                                           BddOrdering::kAuto, &stats);
  EXPECT_NEAR(r, e.closed_form(), 1e-12);
  EXPECT_EQ(stats.num_vars, 7);  // every node fallible -> one var each
  EXPECT_GE(stats.fixpoint_rounds, 1);
  EXPECT_LE(stats.fixpoint_rounds, 8);
  EXPECT_GT(stats.final_nodes, 0u);
  EXPECT_GE(stats.peak_nodes, stats.final_nodes);
  EXPECT_GT(stats.unique_entries, 0u);
  EXPECT_GT(stats.computed_lookups, 0u);
  EXPECT_GE(stats.computed_hit_rate, 0.0);
  EXPECT_LE(stats.computed_hit_rate, 1.0);
}

TEST(BddMethod, PerfectlyReliableNodesConsumeNoVariable) {
  const Example1 e(2e-4, 2e-4, 2e-4, 0.0);  // the sink never fails
  BddEvalStats stats;
  (void)bdd_failure_probability(e.g, {0, 1}, 6, e.p, BddOrdering::kAuto,
                                &stats);
  EXPECT_EQ(stats.num_vars, 6);
}

// ---- relative precision near zero ------------------------------------------
//
// Architectures that meet tight targets fail with probabilities far below
// 1e-16, where computing 1 - P[connected] cancels to 0 or to a value several
// percent off. Both exact methods must hold relative precision there.

TEST(BddPrecision, DisjointChainsMatchClosedFormNearZero) {
  // k disjoint chains of `len` nodes with p = 1e-6 into a perfect sink: the
  // sink is cut off iff every chain is, so failure = q^k with
  // q = 1 - (1 - p)^len — 1e-24 for k = 4, len = 1.
  const double p_node = 1e-6;
  for (int k = 2; k <= 4; ++k) {
    for (int len : {1, 3}) {
      const NodeId sink = k * len;
      Digraph g(sink + 1);
      std::vector<NodeId> sources;
      for (int c = 0; c < k; ++c) {
        const NodeId head = c * len;
        sources.push_back(head);
        for (int j = 0; j + 1 < len; ++j) g.add_edge(head + j, head + j + 1);
        g.add_edge(head + len - 1, sink);
      }
      std::vector<double> p(static_cast<std::size_t>(sink + 1), p_node);
      p.back() = 0.0;
      const double q = -std::expm1(len * std::log1p(-p_node));
      const double expected = std::pow(q, k);
      for (ExactMethod m : {ExactMethod::kBdd, ExactMethod::kFactoring}) {
        EXPECT_TRUE(rel_near(failure_probability(g, sources, sink, p, m),
                             expected, 1e-12))
            << to_string(m) << " k=" << k << " len=" << len;
      }
    }
  }
}

TEST(BddPrecision, EpsRandomSubsetsMatchFactoringRelatively) {
  // Seeded EPS g4-g6 architectures keeping each candidate edge with a
  // probability drawn from [0.4, 1): the shapes the analyze benchmark
  // evaluates, with worst-sink failures down to about 1e-22.
  double smallest = 1.0;
  for (int generators : {4, 5, 6}) {
    eps::EpsSpec spec;
    spec.num_generators = generators;
    const core::Template tmpl = eps::make_eps_template(spec).tmpl;
    Rng rng(static_cast<std::uint64_t>(generators) * 104729 + 11);
    for (int arch = 0; arch < 3; ++arch) {
      const double keep = 0.4 + 0.6 * rng.next_double();
      std::vector<bool> selection;
      for (int e = 0; e < tmpl.num_candidate_edges(); ++e) {
        selection.push_back(rng.next_bernoulli(keep));
      }
      const core::Configuration config(tmpl, selection);
      for (NodeId sink : tmpl.sinks()) {
        EvalCache cache;
        EvalContext ctx;
        ctx.cache = &cache;
        const double rf =
            config.failure_probability(sink, ctx, ExactMethod::kFactoring);
        const double rb = config.failure_probability(sink, ExactMethod::kBdd);
        EXPECT_TRUE(rel_near(rb, rf, 1e-12))
            << "g" << generators << " arch " << arch << " sink " << sink;
        if (rf > 0.0) smallest = std::min(smallest, rf);
      }
    }
  }
  // The seeds must reach the regime where 1 - P[connected] cancels.
  EXPECT_LT(smallest, 1e-16);
}

// ---- variable orderings -----------------------------------------------------

TEST(BddOrder, TopologicalOrderRespectsEdges) {
  const Example1 e(0.3, 0.2, 0.1, 0.05);
  const std::vector<NodeId> order =
      bdd_variable_order(e.g, {0, 1}, 6, BddOrdering::kAuto);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(7));
  std::vector<int> pos(7, -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  for (NodeId u = 0; u < e.g.num_nodes(); ++u) {
    EXPECT_GE(pos[static_cast<std::size_t>(u)], 0);  // a permutation
    for (NodeId v : e.g.successors(u)) {
      EXPECT_LT(pos[static_cast<std::size_t>(u)],
                pos[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(BddOrder, CyclicGraphFallsBackToBfsLevels) {
  Digraph g(3);  // 0 -> 1 -> 2 -> 0: no topological order exists
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_EQ(bdd_variable_order(g, {0}, 2, BddOrdering::kAuto),
            bdd_variable_order(g, {0}, 2, BddOrdering::kBfsLevel));
}

TEST(BddOrder, DegreeOrderPutsHubsFirst) {
  Digraph g(4);  // star into node 3
  g.add_edge(0, 3);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const std::vector<NodeId> order =
      bdd_variable_order(g, {0, 1, 2}, 3, BddOrdering::kDegree);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(4));
  EXPECT_EQ(order[0], 3);  // degree 3 beats the leaves
}

TEST(BddOrder, IrrelevantNodesAreExcluded) {
  // Node 7 is isolated and node 8 dead-ends away from the sink: neither can
  // influence connectivity, so neither gets a branch position.
  Example1 e(0.3, 0.2, 0.1, 0.05);
  Digraph g(9);
  for (NodeId u = 0; u < e.g.num_nodes(); ++u) {
    for (NodeId v : e.g.successors(u)) g.add_edge(u, v);
  }
  g.add_edge(0, 8);
  for (BddOrdering ord : {BddOrdering::kAuto, BddOrdering::kBfsLevel,
                          BddOrdering::kDegree}) {
    const std::vector<NodeId> order = bdd_variable_order(g, {0, 1}, 6, ord);
    EXPECT_EQ(order.size(), static_cast<std::size_t>(7));
    EXPECT_EQ(std::count(order.begin(), order.end(), 7), 0);
    EXPECT_EQ(std::count(order.begin(), order.end(), 8), 0);
  }
}

TEST(BddOrder, AllOrderingsComputeTheSameProbability) {
  const Digraph g = make_grid(4);
  const std::vector<double> p(16, 0.25);
  const double rf = failure_probability(g, {0}, 15, p,
                                        ExactMethod::kFactoring);
  for (BddOrdering ord : {BddOrdering::kAuto, BddOrdering::kBfsLevel,
                          BddOrdering::kDegree}) {
    EXPECT_NEAR(bdd_failure_probability(g, {0}, 15, p, ord), rf, 1e-12);
  }
}

// ---- randomized differential suites ----------------------------------------
//
// 120 random DAGs + 120 random general digraphs (cycles allowed): kBdd must
// agree with factoring to 1e-12 everywhere, with inclusion–exclusion where
// the path count permits it, and with Monte Carlo on a subsample of seeds.

class BddDifferentialDag : public ::testing::TestWithParam<int> {};

TEST_P(BddDifferentialDag, AgreesOnRandomDags) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009 + 3);
  const int n = 5 + static_cast<int>(rng.next_below(5));  // 5..9 nodes
  Digraph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.next_bernoulli(0.4)) g.add_edge(u, v);
    }
  }
  std::vector<double> p(static_cast<std::size_t>(n));
  for (auto& v : p) v = rng.next_double() * 0.5;
  const NodeId sink = n - 1;
  const std::vector<NodeId> sources{0, 1};

  const double rf =
      failure_probability(g, sources, sink, p, ExactMethod::kFactoring);
  const double rb = failure_probability(g, sources, sink, p,
                                        ExactMethod::kBdd);
  EXPECT_NEAR(rb, rf, 1e-12);
  EXPECT_TRUE(rel_near(rb, rf, 1e-12));
  try {
    const double ri = oracle::inclusion_exclusion_failure(g, sources, sink, p);
    EXPECT_NEAR(rb, ri, 1e-9);
  } catch (const PreconditionError&) {
    // too many paths for inclusion–exclusion; factoring already cross-checks
  }
  if (GetParam() % 8 == 0) {
    Rng mc_rng(static_cast<std::uint64_t>(GetParam()) + 555u);
    const MonteCarloResult mc =
        monte_carlo_failure(g, sources, sink, p, 20000, mc_rng);
    EXPECT_NEAR(mc.estimate, rb, std::max(5.0 * mc.std_error, 0.01));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddDifferentialDag, ::testing::Range(0, 120));

class BddDifferentialDigraph : public ::testing::TestWithParam<int> {};

TEST_P(BddDifferentialDigraph, AgreesOnRandomDigraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
  const int n = 5 + static_cast<int>(rng.next_below(5));  // 5..9 nodes
  Digraph g(n);
  // Edges in both index directions: cycles are common at this density, so
  // the fixed point genuinely iterates (and the topological ordering falls
  // back to BFS levels).
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u != v && rng.next_bernoulli(0.25)) g.add_edge(u, v);
    }
  }
  std::vector<double> p(static_cast<std::size_t>(n));
  for (auto& v : p) v = rng.next_double() * 0.5;
  const NodeId sink = n - 1;
  const std::vector<NodeId> sources{0};

  const double rf =
      failure_probability(g, sources, sink, p, ExactMethod::kFactoring);
  const double rb = failure_probability(g, sources, sink, p,
                                        ExactMethod::kBdd);
  EXPECT_NEAR(rb, rf, 1e-12);
  EXPECT_TRUE(rel_near(rb, rf, 1e-12));
  if (GetParam() % 4 == 0) {
    for (BddOrdering ord : {BddOrdering::kAuto, BddOrdering::kBfsLevel,
                            BddOrdering::kDegree}) {
      const double ro = bdd_failure_probability(g, sources, sink, p, ord);
      EXPECT_NEAR(ro, rf, 1e-12);
      EXPECT_TRUE(rel_near(ro, rf, 1e-12));
    }
  }
  try {
    const double ri = oracle::inclusion_exclusion_failure(g, sources, sink, p);
    EXPECT_NEAR(rb, ri, 1e-9);
  } catch (const PreconditionError&) {
    // too many paths (or nodes) for inclusion–exclusion on this seed
  }
  if (GetParam() % 8 == 0) {
    Rng mc_rng(static_cast<std::uint64_t>(GetParam()) + 999u);
    const MonteCarloResult mc =
        monte_carlo_failure(g, sources, sink, p, 20000, mc_rng);
    EXPECT_NEAR(mc.estimate, rb, std::max(5.0 * mc.std_error, 0.01));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddDifferentialDigraph,
                         ::testing::Range(0, 120));

// ---- EvalCache interaction --------------------------------------------------

TEST(BddCache, WholeGraphResultIsMemoized) {
  const Example1 e(0.3, 0.2, 0.1, 0.05);
  EvalCache cache;
  EvalContext ctx;
  ctx.cache = &cache;
  const double first =
      failure_probability(e.g, {0, 1}, 6, e.p, ctx, ExactMethod::kBdd);
  const EvalCache::Stats after_first = cache.stats();
  EXPECT_EQ(after_first.size, static_cast<std::size_t>(1));
  EXPECT_EQ(after_first.hits, 0u);
  const double second =
      failure_probability(e.g, {0, 1}, 6, e.p, ctx, ExactMethod::kBdd);
  EXPECT_EQ(second, first);  // bit-identical: served from the cache
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(BddCache, FirstWriterWinsAcrossMethods) {
  // The kBdd whole-graph key coincides with factoring's top-level pivot key
  // by design (DESIGN.md determinism contract): whichever method runs first
  // serves the other bit-for-bit.
  const Example1 e(0.3, 0.2, 0.1, 0.05);
  EvalCache cache;
  EvalContext ctx;
  ctx.cache = &cache;
  const double rf =
      failure_probability(e.g, {0, 1}, 6, e.p, ctx, ExactMethod::kFactoring);
  const EvalCache::Stats before = cache.stats();
  const double rb =
      failure_probability(e.g, {0, 1}, 6, e.p, ctx, ExactMethod::kBdd);
  EXPECT_EQ(rb, rf);  // the factoring-written entry answered the BDD call
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
}

TEST(BddParallel, SharedCacheMixedMethodsUnderContention) {
  // Exercised under tsan: four pool workers hammer one EvalCache while
  // alternating between the BDD and factoring analyzers, with two distinct
  // problems in flight.
  const Example1 e(0.3, 0.2, 0.1, 0.05);
  const Digraph grid = make_grid(4);
  const std::vector<double> gp(16, 0.2);
  const double r_example =
      failure_probability(e.g, {0, 1}, 6, e.p, ExactMethod::kFactoring);
  const double r_grid =
      failure_probability(grid, {0}, 15, gp, ExactMethod::kFactoring);

  EvalCache cache;
  constexpr int kWorkers = 4;
  support::ThreadPool pool(kWorkers);
  std::vector<double> out(32, -1.0);
  pool.run_workers(kWorkers, [&](int w) {
    EvalContext ctx;
    ctx.cache = &cache;
    for (auto i = static_cast<std::size_t>(w); i < out.size(); i += kWorkers) {
      const ExactMethod method =
          (i % 2 == 0) ? ExactMethod::kBdd : ExactMethod::kFactoring;
      if (i % 4 < 2) {
        out[i] = failure_probability(e.g, {0, 1}, 6, e.p, ctx, method);
      } else {
        out[i] = failure_probability(grid, {0}, 15, gp, ctx, method);
      }
    }
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double expected = (i % 4 < 2) ? r_example : r_grid;
    EXPECT_NEAR(out[i], expected, 1e-12) << "task " << i;
  }
}

// ---- deadlines --------------------------------------------------------------

TEST(BddDeadline, ExpiredDeadlineReportsTimeLimit) {
  // An 8x8 grid: hard enough that every analyzer performs well over one
  // poll interval of work, so an already-passed deadline must trip.
  const int side = 8;
  const Digraph g = make_grid(side);
  const std::vector<double> p(static_cast<std::size_t>(side * side), 0.3);
  const NodeId sink = side * side - 1;
  EvalContext ctx;
  ctx.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  for (ExactMethod m : {ExactMethod::kFactoring, ExactMethod::kBdd}) {
    const EvalResult r = try_failure_probability(g, {0}, sink, p, ctx, m);
    EXPECT_EQ(r.status, EvalStatus::kTimeLimit) << to_string(m);
  }
}

TEST(BddDeadline, ThrowingOverloadThrowsTimeoutError) {
  const Digraph g = make_grid(8);
  const std::vector<double> p(64, 0.3);
  EvalContext ctx;
  ctx.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  EXPECT_THROW(
      (void)failure_probability(g, {0}, 63, p, ctx, ExactMethod::kBdd),
      TimeoutError);
}

TEST(BddDeadline, GenerousDeadlineCompletes) {
  const Example1 e(0.3, 0.2, 0.1, 0.05);
  EvalContext ctx;
  ctx.deadline = std::chrono::steady_clock::now() + std::chrono::minutes(10);
  for (ExactMethod m : {ExactMethod::kFactoring, ExactMethod::kBdd}) {
    const EvalResult r = try_failure_probability(e.g, {0, 1}, 6, e.p, ctx, m);
    EXPECT_EQ(r.status, EvalStatus::kOk) << to_string(m);
    EXPECT_NEAR(r.failure, e.closed_form(), 1e-12) << to_string(m);
  }
}

TEST(BddDeadline, NoDeadlineNeverTimesOut) {
  const Example1 e(0.3, 0.2, 0.1, 0.05);
  const EvalContext ctx;  // deadline defaults to nullopt
  const EvalResult r =
      try_failure_probability(e.g, {0, 1}, 6, e.p, ctx, ExactMethod::kBdd);
  EXPECT_EQ(r.status, EvalStatus::kOk);
  EXPECT_NEAR(r.failure, e.closed_form(), 1e-12);
}

// ---- method name round-trip -------------------------------------------------

TEST(BddMethod, NameRoundTrip) {
  for (ExactMethod m : {ExactMethod::kFactoring, ExactMethod::kBdd}) {
    const auto parsed = parse_exact_method(to_string(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(parse_exact_method("robdd").has_value());
  // Inclusion–exclusion and series-parallel reduction are test oracles
  // (exact_oracles.hpp), not selectable methods.
  EXPECT_FALSE(parse_exact_method("inclusion-exclusion").has_value());
  EXPECT_FALSE(parse_exact_method("series-parallel").has_value());
}

}  // namespace
}  // namespace archex::rel
