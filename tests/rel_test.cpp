// Tests for archex::rel: the two exact analyzers against closed forms, each
// other and the test-only oracles (exact_oracles.hpp), the plain and biased
// Monte-Carlo estimators, the approximate reliability algebra (Example 1 of
// the paper), and the Theorem-2 optimism bound.
#include <gtest/gtest.h>

#include <cmath>

#include "exact_oracles.hpp"
#include "graph/digraph.hpp"
#include "graph/partition.hpp"
#include "graph/paths.hpp"
#include "rel/approx.hpp"
#include "rel/exact.hpp"
#include "rel/monte_carlo.hpp"
#include "support/rng.hpp"

namespace archex::rel {
namespace {

using graph::Digraph;
using graph::NodeId;
using graph::Partition;

// The Exact.* edge cases pin factoring's own handling; bdd_test.cpp checks
// the same cases for the default method (BDD).
constexpr ExactMethod kFactoring = ExactMethod::kFactoring;

// ---- closed-form fixtures ---------------------------------------------------

// Series chain G -> B -> L.
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

// The architecture of Fig. 1b / Example 1: two disjoint chains
// G1->B1->D1->L and G2->B2->D2->L sharing the sink L.
// Node ids: G1=0 G2=1 B1=2 B2=3 D1=4 D2=5 L=6.
struct Example1 {
  Digraph g{7};
  Partition part{{0, 0, 1, 1, 2, 2, 3}};
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
  // r_L = p_L + (1-p_L) * {p_D + (1-p_D)[p_B + (1-p_B) p_G]}^2   (paper).
  [[nodiscard]] double closed_form() const {
    const double pg = p[0], pb = p[2], pd = p[4], pl = p[6];
    const double chain = pd + (1 - pd) * (pb + (1 - pb) * pg);
    return pl + (1 - pl) * chain * chain;
  }
};

// ---- exact methods -----------------------------------------------------------

TEST(Exact, SeriesChainMatchesClosedForm) {
  const Series s(0.1, 0.2, 0.05);
  for (ExactMethod m : {ExactMethod::kFactoring, ExactMethod::kBdd}) {
    EXPECT_NEAR(failure_probability(s.g, {0}, 2, s.p, m), s.closed_form(),
                1e-12);
  }
  EXPECT_NEAR(oracle::inclusion_exclusion_failure(s.g, {0}, 2, s.p),
              s.closed_form(), 1e-12);
  EXPECT_NEAR(*oracle::series_parallel_failure(s.g, {0}, 2, s.p),
              s.closed_form(), 1e-12);
}

TEST(Exact, Example1MatchesPaperClosedForm) {
  const Example1 e(2e-4, 2e-4, 2e-4, 0.0);
  for (ExactMethod m : {ExactMethod::kFactoring, ExactMethod::kBdd}) {
    EXPECT_NEAR(failure_probability(e.g, {0, 1}, 6, e.p, m), e.closed_form(),
                1e-15);
  }
  EXPECT_NEAR(oracle::inclusion_exclusion_failure(e.g, {0, 1}, 6, e.p),
              e.closed_form(), 1e-15);
  EXPECT_NEAR(*oracle::series_parallel_failure(e.g, {0, 1}, 6, e.p),
              e.closed_form(), 1e-15);
}

TEST(Exact, Example1LargeProbabilities) {
  const Example1 e(0.3, 0.2, 0.1, 0.05);
  const double truth = e.closed_form();
  EXPECT_NEAR(
      failure_probability(e.g, {0, 1}, 6, e.p, ExactMethod::kFactoring),
      truth, 1e-12);
  EXPECT_NEAR(oracle::inclusion_exclusion_failure(e.g, {0, 1}, 6, e.p), truth,
              1e-12);
}

TEST(Exact, SinkIsSource) {
  Digraph g(2);
  g.add_edge(0, 1);
  // Sink == the only source: fails exactly when it fails itself.
  EXPECT_NEAR(failure_probability(g, {0}, 0, {0.25, 0.5}, kFactoring), 0.25,
              1e-15);
}

TEST(Exact, DisconnectedSinkFailsCertainly) {
  Digraph g(3);
  g.add_edge(0, 1);  // node 2 isolated
  EXPECT_DOUBLE_EQ(
      failure_probability(g, {0}, 2, {0.1, 0.1, 0.1}, kFactoring), 1.0);
}

TEST(Exact, NoSourcesFailsCertainly) {
  Digraph g(2);
  g.add_edge(0, 1);
  EXPECT_DOUBLE_EQ(failure_probability(g, {}, 1, {0.0, 0.0}, kFactoring), 1.0);
}

TEST(Exact, CertainNodeFailureBreaksOnlyPath) {
  Series s(0.0, 1.0, 0.0);  // the middle node always fails
  EXPECT_DOUBLE_EQ(failure_probability(s.g, {0}, 2, s.p, kFactoring), 1.0);
}

TEST(Exact, PerfectComponentsNeverFail) {
  const Example1 e(0.0, 0.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(failure_probability(e.g, {0, 1}, 6, e.p, kFactoring), 0.0);
}

TEST(Exact, SharedMiddleNodeDominates) {
  // Two sources funnel through one bus: r = p_bus (+ terms) for p_sink = 0.
  Digraph g(4);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const std::vector<double> p{0.1, 0.1, 0.2, 0.0};
  // Fails iff bus fails or both sources fail.
  const double truth = 0.2 + 0.8 * (0.1 * 0.1);
  EXPECT_NEAR(failure_probability(g, {0, 1}, 3, p, kFactoring), truth,
              1e-12);
  EXPECT_NEAR(oracle::inclusion_exclusion_failure(g, {0, 1}, 3, p), truth,
              1e-12);
}

TEST(Exact, ValidatesInputs) {
  Digraph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW((void)failure_probability(g, {0}, 5, {0.1, 0.1}),
               PreconditionError);
  EXPECT_THROW((void)failure_probability(g, {0}, 1, {0.1}),
               PreconditionError);
  EXPECT_THROW((void)failure_probability(g, {0}, 1, {0.1, 1.5}),
               PreconditionError);
  EXPECT_THROW((void)failure_probability(g, {9}, 1, {0.1, 0.1}),
               PreconditionError);
}

TEST(Exact, WorstOverSinks) {
  // Sink 3 has a redundant feed, sink 4 a single chain: worst is sink 4.
  Digraph g(5);
  const Partition part({0, 0, 1, 2, 2});
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(2, 4);
  std::vector<double> p{0.1, 0.1, 0.0, 0.0, 0.3};
  const double worst = worst_failure_probability(g, part, {3, 4}, p);
  const double r3 = failure_probability(g, {0, 1}, 3, p);
  const double r4 = failure_probability(g, {0, 1}, 4, p);
  EXPECT_DOUBLE_EQ(worst, std::max(r3, r4));
  EXPECT_GT(r4, r3);
}

// Property: the exact methods and oracles agree on random DAGs, and Monte
// Carlo confirms within sampling error.
class ExactAgreement : public ::testing::TestWithParam<int> {};

TEST_P(ExactAgreement, MethodsAgreeOnRandomDags) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009 + 3);
  const int n = 5 + static_cast<int>(rng.next_below(5));  // 5..9 nodes
  Digraph g(n);
  // Random DAG: edges only forward in index order; ensure sink reachable.
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
  if (const auto sp = oracle::series_parallel_failure(g, sources, sink, p)) {
    EXPECT_NEAR(*sp, rf, 1e-9);
  }
  double ri = rf;
  try {
    ri = oracle::inclusion_exclusion_failure(g, sources, sink, p);
  } catch (const PreconditionError&) {
    return;  // too many paths for inclusion–exclusion; skip the cross-check
  }
  EXPECT_NEAR(rf, ri, 1e-9);

  Rng mc_rng(static_cast<std::uint64_t>(GetParam()) + 555u);
  const MonteCarloResult mc =
      monte_carlo_failure(g, sources, sink, p, 20000, mc_rng);
  EXPECT_NEAR(mc.estimate, rf, std::max(5.0 * mc.std_error, 0.01));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactAgreement, ::testing::Range(0, 30));

// ---- Monte Carlo -------------------------------------------------------------

TEST(MonteCarlo, DeterministicGivenSeed) {
  const Example1 e(0.3, 0.2, 0.1, 0.05);
  Rng a(9), b(9);
  const auto ra = monte_carlo_failure(e.g, {0, 1}, 6, e.p, 5000, a);
  const auto rb = monte_carlo_failure(e.g, {0, 1}, 6, e.p, 5000, b);
  EXPECT_DOUBLE_EQ(ra.estimate, rb.estimate);
}

TEST(MonteCarlo, MatchesExactWithinError) {
  const Example1 e(0.3, 0.2, 0.1, 0.05);
  Rng rng(123);
  const auto mc = monte_carlo_failure(e.g, {0, 1}, 6, e.p, 50000, rng);
  EXPECT_NEAR(mc.estimate, e.closed_form(), 5.0 * mc.std_error + 1e-3);
}

TEST(MonteCarlo, RejectsBadSampleCount) {
  Digraph g(1);
  Rng rng(1);
  EXPECT_THROW((void)monte_carlo_failure(g, {0}, 0, {0.1}, 0, rng),
               PreconditionError);
}

TEST(BiasedMonteCarlo, SeesRareFailuresPlainMcCannot) {
  // Two parallel chains with p = 2e-4: exact failure ~ 1.6e-7.
  Digraph g(5);
  g.add_edge(0, 2);
  g.add_edge(2, 4);
  g.add_edge(1, 3);
  g.add_edge(3, 4);
  const std::vector<double> p{2e-4, 2e-4, 2e-4, 2e-4, 0.0};
  const double exact = failure_probability(g, {0, 1}, 4, p);
  ASSERT_LT(exact, 1e-6);

  Rng plain_rng(1);
  const auto plain = monte_carlo_failure(g, {0, 1}, 4, p, 20000, plain_rng);
  EXPECT_DOUBLE_EQ(plain.estimate, 0.0);  // blind to the rare event

  Rng biased_rng(2);
  const auto biased =
      monte_carlo_failure_biased(g, {0, 1}, 4, p, 20000, biased_rng, 0.2);
  EXPECT_GT(biased.estimate, 0.0);
  EXPECT_NEAR(biased.estimate, exact, 6.0 * biased.std_error + 1e-9);
}

TEST(BiasedMonteCarlo, UnbiasedAtModerateProbabilities) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const std::vector<double> p{0.05, 0.1, 0.15, 0.02};
  const double exact = failure_probability(g, {0}, 3, p);
  Rng rng(7);
  const auto est =
      monte_carlo_failure_biased(g, {0}, 3, p, 50000, rng, 0.25);
  EXPECT_NEAR(est.estimate, exact, 6.0 * est.std_error + 1e-4);
}

TEST(BiasedMonteCarlo, ValidatesBias) {
  Digraph g(2);
  g.add_edge(0, 1);
  Rng rng(1);
  EXPECT_THROW((void)monte_carlo_failure_biased(g, {0}, 1, {0.1, 0.1}, 10,
                                                rng, 0.0),
               PreconditionError);
  EXPECT_THROW((void)monte_carlo_failure_biased(g, {0}, 1, {0.1, 0.1}, 10,
                                                rng, 1.0),
               PreconditionError);
}

// ---- approximate algebra ------------------------------------------------------

TEST(Approx, Example1FormulaFromPaper) {
  // r̃_L = p_L + 2 p_D^2 + 2 p_B^2 + 2 p_G^2 (paper, Example 1).
  const Example1 e(2e-4, 2e-4, 2e-4, 0.0);
  const std::vector<double> p_type{2e-4, 2e-4, 2e-4, 0.0};
  const ApproxResult a = approximate_failure(e.g, e.part, 6, p_type);
  const double expected = 0.0 + 2 * std::pow(2e-4, 2) * 3;
  EXPECT_NEAR(a.r_tilde, expected, 1e-18);
  EXPECT_EQ(a.num_paths, 2);
  EXPECT_EQ(a.degree, (std::vector<int>{2, 2, 2, 1}));
  EXPECT_EQ(a.num_joint_types(), 4);
}

TEST(Approx, Example1UniformSmallP) {
  // With all components failing at probability p (including the sink):
  // r̃ = p + 6p^2 while exact r = p + 9p^2 + O(p^3) (paper).
  const double p = 1e-3;
  const Example1 e(p, p, p, p);
  const std::vector<double> p_type{p, p, p, p};
  const ApproxResult a = approximate_failure(e.g, e.part, 6, p_type);
  EXPECT_NEAR(a.r_tilde, p + 6 * p * p, 1e-12);
  // r = p + 9p^2 - 27p^3 + O(p^4): allow the cubic term.
  const double exact = failure_probability(e.g, {0, 1}, 6, e.p);
  EXPECT_NEAR(exact, p + 9 * p * p, 30 * p * p * p);
  // Same order of magnitude; optimistic within the Theorem-2 bound.
  EXPECT_GE(a.r_tilde / exact, a.optimism_bound - 1e-12);
}

TEST(Approx, NonJointTypeExcluded) {
  // Two parallel paths through different middle types: neither middle type
  // jointly implements the link, so only source and sink types contribute.
  Digraph g(4);
  const Partition part({0, 1, 2, 3});  // S, X, Y, T
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const std::vector<double> p_type{0.1, 0.2, 0.3, 0.05};
  const ApproxResult a = approximate_failure(g, part, 3, p_type);
  EXPECT_TRUE(a.jointly_implements[0]);
  EXPECT_FALSE(a.jointly_implements[1]);
  EXPECT_FALSE(a.jointly_implements[2]);
  EXPECT_TRUE(a.jointly_implements[3]);
  // h_S = 1, h_T = 1: r̃ = 0.1 + 0.05.
  EXPECT_NEAR(a.r_tilde, 0.15, 1e-12);
}

TEST(Approx, AdjacentSameTypeCollapsesInReducedPath) {
  // S -> B1 -> B2 -> T with B1,B2 the same type and consecutive: the
  // reduced path keeps one B, so h_B = 1 (series doubling adds nothing).
  Digraph g(4);
  const Partition part({0, 1, 1, 2});
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  // NOTE: edge 1->2 is same-type; algebra on the raw graph treats it as a
  // serial chain. (Shorthand expansion is the caller's responsibility.)
  const std::vector<double> p_type{0.1, 0.2, 0.0};
  const ApproxResult a = approximate_failure(g, part, 3, p_type);
  EXPECT_EQ(a.degree[1], 1);
  EXPECT_NEAR(a.r_tilde, 0.1 + 0.2, 1e-12);
}

TEST(Approx, ShorthandExpansionGivesRedundancyTwo) {
  // Same graph, but after expand_same_type_shorthand the two buses become
  // parallel: h_B = 2 and the contribution drops to 2 p^2.
  Digraph g(4);
  const Partition part({0, 1, 1, 2});
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const Digraph x = graph::expand_same_type_shorthand(g, part);
  const std::vector<double> p_type{0.1, 0.2, 0.0};
  const ApproxResult a = approximate_failure(x, part, 3, p_type);
  EXPECT_EQ(a.degree[1], 2);
  EXPECT_NEAR(a.r_tilde, 0.1 + 2 * 0.2 * 0.2, 1e-12);
}

TEST(Approx, BrokenLinkReportsCertainFailure) {
  Digraph g(3);
  g.add_edge(0, 1);  // sink 2 unreachable
  const Partition part({0, 1, 2});
  const ApproxResult a = approximate_failure(g, part, 2, {0.1, 0.1, 0.1});
  EXPECT_DOUBLE_EQ(a.r_tilde, 1.0);
  EXPECT_EQ(a.num_paths, 0);
}

TEST(Approx, Theorem2BoundValue) {
  // Two paths of (reduced) length 4 each, four joint types:
  // bound = m*f/M_f = 4*2/(4*4) = 0.5.
  const Example1 e(2e-4, 2e-4, 2e-4, 2e-4);
  const auto link = graph::functional_link(e.g, e.part, 6);
  const auto reduced = graph::reduced_paths(link, e.part);
  EXPECT_NEAR(theorem2_bound(reduced, e.part), 0.5, 1e-12);
}

// Property: on random layered architectures the approximation satisfies the
// Theorem-2 bound r̃/r >= m·f/M_f and stays optimistic-but-ordered.
class ApproxBoundProperty : public ::testing::TestWithParam<int> {};

TEST_P(ApproxBoundProperty, RespectsTheorem2Bound) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 11);
  // Layered template: sources / middle / sinks with 1-3 nodes per layer.
  const int layers = 3 + static_cast<int>(rng.next_below(2));
  std::vector<int> width(static_cast<std::size_t>(layers));
  std::vector<graph::TypeId> types;
  for (int l = 0; l < layers; ++l) {
    width[static_cast<std::size_t>(l)] = 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < width[static_cast<std::size_t>(l)]; ++k) {
      types.push_back(l);
    }
  }
  const int n = static_cast<int>(types.size());
  const Partition part(types);
  Digraph g(n);
  // Connect consecutive layers densely enough to guarantee connectivity.
  int offset = 0;
  for (int l = 0; l + 1 < layers; ++l) {
    const int wl = width[static_cast<std::size_t>(l)];
    const int wn = width[static_cast<std::size_t>(l + 1)];
    for (int a = 0; a < wl; ++a) {
      for (int b = 0; b < wn; ++b) {
        if (b == a % wn || rng.next_bernoulli(0.5)) {
          g.add_edge(offset + a, offset + wl + b);
        }
      }
    }
    offset += wl;
  }
  std::vector<double> p_type(static_cast<std::size_t>(layers));
  for (auto& v : p_type) v = rng.next_double() * 0.05;
  std::vector<double> p_node(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    p_node[static_cast<std::size_t>(v)] =
        p_type[static_cast<std::size_t>(part.type_of(v))];
  }

  const NodeId sink = n - 1;
  const ApproxResult a = approximate_failure(g, part, sink, p_type);
  const double r = failure_probability(g, part.members(0), sink, p_node);
  ASSERT_GT(r, 0.0);
  EXPECT_GE(a.r_tilde / r, a.optimism_bound * (1.0 - 1e-9))
      << "r_tilde=" << a.r_tilde << " r=" << r;
  // Same order of magnitude (within two decades) for these small p.
  EXPECT_LT(a.r_tilde / r, 100.0);
  EXPECT_GT(a.r_tilde / r, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxBoundProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace archex::rel
