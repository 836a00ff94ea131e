// Tests for archex::core: template/library model, configuration semantics
// (eq. 1 cost), base-ILP constraint builders (eqs. 2-4), the decision-edge
// walk-indicator encoder, and both synthesis algorithms on a small custom
// template — including a brute-force optimality cross-check for ILP-AR.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/arch_ilp.hpp"
#include "core/arch_template.hpp"
#include "core/configuration.hpp"
#include "core/ilp_ar.hpp"
#include "core/ilp_mr.hpp"
#include "core/reach_encoder.hpp"
#include "graph/bool_matrix.hpp"
#include "ilp/solver.hpp"

namespace archex::core {
namespace {

using graph::NodeId;

// A tiny three-layer template: 2 sources, 2 middles (tied), 1 sink.
//   S1,S2 (type 0, p=0.01) -> M1,M2 (type 1, p=0.02) -> T (type 2, p=0)
// Candidate edges: every S->M, every M->T, and the tie M1<->M2.
struct Tiny {
  Template tmpl;
  NodeId s1, s2, m1, m2, t;

  explicit Tiny(double supply = 10.0, double demand = 5.0) {
    s1 = tmpl.add_component({"S1", 0, 10.0, 0.01, supply, 0.0});
    s2 = tmpl.add_component({"S2", 0, 12.0, 0.01, supply, 0.0});
    m1 = tmpl.add_component({"M1", 1, 5.0, 0.02, supply, demand});
    m2 = tmpl.add_component({"M2", 1, 6.0, 0.02, supply, demand});
    t = tmpl.add_component({"T", 2, 0.0, 0.0, 0.0, demand});
    for (NodeId s : {s1, s2}) {
      for (NodeId m : {m1, m2}) tmpl.add_candidate_edge(s, m, 1.0);
    }
    tmpl.add_candidate_edge(m1, m2, 1.0);
    tmpl.add_candidate_edge(m2, m1, 1.0);
    for (NodeId m : {m1, m2}) tmpl.add_candidate_edge(m, t, 1.0);
  }

  void base_rules(ArchitectureIlp& ilp) const {
    ilp.require_all_sinks_fed();
    // A middle feeding the sink (or a tied middle) must itself be fed.
    for (NodeId m : {m1, m2}) {
      ilp.add_conditional_predecessor_rule({t, m1, m2}, m, {s1, s2});
    }
  }

  /// base_rules() evaluated on a selected graph: the sink is fed, and a
  /// middle with any successor has a source predecessor.
  [[nodiscard]] bool base_rules_hold(const graph::Digraph& g) const {
    if (g.predecessors(t).empty()) return false;
    for (NodeId m : {m1, m2}) {
      if (g.successors(m).empty()) continue;
      bool fed_by_source = false;
      for (NodeId p : g.predecessors(m)) {
        if (p == s1 || p == s2) fed_by_source = true;
      }
      if (!fed_by_source) return false;
    }
    return true;
  }
};

// Two tied bus pairs in series, so simple paths run longer than the type
// count: S (type 0) -> A1,A2 (type 1, tie A1<->A2) -> B1,B2 (type 2, tie
// B1<->B2) -> T (type 3), with A1->B1 and A2->B2 only.
struct TieChain {
  Template tmpl;

  TieChain() {
    const NodeId s = tmpl.add_component({"S", 0, 10.0, 0.01, 10.0, 0.0});
    const NodeId a1 = tmpl.add_component({"A1", 1, 5.0, 0.02, 10.0, 1.0});
    const NodeId a2 = tmpl.add_component({"A2", 1, 5.0, 0.02, 10.0, 1.0});
    const NodeId b1 = tmpl.add_component({"B1", 2, 4.0, 0.03, 10.0, 1.0});
    const NodeId b2 = tmpl.add_component({"B2", 2, 4.0, 0.03, 10.0, 1.0});
    const NodeId t = tmpl.add_component({"T", 3, 0.0, 0.0, 0.0, 1.0});
    for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
             {s, a1}, {s, a2}, {a1, a2}, {a2, a1}, {a1, b1},
             {a2, b2}, {b1, b2}, {b2, b1}, {b1, t}, {b2, t}}) {
      tmpl.add_candidate_edge(u, v, 1.0);
    }
  }
};

/// Selection `mask` over the template's candidate edges.
std::vector<bool> edge_selection(const Template& tmpl, unsigned mask) {
  std::vector<bool> sel(static_cast<std::size_t>(tmpl.num_candidate_edges()));
  for (std::size_t k = 0; k < sel.size(); ++k) sel[k] = (mask >> k) & 1u;
  return sel;
}

/// Fixes every edge variable of `ilp` to `sel`.
void fix_edges(ArchitectureIlp& ilp, const std::vector<bool>& sel) {
  for (std::size_t k = 0; k < sel.size(); ++k) {
    ilp.model().fix(ilp.edge_var(static_cast<int>(k)), sel[k] ? 1.0 : 0.0);
  }
}

// ---- Template ----------------------------------------------------------------

TEST(Template, ValidatesComponents) {
  Template t;
  EXPECT_THROW(t.add_component({"x", -1, 1.0, 0.0, 0.0, 0.0}),
               PreconditionError);
  EXPECT_THROW(t.add_component({"x", 0, -5.0, 0.0, 0.0, 0.0}),
               PreconditionError);
  EXPECT_THROW(t.add_component({"x", 0, 1.0, 1.5, 0.0, 0.0}),
               PreconditionError);
}

TEST(Template, ValidatesCandidateEdges) {
  Tiny tiny;
  EXPECT_THROW(tiny.tmpl.add_candidate_edge(tiny.s1, tiny.s1, 1.0),
               PreconditionError);
  EXPECT_THROW(tiny.tmpl.add_candidate_edge(tiny.s1, tiny.m1, 1.0),
               PreconditionError);  // duplicate
  // Reverse of an existing pair must carry the same switch cost.
  EXPECT_THROW(tiny.tmpl.add_candidate_edge(tiny.m1, tiny.s1, 99.0),
               PreconditionError);
}

TEST(Template, PartitionAndRoles) {
  const Tiny tiny;
  EXPECT_EQ(tiny.tmpl.num_components(), 5);
  EXPECT_EQ(tiny.tmpl.num_types(), 3);
  EXPECT_EQ(tiny.tmpl.sources(), (std::vector<NodeId>{tiny.s1, tiny.s2}));
  EXPECT_EQ(tiny.tmpl.sinks(), (std::vector<NodeId>{tiny.t}));
}

TEST(Template, EdgeIndexLookup) {
  const Tiny tiny;
  EXPECT_TRUE(tiny.tmpl.edge_index(tiny.s1, tiny.m1).has_value());
  EXPECT_FALSE(tiny.tmpl.edge_index(tiny.s1, tiny.t).has_value());
}

TEST(Template, TypeFailureProbsRequireHomogeneity) {
  const Tiny tiny;
  EXPECT_EQ(tiny.tmpl.type_failure_probs(),
            (std::vector<double>{0.01, 0.02, 0.0}));
  Template bad;
  bad.add_component({"a", 0, 1.0, 0.1, 0.0, 0.0});
  bad.add_component({"b", 0, 1.0, 0.2, 0.0, 0.0});
  EXPECT_THROW((void)bad.type_failure_probs(), PreconditionError);
}

// ---- Configuration -------------------------------------------------------------

TEST(Configuration, CostFollowsEquationOne) {
  const Tiny tiny;
  // Select S1->M1, M1->T: nodes S1 (10) + M1 (5) + T (0) = 15, switches 2.
  std::vector<bool> sel(static_cast<std::size_t>(tiny.tmpl.num_candidate_edges()),
                        false);
  sel[static_cast<std::size_t>(*tiny.tmpl.edge_index(tiny.s1, tiny.m1))] = true;
  sel[static_cast<std::size_t>(*tiny.tmpl.edge_index(tiny.m1, tiny.t))] = true;
  const Configuration cfg(tiny.tmpl, sel);
  EXPECT_DOUBLE_EQ(cfg.total_cost(), 17.0);
  EXPECT_EQ(cfg.num_used_nodes(), 3);
  EXPECT_EQ(cfg.num_selected_edges(), 2);
}

TEST(Configuration, BidirectionalPairChargedOnce) {
  const Tiny tiny;
  // Both tie directions selected: one contactor charge (e_ij ∨ e_ji).
  std::vector<bool> sel(static_cast<std::size_t>(tiny.tmpl.num_candidate_edges()),
                        false);
  sel[static_cast<std::size_t>(*tiny.tmpl.edge_index(tiny.m1, tiny.m2))] = true;
  sel[static_cast<std::size_t>(*tiny.tmpl.edge_index(tiny.m2, tiny.m1))] = true;
  const Configuration cfg(tiny.tmpl, sel);
  // Nodes M1 (5) + M2 (6) + one switch (1).
  EXPECT_DOUBLE_EQ(cfg.total_cost(), 12.0);
}

TEST(Configuration, FailureProbabilityMatchesClosedForm) {
  const Tiny tiny;
  // Series S1 -> M1 -> T: failure = 1 - (1-p_S)(1-p_M)(1-p_T).
  std::vector<bool> sel(static_cast<std::size_t>(tiny.tmpl.num_candidate_edges()),
                        false);
  sel[static_cast<std::size_t>(*tiny.tmpl.edge_index(tiny.s1, tiny.m1))] = true;
  sel[static_cast<std::size_t>(*tiny.tmpl.edge_index(tiny.m1, tiny.t))] = true;
  const Configuration cfg(tiny.tmpl, sel);
  EXPECT_NEAR(cfg.failure_probability(tiny.t),
              1.0 - 0.99 * 0.98, 1e-12);
  EXPECT_NEAR(cfg.worst_failure_probability(),
              cfg.failure_probability(tiny.t), 0.0);
}

TEST(Configuration, TieExpandsToParallelPaths) {
  const Tiny tiny;
  // S1->M1, tie M1<->M2 (one direction is enough), S2->M2, M1->T, M2->T:
  // two parallel chains; approximate algebra sees h = 2 everywhere.
  std::vector<bool> sel(static_cast<std::size_t>(tiny.tmpl.num_candidate_edges()),
                        false);
  for (auto [u, v] : {std::pair{tiny.s1, tiny.m1}, {tiny.s2, tiny.m2},
                      {tiny.m1, tiny.m2}, {tiny.m1, tiny.t},
                      {tiny.m2, tiny.t}}) {
    sel[static_cast<std::size_t>(*tiny.tmpl.edge_index(u, v))] = true;
  }
  const Configuration cfg(tiny.tmpl, sel);
  const rel::ApproxResult a = cfg.approximate_failure(tiny.t);
  EXPECT_EQ(a.degree[0], 2);
  EXPECT_EQ(a.degree[1], 2);
  EXPECT_NEAR(a.r_tilde, 2 * 0.01 * 0.01 + 2 * 0.02 * 0.02 + 0.0, 1e-12);
}

TEST(Configuration, DotContainsComponentNames) {
  const Tiny tiny;
  std::vector<bool> sel(static_cast<std::size_t>(tiny.tmpl.num_candidate_edges()),
                        true);
  const std::string dot = Configuration(tiny.tmpl, sel).to_dot("tiny");
  EXPECT_NE(dot.find("S1"), std::string::npos);
  EXPECT_NE(dot.find("M2"), std::string::npos);
  EXPECT_NE(dot.find("tiny"), std::string::npos);
}

TEST(Configuration, RejectsWrongSelectionSize) {
  const Tiny tiny;
  EXPECT_THROW(Configuration(tiny.tmpl, std::vector<bool>{true}),
               PreconditionError);
}

// ---- base ILP -------------------------------------------------------------------

TEST(ArchitectureIlp, MinimalSolveUsesCheapestChain) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  tiny.base_rules(ilp);
  ilp::BranchAndBoundSolver solver;
  const auto res = solver.solve(ilp.model());
  ASSERT_TRUE(res.optimal());
  const Configuration cfg = ilp.extract(res);
  // Cheapest chain: S1 (10) + M1 (5) + 2 switches = 17.
  EXPECT_DOUBLE_EQ(cfg.total_cost(), 17.0);
  EXPECT_DOUBLE_EQ(res.objective, 17.0);
  EXPECT_TRUE(cfg.selected_graph().connects(tiny.tmpl.sources(), tiny.t));
}

TEST(ArchitectureIlp, OutDegreeRuleEnforced) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  tiny.base_rules(ilp);
  // Force S1 to feed both middles.
  ilp.add_out_degree_rule(tiny.s1, {tiny.m1, tiny.m2}, 2, 2);
  ilp::BranchAndBoundSolver solver;
  const auto res = solver.solve(ilp.model());
  ASSERT_TRUE(res.optimal());
  const Configuration cfg = ilp.extract(res);
  EXPECT_TRUE(cfg.edge_selected(*tiny.tmpl.edge_index(tiny.s1, tiny.m1)));
  EXPECT_TRUE(cfg.edge_selected(*tiny.tmpl.edge_index(tiny.s1, tiny.m2)));
}

TEST(ArchitectureIlp, ConditionalRuleForbidsUnfedFeeders) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  tiny.base_rules(ilp);
  ilp::BranchAndBoundSolver solver;
  const auto res = solver.solve(ilp.model());
  ASSERT_TRUE(res.optimal());
  const Configuration cfg = ilp.extract(res);
  const graph::Digraph g = cfg.selected_graph();
  for (NodeId m : {tiny.m1, tiny.m2}) {
    if (!g.successors(m).empty()) {
      EXPECT_FALSE(g.predecessors(m).empty())
          << "middle feeds others but is unfed";
    }
  }
}

TEST(ArchitectureIlp, BalanceRuleLimitsLoadPerSource) {
  // eq. (4) is local: a source's rating counts on every edge it powers, so
  // it must be combined with an out-degree cap (as the EPS model does) to
  // force one source per middle.
  const Tiny tiny(/*supply=*/5.0, /*demand=*/5.0);
  ArchitectureIlp ilp(tiny.tmpl);
  tiny.base_rules(ilp);
  for (NodeId m : {tiny.m1, tiny.m2}) ilp.add_balance_rule(m);
  for (NodeId s : {tiny.s1, tiny.s2}) {
    ilp.add_out_degree_rule(s, {tiny.m1, tiny.m2}, 0, 1);
  }
  // Force both middles into the sink path.
  ilp.add_in_degree_rule(tiny.t, {tiny.m1, tiny.m2}, 2, 2);
  ilp::BranchAndBoundSolver solver;
  const auto res = solver.solve(ilp.model());
  ASSERT_TRUE(res.optimal());
  const Configuration cfg = ilp.extract(res);
  // Each middle needs a 5-kW feed; with out-degree <= 1 per source, both
  // sources must appear.
  const auto used = cfg.used_nodes();
  EXPECT_TRUE(used[static_cast<std::size_t>(tiny.s1)]);
  EXPECT_TRUE(used[static_cast<std::size_t>(tiny.s2)]);
}

TEST(ArchitectureIlp, GlobalAdequacyForcesEnoughSources) {
  // Sink demand 15 > single source supply 10: adequacy needs both sources.
  const Tiny tiny(/*supply=*/10.0, /*demand=*/15.0);
  ArchitectureIlp ilp(tiny.tmpl);
  tiny.base_rules(ilp);
  ilp.add_global_power_adequacy();
  ilp::BranchAndBoundSolver solver;
  const auto res = solver.solve(ilp.model());
  ASSERT_TRUE(res.optimal());
  const Configuration cfg = ilp.extract(res);
  const auto used = cfg.used_nodes();
  EXPECT_TRUE(used[static_cast<std::size_t>(tiny.s1)]);
  EXPECT_TRUE(used[static_cast<std::size_t>(tiny.s2)]);
}

TEST(ArchitectureIlp, ExtractRequiresOptimal) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  ilp::IlpResult bogus;
  bogus.status = ilp::IlpStatus::kInfeasible;
  EXPECT_THROW((void)ilp.extract(bogus), PreconditionError);
}

// ---- reach encoder -----------------------------------------------------------

TEST(ReachEncoder, UpperOnlyForcesRealPath) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  tiny.base_rules(ilp);
  ReachEncoder enc(ilp, ReachHonesty::kUpperOnly);
  // Require two middles reach the sink within 2 hops (tie allowed).
  ilp::LinExpr count;
  count += *enc.walk_to(tiny.t, tiny.m1, 2);
  count += *enc.walk_to(tiny.t, tiny.m2, 2);
  ilp.model().add_row(std::move(count) >= 2.0);
  ilp::BranchAndBoundSolver solver;
  const auto res = solver.solve(ilp.model());
  ASSERT_TRUE(res.optimal());
  const graph::Digraph g = ilp.extract(res).selected_graph();
  // Both middles must genuinely reach the sink.
  EXPECT_TRUE(g.reaching(tiny.t)[static_cast<std::size_t>(tiny.m1)]);
  EXPECT_TRUE(g.reaching(tiny.t)[static_cast<std::size_t>(tiny.m2)]);
}

TEST(ReachEncoder, ImpossibleWalkReturnsNullopt) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  ReachEncoder enc(ilp);
  // No candidate walk from the sink back to a source.
  EXPECT_FALSE(enc.walk_to(tiny.s1, tiny.t, 4).has_value());
  // Sources are trivially connected to themselves.
  const auto v = enc.from_sources(tiny.s1, 3);
  ASSERT_TRUE(v.has_value());
}

TEST(ReachEncoder, ExactModeTracksTruth) {
  // Fix a concrete edge set; in kExact mode the indicator must equal true
  // reachability in the solved model.
  for (const bool use_tie : {false, true}) {
    const Tiny tiny;
    ArchitectureIlp ilp(tiny.tmpl);
    // Select S1->M1, M1->T, optionally tie M1->M2; everything else off.
    for (int k = 0; k < tiny.tmpl.num_candidate_edges(); ++k) {
      const auto& e = tiny.tmpl.candidate_edge(k);
      const bool on =
          (e.from == tiny.s1 && e.to == tiny.m1) ||
          (e.from == tiny.m1 && e.to == tiny.t) ||
          (use_tie && e.from == tiny.m1 && e.to == tiny.m2);
      ilp.model().fix(ilp.edge_var(k), on ? 1.0 : 0.0);
    }
    ReachEncoder enc(ilp, ReachHonesty::kExact);
    const auto m2_to_sink = enc.walk_to(tiny.t, tiny.m2, 2);
    const auto m2_from_src = enc.from_sources(tiny.m2, 2);
    ASSERT_TRUE(m2_to_sink.has_value());
    ASSERT_TRUE(m2_from_src.has_value());
    ilp::BranchAndBoundSolver solver;
    const auto res = solver.solve(ilp.model());
    ASSERT_TRUE(res.optimal());
    // With the tie M1->M2 selected, M2 is reachable from sources via
    // S1->M1->M2 but M2 has no walk to the sink (tie is one-way here).
    EXPECT_FALSE(res.value_bool(*m2_to_sink));
    EXPECT_EQ(res.value_bool(*m2_from_src), use_tie);
  }
}

void check_indicators_match_walk_truth(const Template& tmpl) {
  // For every edge selection, each kExact indicator must equal walk truth
  // on the selected graph, at every length below, at and above its cap.
  const int n = tmpl.num_components();
  const int max_len = tmpl.num_types() + 1;
  const std::vector<NodeId> sources = tmpl.sources();
  const graph::Digraph cand = tmpl.candidate_graph();
  std::vector<std::vector<bool>> reach;
  for (NodeId u = 0; u < n; ++u) reach.push_back(cand.reachable_from(u));
  const auto idx = [](NodeId v) { return static_cast<std::size_t>(v); };

  for (unsigned mask = 0; mask < (1u << tmpl.num_candidate_edges()); ++mask) {
    const std::vector<bool> sel = edge_selection(tmpl, mask);
    ArchitectureIlp ilp(tmpl);
    fix_edges(ilp, sel);
    ReachEncoder enc(ilp, ReachHonesty::kExact);
    struct Probe {
      std::optional<ilp::Var> var;
      bool truth;
    };
    std::vector<Probe> probes;
    const graph::Digraph g = Configuration(tmpl, sel).selected_graph();
    for (int len = 1; len <= max_len; ++len) {
      const graph::BoolMatrix eta = graph::walk_indicator(g, len);
      for (NodeId w = 0; w < n; ++w) {
        bool fed = false;
        for (NodeId s : sources) fed = fed || s == w || eta.get(s, w);
        probes.push_back({enc.from_sources(w, len), fed});
        for (NodeId u = 0; u < n; ++u) {
          if (u != w) probes.push_back({enc.walk_to(w, u, len), eta.get(u, w)});
        }
      }
    }
    ilp::BranchAndBoundSolver solver;
    const auto res = solver.solve(ilp.model());
    ASSERT_TRUE(res.optimal()) << "mask " << mask;
    for (const Probe& probe : probes) {
      const bool value = probe.var && res.value_bool(*probe.var);
      ASSERT_EQ(value, probe.truth) << "mask " << mask;
    }
  }

  // walk_to shares one Var from the cap c(u, t) = |{v : u ->* v ->* t}| - 1
  // on; below it, the candidate graph alone decides whether a Var exists.
  ArchitectureIlp ilp(tmpl);
  ReachEncoder enc(ilp, ReachHonesty::kExact);
  for (NodeId t = 0; t < n; ++t) {
    for (NodeId u = 0; u < n; ++u) {
      if (u == t || !reach[idx(u)][idx(t)]) continue;
      int cap = -1;
      for (NodeId v = 0; v < n; ++v) {
        cap += reach[idx(u)][idx(v)] && reach[idx(v)][idx(t)];
      }
      const auto capped = enc.walk_to(t, u, cap);
      ASSERT_TRUE(capped.has_value());
      for (int len = cap + 1; len <= cap + 3; ++len) {
        EXPECT_EQ(enc.walk_to(t, u, len)->id, capped->id);
      }
    }
  }
}

TEST(ReachEncoder, ExactIndicatorsEqualWalkTruthOnTiny) {
  check_indicators_match_walk_truth(Tiny().tmpl);
}

TEST(ReachEncoder, ExactIndicatorsEqualWalkTruthOnTieChain) {
  check_indicators_match_walk_truth(TieChain().tmpl);
}

// ---- ILP-MR -------------------------------------------------------------------

TEST(IlpMr, AchievableTargetSucceeds) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  tiny.base_rules(ilp);
  ilp::BranchAndBoundSolver solver;
  IlpMrOptions opt;
  opt.target_failure = 5e-3;  // needs redundancy: single chain is ~0.03
  const IlpMrReport rep = run_ilp_mr(ilp, solver, opt);
  ASSERT_EQ(rep.status, SynthesisStatus::kSuccess);
  ASSERT_TRUE(rep.configuration.has_value());
  EXPECT_LE(rep.failure, opt.target_failure);
  EXPECT_GE(rep.num_iterations(), 2);
  // Iteration costs must be non-decreasing (constraints only accumulate).
  for (std::size_t i = 1; i < rep.iterations.size(); ++i) {
    EXPECT_GE(rep.iterations[i].cost, rep.iterations[i - 1].cost - 1e-9);
  }
}

TEST(IlpMr, TrivialTargetStopsAtFirstIteration) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  tiny.base_rules(ilp);
  ilp::BranchAndBoundSolver solver;
  IlpMrOptions opt;
  opt.target_failure = 0.5;
  const IlpMrReport rep = run_ilp_mr(ilp, solver, opt);
  ASSERT_EQ(rep.status, SynthesisStatus::kSuccess);
  EXPECT_EQ(rep.num_iterations(), 1);
  EXPECT_DOUBLE_EQ(rep.configuration->total_cost(), 17.0);
}

TEST(IlpMr, ImpossibleTargetIsUnfeasible) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  tiny.base_rules(ilp);
  ilp::BranchAndBoundSolver solver;
  IlpMrOptions opt;
  opt.target_failure = 1e-9;  // best possible is ~ 2*(0.02)^2 ≈ 8e-4
  const IlpMrReport rep = run_ilp_mr(ilp, solver, opt);
  EXPECT_EQ(rep.status, SynthesisStatus::kUnfeasible);
}

TEST(IlpMr, LazyStrategyNeedsAtLeastAsManyIterations) {
  ilp::BranchAndBoundSolver solver;
  IlpMrOptions fast;
  fast.target_failure = 5e-3;
  IlpMrOptions lazy = fast;
  lazy.lazy_strategy = true;

  const Tiny tiny;
  ArchitectureIlp ilp_fast(tiny.tmpl);
  tiny.base_rules(ilp_fast);
  const IlpMrReport rep_fast = run_ilp_mr(ilp_fast, solver, fast);

  ArchitectureIlp ilp_lazy(tiny.tmpl);
  tiny.base_rules(ilp_lazy);
  const IlpMrReport rep_lazy = run_ilp_mr(ilp_lazy, solver, lazy);

  ASSERT_EQ(rep_fast.status, SynthesisStatus::kSuccess);
  ASSERT_EQ(rep_lazy.status, SynthesisStatus::kSuccess);
  EXPECT_GE(rep_lazy.num_iterations(), rep_fast.num_iterations());
  EXPECT_LE(rep_lazy.failure, lazy.target_failure);
}

TEST(IlpMr, ValidatesOptions) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  ilp::BranchAndBoundSolver solver;
  IlpMrOptions opt;
  opt.target_failure = 0.0;
  EXPECT_THROW((void)run_ilp_mr(ilp, solver, opt), PreconditionError);
  opt.target_failure = 1e-3;
  opt.max_iterations = 0;
  EXPECT_THROW((void)run_ilp_mr(ilp, solver, opt), PreconditionError);
}

// ---- ILP-AR -------------------------------------------------------------------

TEST(IlpAr, AchievableTargetSucceedsAndSatisfiesAlgebra) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  tiny.base_rules(ilp);
  ilp::BranchAndBoundSolver solver;
  IlpArOptions opt;
  opt.target_failure = 5e-3;
  const IlpArReport rep = run_ilp_ar(ilp, solver, opt);
  ASSERT_EQ(rep.status, SynthesisStatus::kSuccess);
  EXPECT_LE(rep.approx_failure, opt.target_failure * (1 + 1e-9));
  EXPECT_GT(rep.num_constraints, 0);
}

TEST(IlpAr, ImpossibleTargetIsUnfeasible) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  tiny.base_rules(ilp);
  ilp::BranchAndBoundSolver solver;
  IlpArOptions opt;
  opt.target_failure = 1e-9;
  EXPECT_EQ(run_ilp_ar(ilp, solver, opt).status,
            SynthesisStatus::kUnfeasible);
}

TEST(IlpAr, MatchesBruteForceOptimum) {
  // Enumerate all 2^10 configurations; the ILP-AR optimum must equal the
  // cheapest configuration that (a) satisfies the base interconnection
  // rules and (b) meets the approximate-algebra requirement.
  const Tiny tiny;
  const int ne = tiny.tmpl.num_candidate_edges();
  ASSERT_LE(ne, 16);
  const double target = 5e-3;

  double best = std::numeric_limits<double>::infinity();
  for (unsigned mask = 0; mask < (1u << ne); ++mask) {
    std::vector<bool> sel(static_cast<std::size_t>(ne));
    for (int k = 0; k < ne; ++k) sel[static_cast<std::size_t>(k)] = (mask >> k) & 1u;
    const Configuration cfg(tiny.tmpl, sel);
    if (!tiny.base_rules_hold(cfg.selected_graph())) continue;
    if (cfg.worst_approximate_failure() > target) continue;
    best = std::min(best, cfg.total_cost());
  }
  ASSERT_TRUE(std::isfinite(best));

  ArchitectureIlp ilp(tiny.tmpl);
  tiny.base_rules(ilp);
  ilp::BranchAndBoundSolver solver;
  IlpArOptions opt;
  opt.target_failure = target;
  const IlpArReport rep = run_ilp_ar(ilp, solver, opt);
  ASSERT_EQ(rep.status, SynthesisStatus::kSuccess);
  EXPECT_NEAR(rep.configuration->total_cost(), best, 1e-6);
}

/// Eq. (9) over eq. (11)'s counts, read off the selected graph: the sink is
/// fed and Σ_types k·p^k <= target, where k counts the type's members with
/// a walk from a source and one to the sink, each of length <= #types.
bool meets_eq9_by_walks(const Template& tmpl, const graph::Digraph& g,
                        double target) {
  const graph::BoolMatrix eta = graph::walk_indicator(g, tmpl.num_types());
  const auto fed = [&](NodeId w) {
    for (NodeId s : tmpl.sources()) {
      if (s == w || eta.get(s, w)) return true;
    }
    return false;
  };
  const graph::Partition part = tmpl.partition();
  const std::vector<double> p = tmpl.type_failure_probs();
  for (NodeId sink : tmpl.sinks()) {
    if (!fed(sink)) return false;
    double sum = 0.0;
    for (graph::TypeId t = 0; t < part.num_types(); ++t) {
      int k = 0;
      for (NodeId w : part.members(t)) {
        k += fed(w) && (w == sink || eta.get(w, sink));
      }
      if (k > 0) sum += k * std::pow(p[static_cast<std::size_t>(t)], k);
    }
    if (sum > target) return false;
  }
  return true;
}

TEST(IlpAr, FeasibleSetIsBaseRulesAndApproxTarget) {
  // With every edge fixed, the ILP-AR model is feasible exactly when the
  // base rules and eq. (9) over walk counts hold. Without a selected tie
  // that is the base rules and worst r̃ <= target. A selected tie M1->M2
  // makes the algebra's same-type shorthand count M2 as redundant even
  // when M2 has no walk of its own to the sink; eq. (11) does not, so
  // there the encoding is the stricter of the two.
  const Tiny tiny;
  const auto is_tie = [&](const CandidateEdge& e) {
    return tiny.tmpl.component(e.from).type == tiny.tmpl.component(e.to).type;
  };
  for (const double target : {5e-2, 5e-3, 1.5e-3}) {
    int feasible = 0;
    const unsigned masks = 1u << tiny.tmpl.num_candidate_edges();
    for (unsigned mask = 0; mask < masks; ++mask) {
      const std::vector<bool> sel = edge_selection(tiny.tmpl, mask);
      const Configuration cfg(tiny.tmpl, sel);
      const graph::Digraph g = cfg.selected_graph();
      const bool base = tiny.base_rules_hold(g);
      const bool by_algebra =
          base && cfg.worst_approximate_failure() <= target;
      bool has_tie = false;
      for (std::size_t k = 0; k < sel.size(); ++k) {
        has_tie = has_tie ||
                  (sel[k] && is_tie(tiny.tmpl.candidate_edge(
                                 static_cast<int>(k))));
      }

      ArchitectureIlp ilp(tiny.tmpl);
      tiny.base_rules(ilp);
      fix_edges(ilp, sel);
      IlpArOptions opt;
      opt.target_failure = target;
      (void)encode_ilp_ar(ilp, opt);
      ilp::BranchAndBoundSolver solver;
      const ilp::IlpResult res = solver.solve(ilp.model());
      ASSERT_TRUE(res.optimal() || res.status == ilp::IlpStatus::kInfeasible);
      const std::string where =
          "target " + std::to_string(target) + " mask " + std::to_string(mask);
      EXPECT_EQ(res.optimal(), base && meets_eq9_by_walks(tiny.tmpl, g, target))
          << where;
      if (!has_tie) {
        EXPECT_EQ(res.optimal(), by_algebra) << where;
      }
      if (res.optimal()) {
        EXPECT_TRUE(by_algebra) << where;
      }
      feasible += res.optimal();
    }
    // Each target must separate the selections.
    EXPECT_GT(feasible, 0) << "target " << target;
    EXPECT_LT(feasible, static_cast<int>(masks)) << "target " << target;
  }
}

TEST(IlpAr, ValidatesOptions) {
  const Tiny tiny;
  ArchitectureIlp ilp(tiny.tmpl);
  IlpArOptions opt;
  opt.target_failure = 1.5;
  EXPECT_THROW((void)encode_ilp_ar(ilp, opt), PreconditionError);
}

}  // namespace
}  // namespace archex::core
