// Randomized differential tests for the parallel branch & bound
// (src/ilp/branch_and_bound.cpp). Three independent implementations are
// cross-checked on seeded random 0/1 programs shaped like the rows
// ilp::Model emits for the synthesis algorithms (dense/sparse linear rows,
// Boolean OR/AND/implication linearizations, fixed variables, degenerate
// and infeasible cases):
//
//   * serial LP-based branch & bound (threads = 0, the historical path);
//   * parallel work-stealing branch & bound (1/2/4/8 threads);
//   * Balas implicit enumeration (LP-free — a genuinely different pruning
//     argument, so a shared LP bug cannot mask itself).
//
// The deterministic parallel mode is additionally required to reproduce the
// serial search bit-for-bit: same node/prune counts, same objective, same
// assignment. Golden end-to-end differentials (ILP-MR on the EPS example,
// the Pareto sweep) pin parallel synthesis results to the serial ones.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/ilp_mr.hpp"
#include "core/pareto.hpp"
#include "eps/eps_template.hpp"
#include "ilp/model.hpp"
#include "ilp/mps.hpp"
#include "ilp/solver.hpp"
#include "support/rng.hpp"

namespace archex::ilp {
namespace {

// ---- random instance generator ------------------------------------------------

/// Pick 2..max_len distinct variables out of `xs`.
std::vector<Var> pick_subset(Rng& rng, const std::vector<Var>& xs,
                             std::size_t max_len) {
  std::vector<Var> out;
  const std::size_t len =
      2 + rng.next_below(std::min(max_len, xs.size()) - 1);
  std::vector<bool> taken(xs.size(), false);
  while (out.size() < len) {
    const std::size_t j = rng.next_below(xs.size());
    if (taken[j]) continue;
    taken[j] = true;
    out.push_back(xs[j]);
  }
  return out;
}

/// A random pure-binary model: 3..12 structural variables, random linear
/// rows with right-hand sides drawn from a slightly *widened* activity range
/// (fractions in [-0.1, 1.1], so a share of instances is infeasible or
/// tightly degenerate), plus the Boolean linearization rows the synthesis
/// encoders emit. Objectives rotate through zero / integer / fractional
/// cost vectors to exercise both prune-threshold branches.
Model make_random_model(Rng& rng) {
  Model m;
  const int n = 3 + static_cast<int>(rng.next_below(10));
  std::vector<Var> xs;
  xs.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    xs.push_back(m.add_binary("x" + std::to_string(j)));
  }

  // Reference assignment z: anchors equality right-hand sides at an
  // achievable activity, so equality rows don't make nearly every instance
  // infeasible (fixed variables keep their pinned value in z).
  std::vector<double> z(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    z[static_cast<std::size_t>(j)] = rng.next_bernoulli(0.5) ? 1.0 : 0.0;
    if (rng.next_bernoulli(0.08)) m.fix(xs[static_cast<std::size_t>(j)],
                                        z[static_cast<std::size_t>(j)]);
    if (rng.next_bernoulli(0.2)) {
      m.set_branch_priority(xs[static_cast<std::size_t>(j)],
                            1 + static_cast<int>(rng.next_below(3)));
    }
  }
  const auto eval_at_z = [&](const LinExpr& e) {
    double v = e.constant();
    for (const lp::Term& t : e.terms()) {
      v += t.coef * z[static_cast<std::size_t>(t.var)];
    }
    return v;
  };

  const int rows =
      1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n + 2)));
  const bool fractional_rows = rng.next_bernoulli(0.3);
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    const double density = 0.3 + 0.6 * rng.next_double();
    for (Var v : xs) {
      if (!rng.next_bernoulli(density)) continue;
      double c = 1.0 + static_cast<double>(rng.next_below(5));
      if (fractional_rows) c += rng.next_double();
      if (rng.next_bernoulli(0.4)) c = -c;
      e.add_term(v, c);
    }
    if (e.empty()) e.add_term(xs[rng.next_below(xs.size())], 1.0);
    const auto [lo, up] = m.activity_range(e);
    const double rhs = lo + (-0.1 + 1.2 * rng.next_double()) * (up - lo);
    switch (rng.next_below(4)) {
      case 0: m.add_row(e <= rhs); break;
      case 1: m.add_row(e >= rhs); break;
      case 2:
        // Mostly satisfiable (anchored at z), sometimes a knife-edge
        // rounded value that is usually unreachable.
        m.add_row(e == (rng.next_bernoulli(0.7) ? eval_at_z(e)
                                                : std::round(rhs)));
        break;
      default: {
        const double rhs2 = lo + (-0.1 + 1.2 * rng.next_double()) * (up - lo);
        m.add_row({e, std::min(rhs, rhs2), std::max(rhs, rhs2)});
        break;
      }
    }
  }

  // Boolean linearizations, as emitted for eq. (2)/(3) and the walk
  // indicators; occasionally assert the derived variable to chain the rows
  // into the feasibility question.
  if (rng.next_bernoulli(0.5)) {
    const Var y = m.add_or(pick_subset(rng, xs, 4), "or");
    if (rng.next_bernoulli(0.5)) m.add_row(LinExpr(y) == 1.0);
  }
  if (rng.next_bernoulli(0.5)) {
    const Var y = m.add_and(pick_subset(rng, xs, 4), "and");
    if (rng.next_bernoulli(0.3)) m.add_row(LinExpr(y) == 1.0);
  }
  if (rng.next_bernoulli(0.5)) {
    const std::vector<Var> ab = pick_subset(rng, xs, 2);
    m.add_leq(ab[0], ab[1]);
  }
  if (rng.next_bernoulli(0.4)) {
    LinExpr guarded;
    for (Var v : pick_subset(rng, xs, 4)) guarded.add_term(v, 1.0);
    m.add_implication(xs[rng.next_below(xs.size())],
                      guarded >= 1.0, "imp");
  }

  LinExpr obj;
  const std::uint64_t obj_kind = rng.next_below(3);  // zero / integer / frac
  if (obj_kind != 0) {
    for (int j = 0; j < m.num_variables(); ++j) {
      double c = static_cast<double>(rng.next_below(21));
      if (obj_kind == 2) c += rng.next_double();
      if (rng.next_bernoulli(0.15)) c = -c;
      obj.add_term(Var{j}, c);
    }
    if (rng.next_bernoulli(0.3)) obj += LinExpr(7.5);
  }
  m.set_objective(obj);
  return m;
}

// ---- the differential ----------------------------------------------------------

TEST(IlpDifferential, ParallelMatchesSerialAndBalasOn240Instances) {
  Rng rng(0xd1ffe7e5717e57ULL);
  constexpr int kInstances = 240;
  constexpr int kThreadCounts[] = {1, 2, 4, 8};
  int optimal = 0;
  int infeasible = 0;

  for (int i = 0; i < kInstances; ++i) {
    const Model m = make_random_model(rng);
    ASSERT_TRUE(m.pure_binary());

    // The serial reference runs the default options, so the deterministic
    // check below pins the default search bit-for-bit.
    BranchAndBoundSolver serial;
    const IlpResult s = serial.solve(m);
    ASSERT_TRUE(s.status == IlpStatus::kOptimal ||
                s.status == IlpStatus::kInfeasible)
        << "instance " << i << ": " << to_string(s.status);

    // Balas implicit enumeration: an LP-free oracle.
    BalasSolver balas;
    const IlpResult b = balas.solve(m);
    if (s.status != b.status) {
      // Dump the disagreement for offline minimization (this caught the
      // Balas fixed-variable bug: enumeration ignored Model::fix domains).
      std::cerr << "instance " << i << " serial=" << to_string(s.status)
                << " balas=" << to_string(b.status) << "\n";
      if (b.optimal()) {
        std::cerr << "balas obj=" << b.objective
                  << " feasible=" << m.is_feasible(b.x, 1e-6) << "\n";
      }
      std::cerr << to_mps(m, "differential_" + std::to_string(i)) << "\n";
    }
    ASSERT_EQ(s.status, b.status) << "instance " << i;
    if (s.optimal()) {
      ++optimal;
      ASSERT_NEAR(s.objective, b.objective, 1e-6) << "instance " << i;
      ASSERT_TRUE(m.is_feasible(s.x, 1e-5)) << "instance " << i;
      ASSERT_TRUE(m.is_feasible(b.x, 1e-5)) << "instance " << i;
    } else {
      ++infeasible;
    }

    // Free-running parallel search, rotating through the thread counts:
    // same status and objective, feasible assignment (the assignment itself
    // may be a different equal-cost optimum).
    const int threads = kThreadCounts[i % 4];
    BranchAndBoundOptions popt;
    popt.threads = threads;
    const IlpResult p = BranchAndBoundSolver(popt).solve(m);
    ASSERT_EQ(s.status, p.status)
        << "instance " << i << " threads=" << threads;
    EXPECT_EQ(p.threads_used, threads >= 2 ? threads : 1);
    if (s.optimal()) {
      ASSERT_NEAR(s.objective, p.objective, 1e-6)
          << "instance " << i << " threads=" << threads;
      ASSERT_TRUE(m.is_feasible(p.x, 1e-5))
          << "instance " << i << " threads=" << threads;
    }

    // Deterministic 4-thread mode must reproduce the serial search
    // bit-for-bit: node ordering (hence node/prune counts), objective and
    // assignment.
    BranchAndBoundOptions dopt;
    dopt.threads = 4;
    dopt.deterministic = true;
    const IlpResult d = BranchAndBoundSolver(dopt).solve(m);
    ASSERT_EQ(s.status, d.status) << "instance " << i;
    EXPECT_EQ(s.nodes_explored, d.nodes_explored) << "instance " << i;
    EXPECT_EQ(s.nodes_pruned, d.nodes_pruned) << "instance " << i;
    if (s.optimal()) {
      EXPECT_EQ(s.objective, d.objective) << "instance " << i;
      EXPECT_EQ(s.x, d.x) << "instance " << i;
    }
  }

  // The generator must actually exercise both terminal states.
  EXPECT_GE(optimal, 50);
  EXPECT_GE(infeasible, 20);
}

TEST(IlpDifferential, SerialStatsAreUnchangedByThreadsOne) {
  // threads = 1 must take the exact serial path (no pool, no donation).
  Rng rng(0x0123456789abcdefULL);
  for (int i = 0; i < 20; ++i) {
    const Model m = make_random_model(rng);
    BranchAndBoundOptions one;
    one.threads = 1;
    const IlpResult s = BranchAndBoundSolver().solve(m);
    const IlpResult p = BranchAndBoundSolver(one).solve(m);
    EXPECT_EQ(s.status, p.status) << "instance " << i;
    EXPECT_EQ(s.nodes_explored, p.nodes_explored) << "instance " << i;
    EXPECT_EQ(p.steal_count, 0) << "instance " << i;
    EXPECT_EQ(p.threads_used, 1) << "instance " << i;
    if (s.optimal()) EXPECT_EQ(s.x, p.x) << "instance " << i;
  }
}

// ---- branching-aid differentials ----------------------------------------------

/// Pseudocost branching and reduced-cost fixing must never change *what* is
/// found, only how fast: every configuration agrees with the plain B&B on
/// status and objective, serially and at 4 threads.
TEST(IlpDifferential, BranchingAidConfigsAgreeWithPlainSearch) {
  Rng rng(0xc075a9e5eedULL);
  for (int i = 0; i < 60; ++i) {
    const Model m = make_random_model(rng);

    BranchAndBoundOptions plain;
    plain.pseudocost = false;
    plain.rc_fixing = false;
    const IlpResult base = BranchAndBoundSolver(plain).solve(m);
    ASSERT_TRUE(base.status == IlpStatus::kOptimal ||
                base.status == IlpStatus::kInfeasible)
        << "instance " << i;

    struct Config {
      const char* name;
      bool pseudocost;
      bool rc_fixing;
    };
    constexpr Config kConfigs[] = {
        {"pseudocost", true, false},
        {"pseudocost+rc-fixing", true, true},
    };
    for (const Config& cfg : kConfigs) {
      for (const int threads : {0, 4}) {
        BranchAndBoundOptions opt;
        opt.pseudocost = cfg.pseudocost;
        opt.rc_fixing = cfg.rc_fixing;
        opt.threads = threads;
        const IlpResult r = BranchAndBoundSolver(opt).solve(m);
        ASSERT_EQ(base.status, r.status)
            << "instance " << i << " config=" << cfg.name
            << " threads=" << threads;
        if (base.optimal()) {
          ASSERT_NEAR(base.objective, r.objective, 1e-6)
              << "instance " << i << " config=" << cfg.name
              << " threads=" << threads;
          ASSERT_TRUE(m.is_feasible(r.x, 1e-5))
              << "instance " << i << " config=" << cfg.name
              << " threads=" << threads;
        }
      }
    }
  }
}

/// Free-running 4-thread search on the EPS g2 synthesis ILP: workers update
/// the shared pseudocost table and publish reduced-cost fixings
/// concurrently (run under TSan via the `parallel` label). The result must
/// still be the serial optimum. The suite name predates the removal of the
/// cut layer; the shared state checked here is what branching still keeps.
TEST(CutBranch, SharedPoolAndPseudocostStateUnderFreeThreads) {
  eps::EpsSpec spec;
  spec.num_generators = 2;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);
  const core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);

  BranchAndBoundOptions plain;
  plain.pseudocost = false;
  plain.rc_fixing = false;
  const IlpResult base = BranchAndBoundSolver(plain).solve(ilp.model());
  ASSERT_TRUE(base.optimal());

  BranchAndBoundOptions opt;  // pseudocost + rc-fixing are on by default
  opt.threads = 4;
  const IlpResult r = BranchAndBoundSolver(opt).solve(ilp.model());
  ASSERT_TRUE(r.optimal());
  EXPECT_EQ(r.threads_used, 4);
  EXPECT_NEAR(base.objective, r.objective, 1e-6);
  EXPECT_TRUE(ilp.model().is_feasible(r.x, 1e-5));
  EXPECT_GE(r.rc_fixings, 0);
  EXPECT_GE(r.pseudocost_branches, 0);
}

/// The branching-aid counters reach IlpResult: a search with pseudocost
/// branching and reduced-cost fixing off reports zero for both, and finds
/// the same optimum as the default search.
TEST(CutBranch, StatsPlumbedThroughResult) {
  eps::EpsSpec spec;
  spec.num_generators = 1;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);
  const core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);

  const IlpResult r = BranchAndBoundSolver().solve(ilp.model());
  ASSERT_TRUE(r.optimal());

  BranchAndBoundOptions off;
  off.pseudocost = false;
  off.rc_fixing = false;
  const IlpResult q = BranchAndBoundSolver(off).solve(ilp.model());
  ASSERT_TRUE(q.optimal());
  EXPECT_EQ(q.rc_fixings, 0);
  EXPECT_EQ(q.pseudocost_branches, 0);
  EXPECT_NEAR(r.objective, q.objective, 1e-6);
}

// ---- conflict-learning differentials -------------------------------------------

/// Nogood learning (DESIGN.md §4g) must never change *what* is found:
/// learning-on agrees with learning-off on status and objective serially
/// and under the work-stealing search, and the deterministic 4-thread mode
/// stays bit-for-bit identical to the serial search with learning active
/// (the shared store is synced at dive boundaries, never mid-dive).
TEST(IlpDifferential, LearningAgreesWithLearningOffOn240Instances) {
  Rng rng(0x1ea5e900d5ULL);
  constexpr int kInstances = 240;
  long learned_total = 0;
  for (int i = 0; i < kInstances; ++i) {
    const Model m = make_random_model(rng);

    BranchAndBoundOptions off;
    off.learning = false;
    const IlpResult base = BranchAndBoundSolver(off).solve(m);
    ASSERT_TRUE(base.status == IlpStatus::kOptimal ||
                base.status == IlpStatus::kInfeasible)
        << "instance " << i;

    for (const int threads : {1, 4}) {
      BranchAndBoundOptions on;
      on.learning = true;
      on.threads = threads;
      const IlpResult r = BranchAndBoundSolver(on).solve(m);
      learned_total += r.nogoods_learned;
      ASSERT_EQ(base.status, r.status)
          << "instance " << i << " threads=" << threads;
      if (base.optimal()) {
        ASSERT_NEAR(base.objective, r.objective, 1e-6)
            << "instance " << i << " threads=" << threads;
        ASSERT_TRUE(m.is_feasible(r.x, 1e-5))
            << "instance " << i << " threads=" << threads;
      }
    }

    // Deterministic 4-thread with learning == serial with learning,
    // bit-for-bit (counts, objective, assignment — and the learning
    // counters themselves, since the store evolves identically).
    BranchAndBoundOptions sopt;
    sopt.learning = true;
    const IlpResult s = BranchAndBoundSolver(sopt).solve(m);
    BranchAndBoundOptions dopt = sopt;
    dopt.threads = 4;
    dopt.deterministic = true;
    const IlpResult d = BranchAndBoundSolver(dopt).solve(m);
    ASSERT_EQ(s.status, d.status) << "instance " << i;
    EXPECT_EQ(s.nodes_explored, d.nodes_explored) << "instance " << i;
    EXPECT_EQ(s.nodes_pruned, d.nodes_pruned) << "instance " << i;
    EXPECT_EQ(s.nogoods_learned, d.nogoods_learned) << "instance " << i;
    EXPECT_EQ(s.nogood_prunings, d.nogood_prunings) << "instance " << i;
    if (s.optimal()) {
      EXPECT_EQ(s.objective, d.objective) << "instance " << i;
      EXPECT_EQ(s.x, d.x) << "instance " << i;
    }
  }
  // The differential is vacuous unless conflicts were actually learned.
  EXPECT_GE(learned_total, 100);
}

// ---- reduced-cost fixing regression --------------------------------------------

/// Reduced-cost fixing is derived outside the incumbent lock from the
/// atomic bound (see try_accept_incumbent): a fixing computed against a
/// stale — higher — cutoff satisfies a harder condition, so it can never
/// cut off the optimum. Pin that on an instance where the fixing provably
/// fires: an expensive variable the root LP prices far above the gap.
TEST(IlpDifferential, RcFixingFromStaleIncumbentKeepsTheOptimum) {
  Model m;
  std::vector<Var> xs;
  for (int j = 0; j < 6; ++j) {
    xs.push_back(m.add_binary("x" + std::to_string(j)));
  }
  // 2·Σx >= 3 forces a fractional root (x = 1/2 vertex) and an integral
  // optimum of two variables; the last variable is priced so far above the
  // others that root_bound + |d| clears any reachable cutoff.
  LinExpr row;
  for (Var v : xs) row.add_term(v, 2.0);
  m.add_row(row >= 3.0);
  LinExpr obj;
  const double costs[] = {1.1, 1.2, 1.3, 1.4, 1.5, 10.0};
  for (std::size_t j = 0; j < xs.size(); ++j) obj.add_term(xs[j], costs[j]);
  m.set_objective(obj);

  BranchAndBoundOptions serial;  // rc_fixing defaults on
  const IlpResult s = BranchAndBoundSolver(serial).solve(m);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.3, 1e-9);
  EXPECT_GT(s.rc_fixings, 0);

  // The fixing must be outcome-neutral in every execution mode, including
  // the racy free-running pool where incumbents republish concurrently.
  for (const bool deterministic : {true, false}) {
    BranchAndBoundOptions popt;
    popt.threads = 4;
    popt.deterministic = deterministic;
    const IlpResult p = BranchAndBoundSolver(popt).solve(m);
    ASSERT_EQ(p.status, IlpStatus::kOptimal)
        << "deterministic=" << deterministic;
    EXPECT_NEAR(p.objective, 2.3, 1e-9)
        << "deterministic=" << deterministic;
    if (deterministic) {
      EXPECT_EQ(s.nodes_explored, p.nodes_explored);
      EXPECT_EQ(s.x, p.x);
    }
  }
}

// ---- kTimeLimit regression -----------------------------------------------------

/// A worker tripping the wall-clock limit mid-dive must surface kTimeLimit
/// as the whole solve's status even when other workers drain their subtrees
/// cleanly afterwards (the abort status is first-writer-wins). Market-split
/// instances make the tree astronomically larger than any 20 ms budget, so
/// the limit reliably fires while several workers are active.
TEST(IlpDifferential, TimeLimitFromOneWorkerIsNeverMasked) {
  Rng rng(0x7157deadbeef01ULL);
  Model m;
  constexpr int kVars = 34;
  std::vector<Var> xs;
  for (int j = 0; j < kVars; ++j) {
    xs.push_back(m.add_binary("x" + std::to_string(j)));
  }
  LinExpr obj;
  for (Var v : xs) obj.add_term(v, 1.0);
  m.set_objective(obj);
  for (int i = 0; i < 6; ++i) {
    LinExpr e;
    double sum = 0.0;
    for (Var v : xs) {
      const double c = static_cast<double>(rng.next_below(100));
      e.add_term(v, c);
      sum += c;
    }
    m.add_row(e == std::floor(sum / 2.0));
  }

  BranchAndBoundOptions opt;
  opt.threads = 4;
  opt.time_limit_seconds = 0.02;
  const IlpResult res = BranchAndBoundSolver(opt).solve(m);
  EXPECT_EQ(res.status, IlpStatus::kTimeLimit)
      << "got " << to_string(res.status);
  // The abort must also propagate promptly — workers poll the shared status
  // and the LP engines carry the same deadline.
  EXPECT_LT(res.solve_seconds, 5.0);
}

// ---- golden end-to-end differentials -------------------------------------------

TEST(GoldenParallel, EpsIlpMrMatchesSerial) {
  eps::EpsSpec spec;
  spec.num_generators = 2;
  const eps::EpsTemplate eps_tmpl = eps::make_eps_template(spec);

  const auto run = [&](int threads, bool deterministic) {
    core::ArchitectureIlp ilp = eps::make_eps_ilp(eps_tmpl);
    BranchAndBoundOptions bopt;
    bopt.threads = threads;
    bopt.deterministic = deterministic;
    BranchAndBoundSolver solver(bopt);
    core::IlpMrOptions opt;
    opt.target_failure = 1e-6;
    return core::run_ilp_mr(ilp, solver, opt);
  };

  const core::IlpMrReport serial = run(0, false);
  ASSERT_EQ(serial.status, core::SynthesisStatus::kSuccess);

  // Deterministic 4-thread runs are bit-identical end to end: the same
  // iterates, the same learned constraints, the same final architecture.
  const core::IlpMrReport det4 = run(4, true);
  ASSERT_EQ(det4.status, core::SynthesisStatus::kSuccess);
  EXPECT_EQ(serial.num_iterations(), det4.num_iterations());
  for (int i = 0; i < std::min(serial.num_iterations(), det4.num_iterations());
       ++i) {
    const auto& a = serial.iterations[static_cast<std::size_t>(i)];
    const auto& b = det4.iterations[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.cost, b.cost) << "iteration " << i;
    EXPECT_EQ(a.failure, b.failure) << "iteration " << i;
  }
  EXPECT_EQ(serial.failure, det4.failure);
  ASSERT_TRUE(serial.configuration && det4.configuration);
  EXPECT_EQ(serial.configuration->selection(), det4.configuration->selection());

  // Free-running 4-thread search may surface a different equal-cost optimum
  // per iterate, but the synthesized result must agree on cost and meet the
  // requirement.
  const core::IlpMrReport free4 = run(4, false);
  ASSERT_EQ(free4.status, core::SynthesisStatus::kSuccess);
  ASSERT_TRUE(free4.configuration);
  EXPECT_DOUBLE_EQ(serial.configuration->total_cost(),
                   free4.configuration->total_cost());
  EXPECT_LE(free4.failure, 1e-6);
}

TEST(GoldenParallel, ParetoSweepMatchesSerial) {
  // Small 2-source / 2-middle / 1-sink template (sub-second sweeps with
  // several frontier points), as in pareto_mps_test.cpp.
  core::Template tmpl;
  const graph::NodeId s1 = tmpl.add_component({"S1", 0, 10, 0.01, 0, 0});
  const graph::NodeId s2 = tmpl.add_component({"S2", 0, 12, 0.01, 0, 0});
  const graph::NodeId m1 = tmpl.add_component({"M1", 1, 5, 0.02, 0, 0});
  const graph::NodeId m2 = tmpl.add_component({"M2", 1, 6, 0.02, 0, 0});
  const graph::NodeId t = tmpl.add_component({"T", 2, 0, 0.0, 0, 0});
  for (graph::NodeId s : {s1, s2}) {
    for (graph::NodeId m : {m1, m2}) tmpl.add_candidate_edge(s, m, 1);
  }
  tmpl.add_candidate_edge(m1, m2, 1);
  tmpl.add_candidate_edge(m2, m1, 1);
  for (graph::NodeId m : {m1, m2}) tmpl.add_candidate_edge(m, t, 1);

  const auto make_ilp = [&] {
    core::ArchitectureIlp ilp(tmpl);
    ilp.require_all_sinks_fed();
    return ilp;
  };
  const auto sweep = [&](int threads, bool deterministic) {
    BranchAndBoundOptions bopt;
    bopt.threads = threads;
    bopt.deterministic = deterministic;
    BranchAndBoundSolver solver(bopt);
    core::ParetoOptions opt;
    opt.initial_target = 5e-2;
    opt.tighten_factor = 0.5;
    opt.max_points = 8;
    return core::sweep_pareto_frontier(make_ilp, solver, opt);
  };

  const core::ParetoFrontier serial = sweep(0, false);
  ASSERT_GE(serial.points.size(), 2u);

  const core::ParetoFrontier det4 = sweep(4, true);
  ASSERT_EQ(serial.points.size(), det4.points.size());
  EXPECT_EQ(serial.terminal_status, det4.terminal_status);
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    const core::ParetoPoint& a = serial.points[i];
    const core::ParetoPoint& b = det4.points[i];
    EXPECT_EQ(a.target, b.target) << "point " << i;
    EXPECT_EQ(a.cost, b.cost) << "point " << i;
    EXPECT_EQ(a.approx_failure, b.approx_failure) << "point " << i;
    EXPECT_EQ(a.exact_failure, b.exact_failure) << "point " << i;
    EXPECT_EQ(a.configuration.selection(), b.configuration.selection())
        << "point " << i;
  }

  // Free-running: the frontier's (cost, reliability) profile must match
  // even when tie-broken architectures differ structurally.
  const core::ParetoFrontier free4 = sweep(4, false);
  ASSERT_EQ(serial.points.size(), free4.points.size());
  EXPECT_EQ(serial.terminal_status, free4.terminal_status);
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.points[i].cost, free4.points[i].cost)
        << "point " << i;
    EXPECT_NEAR(serial.points[i].approx_failure,
                free4.points[i].approx_failure, 1e-9)
        << "point " << i;
  }
}

}  // namespace
}  // namespace archex::ilp
