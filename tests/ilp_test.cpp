// Unit and property tests for the MILP layer (archex::ilp): expression DSL,
// model building, Boolean linearizations, branch & bound, and the Balas
// implicit-enumeration solver cross-checked against exhaustive enumeration.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "ilp/branching.hpp"
#include "ilp/expr.hpp"
#include "ilp/model.hpp"
#include "ilp/solver.hpp"
#include "support/rng.hpp"

namespace archex::ilp {
namespace {

TEST(LinExpr, BuildsAffineExpressions) {
  const Var x{0}, y{1};
  LinExpr e = 2.0 * x + 3.0 * y - 1.0;
  EXPECT_EQ(e.terms().size(), 2u);
  EXPECT_DOUBLE_EQ(e.constant(), -1.0);
  e *= 2.0;
  EXPECT_DOUBLE_EQ(e.constant(), -2.0);
  EXPECT_DOUBLE_EQ(e.terms()[0].coef, 4.0);
}

TEST(LinExpr, ComparisonsProduceRowSpecs) {
  const Var x{0};
  const RowSpec le = LinExpr(x) <= 3.0;
  EXPECT_DOUBLE_EQ(le.up, 3.0);
  EXPECT_EQ(le.lo, -lp::kInf);
  const RowSpec ge = LinExpr(x) >= 1.0;
  EXPECT_DOUBLE_EQ(ge.lo, 1.0);
  const RowSpec eq = LinExpr(x) == 2.0;
  EXPECT_DOUBLE_EQ(eq.lo, 2.0);
  EXPECT_DOUBLE_EQ(eq.up, 2.0);
}

TEST(Model, FoldsConstantsIntoRowBounds) {
  Model m;
  const Var x = m.add_binary("x");
  m.add_row(LinExpr(x) + 5.0 <= 6.0);  // x <= 1
  EXPECT_DOUBLE_EQ(m.row(0).up, 1.0);
}

TEST(Model, RejectsUnknownVariables) {
  Model m;
  (void)m.add_binary("x");
  LinExpr bogus;
  bogus.add_term(Var{42}, 1.0);
  EXPECT_THROW(m.add_row(std::move(bogus) <= 1.0), PreconditionError);
}

TEST(Model, FixPinsVariable) {
  Model m;
  const Var x = m.add_binary("x");
  m.fix(x, 1.0);
  EXPECT_DOUBLE_EQ(m.lower_bound(x), 1.0);
  EXPECT_DOUBLE_EQ(m.upper_bound(x), 1.0);
  EXPECT_THROW(m.fix(x, 0.5), PreconditionError);
}

TEST(Model, ActivityRange) {
  Model m;
  const Var x = m.add_continuous(-1, 2, "x");
  const Var y = m.add_continuous(0, 3, "y");
  const auto [lo, up] = m.activity_range(2.0 * x - 1.0 * y + 1.0);
  EXPECT_DOUBLE_EQ(lo, 2.0 * -1 - 3 + 1);
  EXPECT_DOUBLE_EQ(up, 2.0 * 2 - 0 + 1);
}

// ---- Boolean linearizations ------------------------------------------------

TEST(Model, OrDefinitionBehaves) {
  // For every corner of (a, b), minimizing / maximizing y under the OR rows
  // must pin y to a|b.
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      for (double sense : {+1.0, -1.0}) {
        Model m;
        const Var va = m.add_binary("a");
        const Var vb = m.add_binary("b");
        const Var y = m.add_or({va, vb}, "y");
        m.fix(va, a);
        m.fix(vb, b);
        m.set_objective(sense * y);
        BranchAndBoundSolver solver;
        const IlpResult r = solver.solve(m);
        ASSERT_TRUE(r.optimal());
        EXPECT_EQ(r.value_bool(y), (a | b) != 0)
            << "a=" << a << " b=" << b << " sense=" << sense;
      }
    }
  }
}

TEST(Model, AndDefinitionBehaves) {
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      for (double sense : {+1.0, -1.0}) {
        Model m;
        const Var va = m.add_binary("a");
        const Var vb = m.add_binary("b");
        const Var y = m.add_and({va, vb}, "y");
        m.fix(va, a);
        m.fix(vb, b);
        m.set_objective(sense * y);
        BranchAndBoundSolver solver;
        const IlpResult r = solver.solve(m);
        ASSERT_TRUE(r.optimal());
        EXPECT_EQ(r.value_bool(y), (a & b) != 0);
      }
    }
  }
}

TEST(Model, ImplicationEnforcedOnlyWhenGuardSet) {
  // x = 1 -> w >= 5; minimizing w with x fixed both ways.
  for (int guard = 0; guard <= 1; ++guard) {
    Model m;
    const Var x = m.add_binary("x");
    const Var w = m.add_continuous(0, 10, "w");
    m.add_implication(x, LinExpr(w) >= 5.0, "imp");
    m.fix(x, guard);
    m.set_objective(LinExpr(w));
    BranchAndBoundSolver solver;
    const IlpResult r = solver.solve(m);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.value(w), guard ? 5.0 : 0.0, 1e-6);
  }
}

TEST(Model, LeqChainsImplications) {
  // a <= b with cost on b: selecting a forces b.
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  m.add_leq(a, b);
  m.add_row(LinExpr(a) >= 1.0);
  m.set_objective(LinExpr(b));
  BranchAndBoundSolver solver;
  const IlpResult r = solver.solve(m);
  ASSERT_TRUE(r.optimal());
  EXPECT_TRUE(r.value_bool(b));
}

// ---- Branch & bound --------------------------------------------------------

TEST(BranchAndBound, SolvesKnapsack) {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6 -> a + c (value 17, weight 5)
  // vs b + c (20, 6): optimum picks b + c.
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  const Var c = m.add_binary("c");
  m.add_row(3.0 * a + 4.0 * b + 2.0 * c <= 6.0);
  m.set_objective(-(10.0 * a + 13.0 * b + 7.0 * c));
  BranchAndBoundSolver solver;
  const IlpResult r = solver.solve(m);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, -20.0, 1e-6);
  EXPECT_FALSE(r.value_bool(a));
  EXPECT_TRUE(r.value_bool(b));
  EXPECT_TRUE(r.value_bool(c));
}

TEST(BranchAndBound, DetectsInfeasibility) {
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  m.add_row(LinExpr(a) + LinExpr(b) >= 3.0);  // two binaries can't reach 3
  BranchAndBoundSolver solver;
  EXPECT_EQ(solver.solve(m).status, IlpStatus::kInfeasible);
}

TEST(BranchAndBound, IntegralityGapRequiresBranching) {
  // LP relaxation of: min -(x+y), x + y <= 1.5 gives 1.5; ILP optimum is 1.
  Model m;
  const Var x = m.add_binary("x");
  const Var y = m.add_binary("y");
  m.add_row(LinExpr(x) + LinExpr(y) <= 1.5);
  m.set_objective(-(LinExpr(x) + LinExpr(y)));
  BranchAndBoundSolver solver;
  const IlpResult r = solver.solve(m);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
}

TEST(BranchAndBound, MixedIntegerContinuous) {
  // min 3d + f subject to f >= 4 - 2d, f <= 5, d binary.
  // d=0: f=4 cost 4; d=1: f=2 cost 5. Optimum d=0.
  Model m;
  const Var d = m.add_binary("d");
  const Var f = m.add_continuous(0, 5, "f");
  m.add_row(LinExpr(f) + 2.0 * d >= 4.0);
  m.set_objective(3.0 * d + LinExpr(f));
  BranchAndBoundSolver solver;
  const IlpResult r = solver.solve(m);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, 4.0, 1e-6);
  EXPECT_FALSE(r.value_bool(d));
}

TEST(BranchAndBound, GeneralIntegerVariables) {
  // min x + y s.t. 2x + 3y >= 7, x,y integer in [0,5]: (2,1) cost 3.
  Model m;
  const Var x = m.add_integer(0, 5, "x");
  const Var y = m.add_integer(0, 5, "y");
  m.add_row(2.0 * x + 3.0 * y >= 7.0);
  m.set_objective(LinExpr(x) + LinExpr(y));
  BranchAndBoundSolver solver;
  const IlpResult r = solver.solve(m);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, 3.0, 1e-6);
}

TEST(BranchAndBound, ObjectiveConstantReported) {
  Model m;
  const Var x = m.add_binary("x");
  m.add_row(LinExpr(x) >= 1.0);
  m.set_objective(2.0 * x + 10.0);
  BranchAndBoundSolver solver;
  const IlpResult r = solver.solve(m);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, 12.0, 1e-6);
}

TEST(BranchAndBound, NodeLimitReported) {
  // Odd-cycle packing: the root LP optimum is the all-0.5 point, so at least
  // one branch is required; with max_nodes = 1 the limit must trip.
  BranchAndBoundOptions opt;
  opt.max_nodes = 1;
  opt.root_rounding_heuristic = false;
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  const Var c = m.add_binary("c");
  m.add_row(LinExpr(a) + LinExpr(b) <= 1.0);
  m.add_row(LinExpr(b) + LinExpr(c) <= 1.0);
  m.add_row(LinExpr(a) + LinExpr(c) <= 1.0);
  m.set_objective(-(LinExpr(a) + LinExpr(b) + LinExpr(c)));
  BranchAndBoundSolver solver(opt);
  const IlpResult r = solver.solve(m);
  EXPECT_EQ(r.status, IlpStatus::kNodeLimit);
}

TEST(BranchAndBound, TimeLimitAbortsPromptly) {
  // An (effectively) expired time limit must stop the search within the
  // first node — the engine-level deadline also cuts off the node's LP
  // relaxation instead of letting it run to completion.
  BranchAndBoundOptions opt;
  opt.time_limit_seconds = 1e-9;
  opt.root_rounding_heuristic = false;
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  const Var c = m.add_binary("c");
  m.add_row(LinExpr(a) + LinExpr(b) <= 1.0);
  m.add_row(LinExpr(b) + LinExpr(c) <= 1.0);
  m.add_row(LinExpr(a) + LinExpr(c) <= 1.0);
  m.set_objective(-(LinExpr(a) + LinExpr(b) + LinExpr(c)));
  BranchAndBoundSolver solver(opt);
  const IlpResult r = solver.solve(m);
  EXPECT_EQ(r.status, IlpStatus::kTimeLimit);
  EXPECT_LE(r.nodes_explored, 1);
}

// ---- Balas solver -----------------------------------------------------------

TEST(Branching, TiesResolveToLowestIndex) {
  // Three binaries, all equally fractional: the most-fractional rule must
  // break the tie at the lowest variable index. This order is part of the
  // deterministic-mode contract (bit-for-bit reproducible trees), so it is
  // pinned here rather than left to accident.
  Model m;
  m.add_binary("a");
  m.add_binary("b");
  m.add_binary("c");
  m.set_objective(LinExpr{});
  const std::vector<int> integral = {0, 1, 2};

  const std::vector<double> x = {0.5, 0.5, 0.5};
  const BranchChoice plain =
      select_branch_variable(m, integral, x, nullptr);
  EXPECT_EQ(plain.var, 0);
  EXPECT_FALSE(plain.used_pseudocost);

  // A strictly more fractional later variable still wins over earlier ones.
  const std::vector<double> x2 = {0.3, 0.5, 0.3};
  EXPECT_EQ(select_branch_variable(m, integral, x2, nullptr).var, 1);

  // Equal *pseudocost* scores tie-break to the lowest index as well.
  PseudocostTable table(3);
  for (const int j : {1, 2}) {
    table.observe(j, false, 2.0);
    table.observe(j, true, 2.0);
  }
  const BranchChoice pc =
      select_branch_variable(m, integral, x, &table);
  EXPECT_TRUE(pc.used_pseudocost);
  EXPECT_EQ(pc.var, 1);  // lowest index among the (tied) reliable pair

  // Branching priority dominates both rules: the top class is selected
  // first, and ties inside it again resolve to the lowest index.
  m.set_branch_priority(Var{1}, 10);
  m.set_branch_priority(Var{2}, 10);
  const BranchChoice prio =
      select_branch_variable(m, integral, x, nullptr);
  EXPECT_EQ(prio.var, 1);
}

TEST(Branching, IntegralPointYieldsNoCandidate) {
  Model m;
  m.add_binary("a");
  m.set_objective(LinExpr{});
  const std::vector<double> x = {1.0};
  EXPECT_EQ(select_branch_variable(m, {0}, x, nullptr).var, -1);
}

TEST(Balas, RejectsNonBinaryModels) {
  Model m;
  (void)m.add_continuous(0, 1, "w");
  BalasSolver solver;
  EXPECT_THROW((void)solver.solve(m), PreconditionError);
}

TEST(Balas, SolvesKnapsack) {
  Model m;
  const Var a = m.add_binary("a");
  const Var b = m.add_binary("b");
  const Var c = m.add_binary("c");
  m.add_row(3.0 * a + 4.0 * b + 2.0 * c <= 6.0);
  m.set_objective(-(10.0 * a + 13.0 * b + 7.0 * c));
  BalasSolver solver;
  const IlpResult r = solver.solve(m);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, -20.0, 1e-6);
}

TEST(Balas, DetectsInfeasibility) {
  Model m;
  const Var a = m.add_binary("a");
  m.add_row(LinExpr(a) >= 2.0);
  BalasSolver solver;
  EXPECT_EQ(solver.solve(m).status, IlpStatus::kInfeasible);
}

// ---- Property test: both solvers vs exhaustive enumeration -----------------

struct Brute {
  bool feasible = false;
  double best = std::numeric_limits<double>::infinity();
};

Brute brute_force(const Model& m) {
  const int n = m.num_variables();
  Brute out;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      x[static_cast<std::size_t>(j)] = (mask >> j) & 1u;
    }
    if (!m.is_feasible(x, 1e-9)) continue;
    out.feasible = true;
    out.best = std::min(out.best, m.eval_objective(x));
  }
  return out;
}

Model random_binary_model(std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  const int n = 4 + static_cast<int>(rng.next_below(7));  // 4..10 binaries
  std::vector<Var> xs;
  for (int j = 0; j < n; ++j) xs.push_back(m.add_binary());
  const int rows = 2 + static_cast<int>(rng.next_below(5));
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    double magnitude = 0.0;
    for (Var v : xs) {
      if (rng.next_bernoulli(0.5)) continue;
      const double c = std::floor(rng.next_double() * 7.0) - 3.0;  // -3..3
      e.add_term(v, c);
      magnitude += std::abs(c);
    }
    const double rhs = std::floor(rng.next_double() * magnitude) -
                       magnitude / 2.0;
    switch (rng.next_below(3)) {
      case 0: m.add_row(std::move(e) <= rhs); break;
      case 1: m.add_row(std::move(e) >= rhs); break;
      default: m.add_row(std::move(e) <= rhs + 2.0); break;
    }
  }
  LinExpr obj;
  for (Var v : xs) {
    obj.add_term(v, std::floor(rng.next_double() * 21.0) - 10.0);
  }
  m.set_objective(obj);
  return m;
}

class SolverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreement, BothSolversMatchBruteForce) {
  const Model m = random_binary_model(
      static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  const Brute truth = brute_force(m);

  BranchAndBoundSolver bnb;
  const IlpResult rb = bnb.solve(m);
  BalasSolver balas;
  const IlpResult rl = balas.solve(m);

  if (!truth.feasible) {
    EXPECT_EQ(rb.status, IlpStatus::kInfeasible);
    EXPECT_EQ(rl.status, IlpStatus::kInfeasible);
    return;
  }
  ASSERT_TRUE(rb.optimal()) << to_string(rb.status);
  ASSERT_TRUE(rl.optimal()) << to_string(rl.status);
  EXPECT_NEAR(rb.objective, truth.best, 1e-6);
  EXPECT_NEAR(rl.objective, truth.best, 1e-6);
  // Returned assignments must themselves be feasible.
  EXPECT_TRUE(m.is_feasible(rb.x));
  EXPECT_TRUE(m.is_feasible(rl.x));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement, ::testing::Range(0, 40));

}  // namespace
}  // namespace archex::ilp
