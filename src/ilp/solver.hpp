// archex/ilp/solver.hpp
//
// Solver-agnostic interface for 0/1 mixed-integer programs. Both synthesis
// algorithms in the paper (ILP-MR, Algorithm 1; ILP-AR, Algorithm 3) call
// `SolveILP(Cost, Cons)` as a black box; this interface is that box.
// Two implementations ship with the library:
//  * BranchAndBoundSolver — LP-relaxation-based branch & bound (default);
//  * BalasSolver          — LP-free implicit enumeration for pure-binary
//                           models (ablation baseline, bench_solver_ablation).
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ilp/model.hpp"
#include "lp/simplex.hpp"

namespace archex::ilp {

enum class IlpStatus {
  kOptimal,
  kInfeasible,
  kNodeLimit,
  kTimeLimit,
  kNumericFailure,
};

[[nodiscard]] std::string to_string(IlpStatus status);

/// Outcome of one ILP solve.
struct IlpResult {
  IlpStatus status = IlpStatus::kNumericFailure;
  /// Objective value of the incumbent, including the model's constant term.
  double objective = 0.0;
  /// Incumbent assignment (size == model.num_variables()); integral entries
  /// are exact integers.
  std::vector<double> x;

  // Search statistics.
  long nodes_explored = 0;
  /// Nodes discarded by bound-based pruning (LP bound could not beat the
  /// incumbent), including pool nodes pruned at steal time.
  long nodes_pruned = 0;
  /// Parallel search only: pool nodes expanded by a worker other than the
  /// one that donated them (0 for serial solves).
  long steal_count = 0;
  /// Worker count the search actually ran with (1 for serial solves).
  int threads_used = 1;
  long lp_pivots = 0;
  long lp_scratch_solves = 0;   // LPs solved from scratch (cold)
  long lp_dual_reopts = 0;      // LPs warm-started via dual simplex
  long lp_dual_fallbacks = 0;   // warm starts that fell back to scratch
  long lp_dual_limit = 0;       // ... of which: dual pivot cap
  long lp_dual_numeric = 0;     // ... of which: numeric trouble
  long lp_restore_fallbacks = 0;  // ... of which: dual feasibility lost

  // Sparse-basis machinery (see lp::SimplexEngine::Stats).
  long lp_factorizations = 0;  // basis (re)factorizations
  long lp_eta_updates = 0;     // product-form eta updates appended
  long lp_refactor_eta = 0;    // refactorizations forced by eta-file growth
  long lp_refactor_drift = 0;  // refactorizations forced by numeric drift
  long lp_max_eta_len = 0;     // longest eta file between refactorizations

  // Presolve reductions applied to the root relaxation (zeros when
  // presolve is disabled).
  long presolve_fixed_variables = 0;
  long presolve_rows_removed = 0;
  long presolve_bound_tightenings = 0;

  // Branching and bounding aids (zeros when the corresponding option is
  // off).
  long rc_fixings = 0;           // 0/1 columns fixed by reduced cost
  long pseudocost_branches = 0;  // branchings decided by pseudocost scores

  // Conflict-driven nogood learning (DESIGN.md §4g; zeros when learning is
  // off).
  long nogoods_learned = 0;    // nogoods installed into the store this solve
  long nogood_prunings = 0;    // nodes pruned by a matching stored nogood
  long nogood_probes = 0;      // minimization LP probes spent
  long nogood_store_size = 0;  // live store entries when the solve finished

  double solve_seconds = 0.0;

  // Per-worker breakdown (size == threads_used; single entry for serial
  // solves). Used by the benches to report parallel efficiency: a skewed
  // lp-iteration histogram means the node pool starved some workers.
  std::vector<long> worker_nodes;
  std::vector<long> worker_lp_iterations;

  [[nodiscard]] bool optimal() const { return status == IlpStatus::kOptimal; }
  [[nodiscard]] bool value_bool(Var v) const {
    return x[static_cast<std::size_t>(v.id)] > 0.5;
  }
  [[nodiscard]] double value(Var v) const {
    return x[static_cast<std::size_t>(v.id)];
  }
};

/// Abstract 0/1 MILP solver.
class IlpSolver {
 public:
  virtual ~IlpSolver() = default;

  /// Solve `model` to proven optimality (or report why not).
  [[nodiscard]] virtual IlpResult solve(const Model& model) = 0;

  /// Human-readable engine name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

struct BranchAndBoundOptions {
  long max_nodes = 2'000'000;
  double time_limit_seconds = 600.0;
  /// Absolute wall-clock deadline, clamped against time_limit_seconds (the
  /// effective budget is whichever expires first). Lets a caller that runs
  /// many solves under one request-level deadline (the archex_server) hand
  /// the remaining budget to every solve without re-deriving per-solve
  /// relative limits. Unset = time_limit_seconds alone governs.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Worker threads exploring the tree. 0 (and 1) selects the serial
  /// depth-first search, preserving the historical node order and
  /// determinism exactly. With >= 2 the search runs a best-first/DFS
  /// hybrid: a lock-guarded global pool ordered by relaxation bound feeds
  /// workers that dive depth-first with their own simplex engines, donating
  /// the non-preferred branch child whenever the pool runs low (see
  /// DESIGN.md §4e).
  int threads = 0;
  /// Debugging aid for the parallel search: expand nodes strictly in the
  /// serial DFS preorder through one shared engine (workers take turns), so
  /// a threads >= 2 run reproduces the serial node ordering, incumbent
  /// sequence, statistics and solution bit-for-bit — at the price of no
  /// parallel speedup. Ignored when threads <= 1.
  bool deterministic = false;
  /// Attempt a rounding heuristic at the root to seed the incumbent.
  bool root_rounding_heuristic = true;
  /// Shrink the LP with lp::presolve() before the search (fixed-variable
  /// substitution, row elimination, 0/1 bound propagation); solutions are
  /// postsolved back to the model's variable space transparently.
  bool presolve = true;

  // ---- branching and bounding aids ------------------------------------------

  /// Pseudocost branching: rank fractional variables of the top priority
  /// class by observed objective degradation per unit of fractionality,
  /// falling back to most-fractional until a variable has observations in
  /// both directions. Statistics are shared across parallel workers.
  bool pseudocost = true;
  /// Fix 0/1 columns whose root reduced cost proves the opposite bound
  /// cannot beat the incumbent, re-checked at every incumbent improvement;
  /// fixings propagate to all workers as a shared prune filter.
  bool rc_fixing = true;

  // ---- conflict-driven nogood learning (DESIGN.md §4g) ---------------------

  /// Learn 0/1 nogoods from infeasible and bound-dominated nodes: the
  /// engine's Farkas certificate (or a Lagrangian bound from the node's
  /// true reduced costs) is reduced against the branching path to a minimal
  /// partial assignment that can never be extended to an improving feasible
  /// solution, stored signature-deduped in a shared, activity-scored pool
  /// (ilp/nogood.hpp) and checked before every node LP. Deterministic mode
  /// is preserved bit-for-bit.
  bool learning = true;

  /// Options forwarded to the underlying simplex engine (e.g. dense_basis
  /// to run the dense differential-testing oracle).
  lp::SimplexOptions lp;
};

class NogoodStore;

/// LP-based branch & bound (depth-first with best-bound pruning).
class BranchAndBoundSolver final : public IlpSolver {
 public:
  explicit BranchAndBoundSolver(BranchAndBoundOptions options = {})
      : options_(options) {}

  [[nodiscard]] IlpResult solve(const Model& model) override;
  [[nodiscard]] std::string name() const override { return "branch-and-bound"; }

  /// Share an external nogood store across solve() calls (and across solver
  /// instances). Without one, each solve uses a private store that dies with
  /// it. Persistence contract: the store may only be reused across models
  /// that *add* constraints to (never relax) an earlier one over the same
  /// variable numbering — the ILP-MR / ILP-AR synthesis loops satisfy this
  /// (learncons and counterexample rows only accumulate), so conflicts
  /// learned in iteration k keep pruning iteration k+1's tree.
  void set_nogood_store(std::shared_ptr<NogoodStore> store) {
    store_ = std::move(store);
  }

  [[nodiscard]] const BranchAndBoundOptions& options() const {
    return options_;
  }

 private:
  BranchAndBoundOptions options_;
  std::shared_ptr<NogoodStore> store_;
};

struct BalasOptions {
  long max_nodes = 50'000'000;
  double time_limit_seconds = 600.0;
};

/// Balas-style implicit enumeration for pure-binary models. No LP relaxation
/// is solved; pruning uses per-row achievable-activity intervals and the
/// additive cost bound. Exponential in the worst case — included as the
/// ablation baseline contrasted with LP-based branch & bound.
class BalasSolver final : public IlpSolver {
 public:
  explicit BalasSolver(BalasOptions options = {}) : options_(options) {}

  [[nodiscard]] IlpResult solve(const Model& model) override;
  [[nodiscard]] std::string name() const override {
    return "balas-implicit-enumeration";
  }

 private:
  BalasOptions options_;
};

}  // namespace archex::ilp
