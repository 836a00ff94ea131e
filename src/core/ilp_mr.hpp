// archex/core/ilp_mr.hpp
//
// ILP Modulo Reliability (Algorithm 1) with the LEARNCONS constraint-learning
// routine (Algorithm 2). The ILP solver and an *exact* reliability analysis
// run in a lazy loop:
//
//   loop:
//     e*  <- SolveILP(Cost, Cons)          (minimum-cost architecture)
//     r   <- RelAnalysis(e*, p)            (exact, worst sink)
//     if r <= r*: return e*
//     Cons <- LearnCons(Cons, r, r*, e*)   (enforce more redundant paths)
//
// LEARNCONS estimates the number of additional redundant paths
//   k = floor( log(r*/r) / log(rho) )                  (ESTPATH)
// from the failure probability rho of a single path, then enforces — for
// every sink and every component type — k additional type-members with a
// selected walk to the sink, via eq. (6) over the walk-indicator encoding
// (ADDPATH). When k == 0 it instead adds one path to the type with minimum
// redundancy (FINDMINREDTYPE). The "lazy" strategy of Table II (bottom)
// always takes the k == 0 branch.
#pragma once

#include <optional>
#include <vector>

#include "core/arch_ilp.hpp"
#include "core/configuration.hpp"
#include "core/synthesis_status.hpp"
#include "ilp/solver.hpp"
#include "rel/exact.hpp"

namespace archex::core {

/// How ADDPATH's eq.-(6) rows are lowered to the ILP.
enum class PathEncoding {
  /// Continuous single-commodity flows per (sink, type): no auxiliary
  /// binaries, tight LP relaxation (default; see flow_encoder.hpp).
  kFlow,
  /// The paper-literal ADDPATH lowering: eq. (6) over Lemma-1 walk
  /// indicators of the decision edges with length bound n - i + 1. It
  /// shares ReachEncoder's indicators, each capped at its candidate
  /// simple-path bound (reach_encoder.hpp). Weaker LP relaxation than
  /// kFlow; bench_encoder_ablation measures the gap.
  kWalkIndicator,
};

struct IlpMrOptions {
  /// Reliability requirement r*: worst-case sink failure probability.
  double target_failure = 1e-9;
  /// Abort after this many solve/analyze/learn iterations.
  int max_iterations = 50;
  /// Table II bottom: ignore ESTPATH and add a single path per iteration to
  /// the minimum-redundancy type.
  bool lazy_strategy = false;
  /// Exact analyzer used by RELANALYSIS.
  rel::ExactMethod method = rel::kDefaultExactMethod;
  /// Lowering used for the learned eq.-(6) constraints.
  PathEncoding encoding = PathEncoding::kFlow;
  /// Accept a solver incumbent when the node/time limit trips before the
  /// optimality proof completes. Reliability soundness is unaffected (the
  /// exact RELANALYSIS still gates acceptance); only cost optimality may
  /// degrade. Benchmarks enable this to bound their runtime.
  bool accept_incumbent = false;
  /// Memoization cache shared by every RELANALYSIS call. Null still
  /// memoizes *within* the run (successive iterates share most factoring
  /// pivot subproblems; a repeated iterate is a whole-graph hit for BDD);
  /// pass a cache to also share across runs.
  rel::EvalCache* cache = nullptr;
  /// External nogood store to install instead of the run-private one the
  /// run would otherwise create (both only with a BranchAndBoundSolver that
  /// has learning enabled). Lets a long-lived caller persist oracle nogoods
  /// across runs over the same problem family — see NogoodStoreRegistry;
  /// the caller is responsible for purging non-oracle entries before reuse.
  std::shared_ptr<ilp::NogoodStore> store;
  /// Absolute deadline for the RELANALYSIS calls; an analysis that overruns
  /// it aborts with rel::TimeoutError. The ILP side enforces its own budget
  /// via BranchAndBoundOptions::deadline. Unset = no analysis deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// One row of the per-iteration trace (Fig. 2 of the paper).
struct MrIteration {
  double cost = 0.0;
  double failure = 1.0;     // exact worst-sink failure of this iteration
  int estimated_k = 0;      // ESTPATH output used to learn constraints
  int new_constraints = 0;  // rows added by LEARNCONS after this iteration
  int num_edges = 0;
  int num_components = 0;
};

struct IlpMrReport {
  SynthesisStatus status = SynthesisStatus::kSolverFailure;
  std::optional<Configuration> configuration;
  /// Exact worst-sink failure probability of the final architecture.
  double failure = 1.0;
  std::vector<MrIteration> iterations;

  // Phase timings, as reported in Table II.
  double analysis_seconds = 0.0;
  double solver_seconds = 0.0;
  long solver_nodes = 0;
  /// Parallel-search statistics summed over all SolveILP iterations (zero
  /// for serial solvers): bound-pruned nodes and work-stealing pool steals.
  long solver_nodes_pruned = 0;
  long solver_steals = 0;
  /// Branching-aid statistics summed over all SolveILP iterations (zero
  /// when the solver's pseudocost/rc-fixing options are off).
  long solver_rc_fixings = 0;
  long solver_pseudocost_branches = 0;
  /// Conflict-learning statistics (zero when learning is off): nogoods
  /// installed and nodes pruned by them, summed over all SolveILP
  /// iterations; store size is the shared store's final live count.
  long solver_nogoods_learned = 0;
  long solver_nogood_prunings = 0;
  long solver_nogood_store_size = 0;
  /// Reliability rejections recorded as oracle nogoods (learning solvers).
  long oracle_nogoods = 0;
  /// SolveILP calls that tripped a node/time limit instead of proving
  /// optimality or infeasibility. Nonzero means the solver-effort counters
  /// above measure throughput within a budget, not proven-tree size —
  /// benches report this as `budget_capped`.
  long solver_limit_hits = 0;

  // Final model size.
  int num_rows = 0;
  int num_variables = 0;

  [[nodiscard]] int num_iterations() const {
    return static_cast<int>(iterations.size());
  }
};

/// Run ILP-MR on a prepared base ILP (interconnection + balance rules built
/// by the caller). Learned reliability constraints are appended to `ilp`.
[[nodiscard]] IlpMrReport run_ilp_mr(ArchitectureIlp& ilp,
                                     ilp::IlpSolver& solver,
                                     const IlpMrOptions& options);

}  // namespace archex::core
