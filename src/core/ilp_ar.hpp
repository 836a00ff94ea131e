// archex/core/ilp_ar.hpp
//
// ILP with Approximate Reliability (Algorithm 3). GENILP-AR compiles the
// reliability requirement into the monolithic ILP using the approximate
// algebra of Section IV-A, in time polynomial in the template size:
//
//   per sink v and type j:
//     count_vj      = Σ_{w ∈ Π_j} [w linked to a source and to v]  (eq. 11,
//                     via the decision-edge walk indicators of Lemma 1)
//     x_vjk (k=0..k_max):  Σ_k x_vjk = 1,  Σ_k k·x_vjk = count_vj  (eq. 10/11)
//   reliability row (9):  Σ_j Σ_{k>=1} k · p_j^k · x_vjk  <=  r*_v
//
// and a single SolveILP call returns the optimal architecture. Within the
// Theorem-2 error bound the result is sound and complete (Theorem 3).
//
// Numerical note: the row (9) mixes coefficients spanning many decades
// (p^1 .. p^{k_max}); the encoder rescales the row by 1/r* and pre-fixes to
// zero any x_vjk whose single term already exceeds r*, keeping the remaining
// coefficients in [0, 1] — well inside simplex tolerances.
#pragma once

#include <optional>

#include "core/arch_ilp.hpp"
#include "core/configuration.hpp"
#include "core/synthesis_status.hpp"
#include "ilp/solver.hpp"

namespace archex::core {

struct IlpArOptions {
  /// Reliability requirement r* applied to every sink's functional link.
  double target_failure = 1e-9;
  /// Accept a solver incumbent when limits trip before the optimality
  /// proof (cost may be suboptimal; r~ of the result is still verified).
  bool accept_incumbent = false;
  /// Optional acceleration of the final exact evaluation (and of future
  /// runs sharing the same cache, e.g. across a Pareto sweep).
  rel::EvalCache* cache = nullptr;
  /// Exact analyzer used to verify the synthesized architecture.
  rel::ExactMethod method = rel::kDefaultExactMethod;
  /// Absolute deadline for the final exact evaluation; overruns abort with
  /// rel::TimeoutError (the solver's budget is its own options' concern).
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

struct IlpArReport {
  SynthesisStatus status = SynthesisStatus::kSolverFailure;
  std::optional<Configuration> configuration;

  /// Worst-sink approximate failure r̃ of the final architecture (eq. 7).
  double approx_failure = 1.0;
  /// Worst-sink exact failure r of the final architecture.
  double exact_failure = 1.0;

  // Problem size and phase timings, as reported in Table III.
  int num_constraints = 0;
  int num_variables = 0;
  double setup_seconds = 0.0;
  double solver_seconds = 0.0;
  long solver_nodes = 0;
  /// Parallel-search statistics of the solve (zero for serial solvers):
  /// bound-pruned nodes and pool nodes expanded by a non-donating worker.
  long solver_nodes_pruned = 0;
  long solver_steals = 0;
  /// Branching-aid statistics of the solve (zero when the solver's
  /// pseudocost/rc-fixing options are off).
  long solver_rc_fixings = 0;
  long solver_pseudocost_branches = 0;
  /// Conflict-learning statistics of the solve (zero when the solver's
  /// learning option is off).
  long solver_nogoods_learned = 0;
  long solver_nogood_prunings = 0;
  long solver_nogood_store_size = 0;
};

/// Size of a GENILP-AR encoding without solving (Table III's constraint
/// column for instances too large to solve with the bundled engine).
struct IlpArSize {
  int num_constraints = 0;
  int num_variables = 0;
  double setup_seconds = 0.0;
};

/// Append the approximate-reliability encoding (9)-(11) to `ilp`.
/// Exposed separately so benchmarks can measure setup alone.
IlpArSize encode_ilp_ar(ArchitectureIlp& ilp, const IlpArOptions& options);

/// Full Algorithm 3: encode, solve once, extract and evaluate.
[[nodiscard]] IlpArReport run_ilp_ar(ArchitectureIlp& ilp,
                                     ilp::IlpSolver& solver,
                                     const IlpArOptions& options);

}  // namespace archex::core
