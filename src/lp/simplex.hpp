// archex/lp/simplex.hpp
//
// Bounded-variable revised primal simplex with a two-phase start.
//
// This is the LP engine underneath the branch-and-bound MILP solver in
// archex::ilp. The paper used CPLEX behind YALMIP; both ILP-MR and ILP-AR
// treat the solver as a black box, so any sound LP/ILP engine preserves the
// algorithms (see DESIGN.md, substitution table).
//
// Internals (see engine.cpp for details):
//  * each row `lo <= a'x <= up` becomes `a'x - s = 0` with a logical
//    variable s bounded by [lo, up]; the initial basis is all logicals;
//  * rows whose logical starts outside its bounds receive a phase-1
//    artificial; phase 1 minimizes the artificial sum to zero;
//  * the basis is kept as a sparse LU factorization (Markowitz pivoting,
//    basis_lu.hpp) updated by a product-form eta file, with FTRAN/BTRAN as
//    sparse triangular solves; refactorization is triggered by eta-file
//    growth, numeric drift, or a periodic pivot schedule. The explicit
//    dense inverse survives behind SimplexOptions::dense_basis as the
//    differential-testing oracle;
//  * pricing is Devex over a candidate-list partial scan (full Dantzig
//    sweeps only to prove optimality), with a Bland fallback against
//    cycling.
#pragma once

#include <string>
#include <vector>

#include "lp/problem.hpp"

namespace archex::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  /// The engine's deadline (SimplexEngine::set_deadline) passed mid-solve.
  kTimeLimit,
  kNumericFailure,
};

[[nodiscard]] std::string to_string(SolveStatus status);

/// Engine settings that tests vary. The tolerances, refactorization and
/// pricing schedule every other caller runs with are constants in
/// engine.cpp.
struct SimplexOptions {
  /// Keep the basis inverse as an explicit dense matrix (the pre-sparse
  /// engine) instead of the sparse LU + eta-file representation. Every
  /// FTRAN/BTRAN/update is then O(m^2); retained as the slow, simple
  /// differential-testing oracle for the sparse path.
  bool dense_basis = false;
  /// Sparse basis: refactorize once the eta file holds this many updates.
  int max_eta = 64;
  /// Partial pricing: stop the scan once this many improving candidates
  /// have been collected (a full sweep still proves optimality). <= 0
  /// restores the full-scan Devex pricing on the sparse path too.
  int pricing_candidates = 8;
};

struct Solution {
  SolveStatus status = SolveStatus::kNumericFailure;
  /// Objective value (meaningful when status == kOptimal).
  double objective = 0.0;
  /// Values of the structural variables (size == problem.num_variables()).
  std::vector<double> x;
  /// Total simplex pivots performed.
  long iterations = 0;
  /// Pivots spent in phase 1 (feasibility restoration), when applicable.
  long phase1_iterations = 0;

  [[nodiscard]] bool optimal() const { return status == SolveStatus::kOptimal; }
};

/// Solve `problem` (minimization) with the bounded-variable simplex.
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options = {});

/// Supremum of a weighted sum over a box: sup { z'x : lo <= x <= up }
/// (+infinity as soon as a nonzero weight meets an infinite bound on the
/// side it leans on). This is the validity check for a Farkas certificate
/// (SimplexEngine::farkas_ray): every x satisfying the engine's rows has
/// z'x = 0, so a negative supremum proves the box holds no feasible point.
[[nodiscard]] double box_support(const std::vector<double>& z,
                                 const std::vector<double>& lo,
                                 const std::vector<double>& up);

}  // namespace archex::lp
