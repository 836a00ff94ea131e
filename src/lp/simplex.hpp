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

struct SimplexOptions {
  /// Hard cap on simplex pivots across both phases; <=0 picks an automatic
  /// cap that scales with problem size.
  long max_iterations = 0;
  /// Feasibility / optimality tolerance.
  double tol = 1e-9;
  /// Rebuild the basis representation from scratch every this many pivots:
  /// drift control only, keep it rare (on the sparse path the eta-growth
  /// bounds below refactorize long before; the dense oracle's update and
  /// refactorization cost O(m^2) and O(m^3)). Basic values are recomputed
  /// (cheaply) every `recompute_every` pivots in between.
  int refactor_every = 4096;
  /// Recompute basic values from the nonbasic assignment this often, to
  /// bound error accumulation between refactorizations.
  int recompute_every = 256;
  /// Number of consecutive non-improving pivots before switching to
  /// Bland's anti-cycling rule.
  int bland_after = 256;

  /// Keep the basis inverse as an explicit dense matrix (the pre-sparse
  /// engine) instead of the sparse LU + eta-file representation. Every
  /// FTRAN/BTRAN/update is then O(m^2); retained as the slow, simple
  /// differential-testing oracle for the sparse path.
  bool dense_basis = false;
  /// Sparse basis: refactorize once the eta file holds this many updates.
  int max_eta = 64;
  /// Sparse basis: refactorize when the eta-file nonzeros exceed this
  /// multiple of the LU factor nonzeros (growth/fill control).
  double eta_growth = 2.0;
  /// Refactorize when periodically recomputing the basic values moves one
  /// of them by more than this (numeric-drift trigger).
  double drift_tol = 1e-6;
  /// Partial pricing: stop the scan once this many improving candidates
  /// have been collected (a full sweep still proves optimality). <= 0
  /// restores the full-scan Devex pricing on the sparse path too.
  int pricing_candidates = 8;
  /// Columns per partial-pricing section; 0 picks an automatic size that
  /// scales with the column count.
  int pricing_section = 0;
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
