// archex/lp/engine.hpp
//
// Persistent simplex engine: the stateful core behind lp::solve(), exposed
// so that branch & bound can warm-start. The key property it exploits: a
// basis that is optimal for some bounds stays *dual feasible* after any
// variable-bound change (reduced costs do not depend on bounds), so a few
// dual-simplex pivots re-optimize a child node instead of a full two-phase
// primal solve from scratch.
//
// Usage pattern (branch & bound):
//   SimplexEngine engine(problem, options);
//   Solution root = engine.solve_from_scratch();
//   engine.set_variable_bounds(j, 1.0, 1.0);   // branch x_j = 1
//   Solution child = engine.reoptimize();      // dual simplex, few pivots
//   engine.set_variable_bounds(j, 0.0, 1.0);   // undo on backtrack
//
// reoptimize() falls back to solve_from_scratch() automatically when no
// basis exists yet or the dual loop hits a limit or numeric trouble.
#pragma once

#include <chrono>
#include <memory>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace archex::lp {

namespace detail {
class EngineImpl;
}

class SimplexEngine {
 public:
  /// The engine snapshots the problem's structure; later bound changes go
  /// through set_variable_bounds (the Problem object is not referenced
  /// after construction).
  explicit SimplexEngine(const Problem& problem,
                         const SimplexOptions& options = {});
  ~SimplexEngine();
  SimplexEngine(SimplexEngine&&) noexcept;
  SimplexEngine& operator=(SimplexEngine&&) noexcept;

  /// Override the box of a structural variable.
  void set_variable_bounds(int var, double lo, double up);

  /// Abort any solve promptly (status kTimeLimit) once `deadline` passes.
  /// The pivot loops poll the clock every few dozen iterations, so the
  /// overshoot is a handful of pivots — not a whole node relaxation. A
  /// time-limited solve invalidates the warm-start basis.
  void set_deadline(std::chrono::steady_clock::time_point deadline);
  void clear_deadline();

  /// Current (possibly overridden) bounds of a structural variable.
  [[nodiscard]] double col_lo(int var) const;
  [[nodiscard]] double col_up(int var) const;

  // ---- basis introspection --------------------------------------------------
  //
  // Columns are indexed structural-first: 0..n-1 are the problem's
  // variables, n..n+m-1 the row logicals (the logical of row i holds the
  // activity of row i).

  /// Row count.
  [[nodiscard]] int num_rows() const;
  /// Structural column count.
  [[nodiscard]] int num_structural() const;
  /// Working bounds of column `j` at the last solve (for logicals: the row
  /// bounds).
  [[nodiscard]] double column_lower(int j) const;
  [[nodiscard]] double column_upper(int j) const;
  /// Reduced costs of the n + m structural + logical columns with respect
  /// to the *true* (unperturbed) objective at the current basis — the safe
  /// input for reduced-cost fixing. Returns false without a valid basis.
  [[nodiscard]] bool reduced_costs(std::vector<double>& d);

  // ---- infeasibility certificates -------------------------------------------
  //
  // When a solve proves infeasibility, the engine keeps the Farkas dual ray
  // it detected it with, aggregated into per-column weights z_j = y'A_j
  // over the n + m structural + logical columns. Because the engine's rows
  // read a'x - s = 0, every x satisfying the rows has z'x = 0 exactly —
  // while sup { z'x : current boxes } < 0, so the current bound box admits
  // no feasible point. The only bounds the proof leans on are the upper
  // bounds of columns with z_j > 0 and the lower bounds of columns with
  // z_j < 0; branch & bound reduces the ray against its branching
  // decisions to a minimal 0/1 nogood this way (DESIGN.md §4g).

  /// Farkas certificate of the last solve. Fills `z` (size
  /// num_structural() + num_rows()) and `margin` = -sup{z'x : boxes} > 0,
  /// and returns true, when the last solve returned kInfeasible and the
  /// captured ray passed its numeric sanity margin; returns false
  /// otherwise (no proof of infeasibility is held, or the ray was too
  /// noisy to certify — callers must treat that as "no certificate", not
  /// as feasibility).
  [[nodiscard]] bool farkas_ray(std::vector<double>& z, double& margin) const;

  /// Full two-phase primal solve, discarding any existing basis.
  [[nodiscard]] Solution solve_from_scratch();

  /// Re-optimize from the last optimal basis with dual simplex; falls back
  /// to a scratch solve when that is impossible or fails.
  [[nodiscard]] Solution reoptimize();

  /// Worst-case amount by which a reported "optimal" objective can exceed
  /// the true LP optimum, due to the anti-degeneracy cost perturbation
  /// (0 while the perturbation has not been activated). Branch & bound
  /// subtracts this before pruning against the incumbent.
  [[nodiscard]] double bound_slack() const;

  /// Cumulative engine statistics (diagnosing warm-start effectiveness and
  /// the health of the sparse basis machinery).
  struct Stats {
    long scratch_solves = 0;   // full two-phase primal runs
    long dual_reopts = 0;      // successful dual-simplex re-optimizations
    long dual_fallbacks = 0;   // reoptimize() calls that fell back to scratch
    long dual_limit = 0;       // ... of which: dual pivot cap hit
    long dual_numeric = 0;     // ... of which: numeric trouble
    long restore_fallbacks = 0;  // ... of which: dual feasibility unrestorable
    long total_pivots = 0;

    // Basis-representation maintenance (sparse LU + eta file; the dense
    // oracle only counts factorizations and periodic triggers).
    long factorizations = 0;     // basis (re)factorizations performed
    long eta_updates = 0;        // product-form updates appended
    long refactor_periodic = 0;  // refactorizations: pivot-count schedule
    long refactor_eta = 0;       // refactorizations: eta-file growth
    long refactor_drift = 0;     // refactorizations: numeric drift
    long max_eta_len = 0;        // longest eta file reached between refactors
  };
  [[nodiscard]] const Stats& stats() const;

 private:
  std::unique_ptr<detail::EngineImpl> impl_;
};

}  // namespace archex::lp
