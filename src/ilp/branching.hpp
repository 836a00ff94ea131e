// archex/ilp/branching.hpp
//
// Branch-variable selection for the B&B core (DESIGN.md §4f): pseudocost
// branching with a most-fractional fallback, replacing the static
// most-fractional rule. A variable's pseudocost is the average objective
// degradation per unit of fractional distance observed over its past
// branchings, kept separately per direction (the "impact" shape of
// impact-based CP search). Until a variable has reliable observations in
// *both* directions, it competes by fractionality only — so the first
// branchings reproduce the historical most-fractional-in-priority-class
// order, and the pseudocost scores take over as evidence accumulates.
//
// All ties — between fractionality scores and between pseudocost scores —
// resolve to the lowest variable index, which keeps deterministic runs
// reproducible across platforms (no dependence on map iteration order).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ilp/model.hpp"

namespace archex::ilp {

/// Integrality tolerance on the LP relaxation values.
inline constexpr double kIntTol = 1e-6;
/// Observations per direction before a variable's pseudocosts are trusted.
inline constexpr long kPseudocostReliability = 1;

/// Per-variable, per-direction pseudocost record.
struct PseudocostEntry {
  double down_sum = 0.0;
  long down_count = 0;
  double up_sum = 0.0;
  long up_count = 0;
};

/// Pseudocost statistics indexed by model variable. Shared mutable state in
/// the parallel search: the caller guards observe()/score() with a mutex.
class PseudocostTable {
 public:
  explicit PseudocostTable(int num_vars)
      : entries_(static_cast<std::size_t>(num_vars)) {}

  /// Record `per_unit` objective degradation per unit of fractional
  /// distance for one branching of `var` in the given direction.
  void observe(int var, bool up, double per_unit) {
    PseudocostEntry& e = entries_[static_cast<std::size_t>(var)];
    if (up) {
      e.up_sum += per_unit;
      ++e.up_count;
    } else {
      e.down_sum += per_unit;
      ++e.down_count;
    }
  }

  /// True once both directions have at least `threshold` observations.
  [[nodiscard]] bool reliable(int var, long threshold) const {
    const PseudocostEntry& e = entries_[static_cast<std::size_t>(var)];
    return e.down_count >= threshold && e.up_count >= threshold;
  }

  /// Product score: estimated down-degradation times estimated
  /// up-degradation at the given fractional distances. The product favours
  /// variables that move the bound in both children, which is what shrinks
  /// the tree (a one-sided mover leaves one child as hard as the parent).
  [[nodiscard]] double score(int var, double frac_down, double frac_up) const {
    const PseudocostEntry& e = entries_[static_cast<std::size_t>(var)];
    const double down =
        e.down_count > 0 ? e.down_sum / static_cast<double>(e.down_count) : 0.0;
    const double up =
        e.up_count > 0 ? e.up_sum / static_cast<double>(e.up_count) : 0.0;
    constexpr double kEps = 1e-6;
    return std::max(down * frac_down, kEps) * std::max(up * frac_up, kEps);
  }

 private:
  std::vector<PseudocostEntry> entries_;
};

struct BranchChoice {
  int var = -1;  // model variable index, -1 when x is integral within tol
  bool used_pseudocost = false;
};

/// Pick the branching variable at an LP point `x` (model variable space).
/// Candidates are the fractional integral variables of the highest branching
/// priority present. Within that class, the best pseudocost product score
/// among reliable variables wins; when no candidate is reliable, the most
/// fractional wins. Pass `pseudo == nullptr` to force the historical
/// most-fractional rule.
[[nodiscard]] inline BranchChoice select_branch_variable(
    const Model& model, const std::vector<int>& integral,
    const std::vector<double>& x, const PseudocostTable* pseudo) {
  // Pass 1: highest priority class containing a fractional variable.
  int top_priority = std::numeric_limits<int>::min();
  bool any = false;
  for (const int j : integral) {
    const double v = x[static_cast<std::size_t>(j)];
    const double frac = std::min(v - std::floor(v), std::ceil(v) - v);
    if (frac <= kIntTol) continue;
    any = true;
    top_priority = std::max(top_priority, model.branch_priority(Var{j}));
  }
  BranchChoice choice;
  if (!any) return choice;

  // Pass 2: best candidate within the class. Strict `>` comparisons keep
  // every tie at the lowest variable index (`integral` is ascending).
  int best_frac_var = -1;
  double best_frac = 0.0;
  int best_pc_var = -1;
  double best_pc = 0.0;
  for (const int j : integral) {
    const double v = x[static_cast<std::size_t>(j)];
    const double down = v - std::floor(v);
    const double frac = std::min(down, 1.0 - down);
    if (frac <= kIntTol) continue;
    if (model.branch_priority(Var{j}) != top_priority) continue;
    if (frac > best_frac) {
      best_frac = frac;
      best_frac_var = j;
    }
    if (pseudo != nullptr && pseudo->reliable(j, kPseudocostReliability)) {
      const double s = pseudo->score(j, down, 1.0 - down);
      if (s > best_pc) {
        best_pc = s;
        best_pc_var = j;
      }
    }
  }
  if (best_pc_var >= 0) {
    choice.var = best_pc_var;
    choice.used_pseudocost = true;
  } else {
    choice.var = best_frac_var;
  }
  return choice;
}

}  // namespace archex::ilp
