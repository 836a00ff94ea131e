// archex/core/pareto.hpp
//
// Cost/reliability trade-off exploration: enumerate the Pareto frontier of
// (cost, failure probability) attainable from a template, by sweeping the
// reliability requirement with repeated ILP-AR syntheses. Each step
// tightens r* just below the previously *achieved* estimate r̃, so every
// iteration yields a strictly more reliable (and at-least-as-expensive)
// architecture, until the template is exhausted (UNFEASIBLE).
//
// This materializes the trade-off that Fig. 3 of the paper samples at three
// points, as a reusable library feature.
#pragma once

#include <functional>
#include <vector>

#include "core/arch_template.hpp"
#include "core/configuration.hpp"
#include "core/ilp_ar.hpp"
#include "core/synthesis_status.hpp"
#include "ilp/solver.hpp"

namespace archex::core {

struct ParetoPoint {
  double target = 0.0;          // the r* used for this step
  double cost = 0.0;            // eq.-(1) cost of the optimal architecture
  double approx_failure = 0.0;  // r̃ achieved (algebra)
  double exact_failure = 0.0;   // exact r of the architecture
  Configuration configuration;
};

struct ParetoOptions {
  /// Starting requirement (loose); the sweep tightens from here.
  double initial_target = 1e-2;
  /// Multiplicative step applied to the achieved r̃ to form the next,
  /// strictly tighter requirement (must be in (0, 1)).
  double tighten_factor = 0.5;
  /// Hard cap on sweep steps.
  int max_points = 16;
  /// Forwarded to each ILP-AR run.
  bool accept_incumbent = false;
  /// Reliability-evaluation cache shared by every sweep point. Null still
  /// shares one cache *across* the sweep's own steps (adjacent points differ
  /// by a few edges, so their factoring subproblems overlap heavily); pass a
  /// cache to also retain it across sweeps.
  rel::EvalCache* cache = nullptr;
  /// Exact analyzer used to score each sweep point (forwarded to ILP-AR).
  rel::ExactMethod method = rel::kDefaultExactMethod;
  /// Absolute deadline forwarded to each ILP-AR run's exact evaluation.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

struct ParetoFrontier {
  std::vector<ParetoPoint> points;  // ordered from least to most reliable
  /// Status of the step that ended the sweep (kUnfeasible when the template
  /// was exhausted — the expected terminal state).
  SynthesisStatus terminal_status = SynthesisStatus::kUnfeasible;
  /// True when the sweep ended because tightening stalled: a step achieved
  /// an r̃ no better than the previous point's. The stalled architecture is
  /// dominated (no cheaper, no more reliable), so it is *not* added to
  /// `points`; its requirement and estimate are recorded here instead.
  bool tightening_stalled = false;
  double stalled_target = 0.0;          // the r* of the stalled step
  double stalled_approx_failure = 0.0;  // the r̃ it achieved

  // Solver effort aggregated over every sweep step (including the terminal
  // one), for the benches' parallel-efficiency reporting.
  long solver_nodes = 0;
  long solver_steals = 0;
  long solver_rc_fixings = 0;
  long solver_pseudocost_branches = 0;
  long solver_nogoods_learned = 0;
  long solver_nogood_prunings = 0;
};

/// Sweep the frontier. `make_base_ilp` must produce a fresh base ILP
/// (interconnection + power rules) over the same template on every call.
/// Lifetime: the returned configurations reference that template — it must
/// outlive the frontier object.
[[nodiscard]] ParetoFrontier sweep_pareto_frontier(
    const std::function<ArchitectureIlp()>& make_base_ilp,
    ilp::IlpSolver& solver, const ParetoOptions& options = {});

}  // namespace archex::core
