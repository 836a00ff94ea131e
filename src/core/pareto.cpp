#include "core/pareto.hpp"

#include "support/check.hpp"

namespace archex::core {

ParetoFrontier sweep_pareto_frontier(
    const std::function<ArchitectureIlp()>& make_base_ilp,
    ilp::IlpSolver& solver, const ParetoOptions& options) {
  ARCHEX_REQUIRE(options.initial_target > 0.0 && options.initial_target < 1.0,
                 "initial target must lie in (0, 1)");
  ARCHEX_REQUIRE(
      options.tighten_factor > 0.0 && options.tighten_factor < 1.0,
      "tighten factor must lie in (0, 1)");
  ARCHEX_REQUIRE(options.max_points >= 1, "need at least one sweep point");

  ParetoFrontier frontier;
  // Adjacent sweep points share most factoring subproblems (and repeated
  // architectures whole-graph entries); evaluate every step through one
  // cache (the caller's, if provided, which may be warm).
  rel::EvalCache local_cache;
  double target = options.initial_target;
  for (int step = 0; step < options.max_points; ++step) {
    ArchitectureIlp ilp = make_base_ilp();
    IlpArOptions ar;
    ar.target_failure = target;
    ar.accept_incumbent = options.accept_incumbent;
    ar.cache = options.cache != nullptr ? options.cache : &local_cache;
    ar.method = options.method;
    ar.deadline = options.deadline;
    IlpArReport report = run_ilp_ar(ilp, solver, ar);
    frontier.solver_nodes += report.solver_nodes;
    frontier.solver_steals += report.solver_steals;
    frontier.solver_rc_fixings += report.solver_rc_fixings;
    frontier.solver_pseudocost_branches += report.solver_pseudocost_branches;
    frontier.solver_nogoods_learned += report.solver_nogoods_learned;
    frontier.solver_nogood_prunings += report.solver_nogood_prunings;

    frontier.terminal_status = report.status;
    if (report.status != SynthesisStatus::kSuccess) break;

    ParetoPoint point{target, report.configuration->total_cost(),
                      report.approx_failure, report.exact_failure,
                      std::move(*report.configuration)};
    // Guard against a degenerate step: if the achieved estimate did not move
    // below the previous point's, tightening has stalled. The new
    // architecture is dominated by the previous point, so drop it (keeping
    // the frontier strictly decreasing in r̃) and record the stall.
    if (!frontier.points.empty() &&
        point.approx_failure >= frontier.points.back().approx_failure) {
      frontier.tightening_stalled = true;
      frontier.stalled_target = point.target;
      frontier.stalled_approx_failure = point.approx_failure;
      break;
    }
    frontier.points.push_back(std::move(point));

    const double achieved = frontier.points.back().approx_failure;
    if (achieved <= 0.0) break;  // perfectly reliable: nothing tighter
    target = achieved * options.tighten_factor;
  }
  return frontier;
}

}  // namespace archex::core
