#include "core/ilp_ar.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "core/reach_encoder.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace archex::core {

namespace {

using graph::NodeId;
using graph::TypeId;
using ilp::LinExpr;
using ilp::Var;

}  // namespace

IlpArSize encode_ilp_ar(ArchitectureIlp& ilp, const IlpArOptions& options) {
  const Template& tmpl = ilp.arch_template();
  const graph::Partition part = tmpl.partition();
  const std::vector<double> p_type = tmpl.type_failure_probs();
  const double target = options.target_failure;

  ARCHEX_REQUIRE(target > 0.0 && target < 1.0,
                 "target failure probability must lie in (0, 1)");

  Stopwatch setup;
  setup.start();

  const int rows_before = ilp.model().num_rows();
  const int vars_before = ilp.model().num_variables();

  // The connectivity indicators' walk-length bound is the paper's η_n with
  // n = number of types.
  const int walk_len = part.num_types();
  // Exact indicators: eq. (11) counts true connectivity, so one-sided
  // variables would let the solver under-claim redundancy (see header).
  ReachEncoder encoder(ilp, ReachHonesty::kExact);

  for (NodeId sink : tmpl.sinks()) {
    // Every sink must genuinely be linked to a source; eq. (9) alone cannot
    // force this (a fully disconnected type contributes zero).
    const auto fed = encoder.from_sources(sink, walk_len);
    ARCHEX_REQUIRE(fed.has_value(),
                   "template offers no source-to-sink walk for sink " +
                       tmpl.component(sink).name);
    ilp.model().add_row(LinExpr(*fed) >= 1.0,
                        "connected_s" + std::to_string(sink));

    LinExpr reliability;  // LHS of eq. (9), scaled by 1/r*
    for (TypeId t = 0; t < part.num_types(); ++t) {
      const auto ti = static_cast<std::size_t>(t);

      // Connectivity indicators (eq. 11) for every member that could
      // possibly be linked; unreachable members contribute a constant 0.
      LinExpr count;
      int k_max = 0;
      for (NodeId w : part.members(t)) {
        if (const auto c = encoder.connected_between(w, sink, walk_len)) {
          count += *c;
          ++k_max;
        }
      }
      if (k_max == 0) continue;  // the type can never serve this sink

      // Redundancy-degree selectors x_vjk (eq. 10 + the counting link).
      std::vector<Var> x;
      LinExpr one_hot;
      LinExpr weighted;
      for (int k = 0; k <= k_max; ++k) {
        const Var xk = ilp.model().add_binary(
            "x_s" + std::to_string(sink) + "_t" + std::to_string(t) + "_k" +
            std::to_string(k));
        x.push_back(xk);
        one_hot += xk;
        weighted.add_term(xk, static_cast<double>(k));
      }
      ilp.model().add_row(std::move(one_hot) == 1.0);
      weighted -= count;
      ilp.model().add_row(std::move(weighted) == 0.0);

      // Contribution k * p_j^k to eq. (9). Terms that alone exceed r* make
      // their selector infeasible outright; fixing it keeps the scaled row's
      // coefficients within [0, 1].
      const double p = p_type[ti];
      for (int k = 1; k <= k_max; ++k) {
        const double term = static_cast<double>(k) * std::pow(p, k);
        if (term > target) {
          ilp.model().fix(x[static_cast<std::size_t>(k)], 0.0);
        } else if (term > 0.0) {
          reliability.add_term(x[static_cast<std::size_t>(k)], term / target);
        }
      }
    }
    ilp.model().add_row(std::move(reliability) <= 1.0,
                        "reliability_s" + std::to_string(sink));
  }

  setup.stop();
  IlpArSize size;
  size.num_constraints = ilp.model().num_rows() - rows_before;
  size.num_variables = ilp.model().num_variables() - vars_before;
  size.setup_seconds = setup.elapsed_seconds();
  return size;
}

IlpArReport run_ilp_ar(ArchitectureIlp& ilp, ilp::IlpSolver& solver,
                       const IlpArOptions& options) {
  IlpArReport report;

  const IlpArSize size = encode_ilp_ar(ilp, options);
  report.setup_seconds = size.setup_seconds;
  report.num_constraints = ilp.model().num_rows();
  report.num_variables = ilp.model().num_variables();

  Stopwatch solve;
  solve.start();
  const ilp::IlpResult result = solver.solve(ilp.model());
  solve.stop();
  report.solver_seconds = solve.elapsed_seconds();
  report.solver_nodes = result.nodes_explored;
  report.solver_nodes_pruned = result.nodes_pruned;
  report.solver_steals = result.steal_count;
  report.solver_rc_fixings = result.rc_fixings;
  report.solver_pseudocost_branches = result.pseudocost_branches;
  report.solver_nogoods_learned = result.nogoods_learned;
  report.solver_nogood_prunings = result.nogood_prunings;
  report.solver_nogood_store_size = result.nogood_store_size;

  if (result.status == ilp::IlpStatus::kInfeasible) {
    report.status = SynthesisStatus::kUnfeasible;
    return report;
  }
  const bool usable =
      result.optimal() || (options.accept_incumbent && !result.x.empty());
  if (!usable) {
    report.status = SynthesisStatus::kSolverFailure;
    return report;
  }

  Configuration config = ilp.extract(result);
  report.approx_failure = config.worst_approximate_failure();
  const rel::EvalContext ctx{options.cache, options.deadline};
  report.exact_failure = config.worst_failure_probability(ctx, options.method);
  report.status = SynthesisStatus::kSuccess;
  report.configuration = std::move(config);
  return report;
}

}  // namespace archex::core
