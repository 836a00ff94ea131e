#include "core/ilp_mr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "core/flow_encoder.hpp"
#include "core/reach_encoder.hpp"
#include "graph/bool_matrix.hpp"
#include "graph/paths.hpp"
#include "ilp/nogood.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace archex::core {

namespace {

using graph::NodeId;
using graph::TypeId;

/// LEARNCONS working state kept across iterations: the reach encoder reuses
/// auxiliary variables, and per-(sink, type) targets guarantee progress (a
/// new row is only added when it strictly raises the enforced path count,
/// which is bounded by the type size — so the loop terminates).
class ConstraintLearner {
 public:
  ConstraintLearner(ArchitectureIlp& ilp, PathEncoding encoding)
      : ilp_(ilp),
        tmpl_(ilp.arch_template()),
        part_(tmpl_.partition()),
        encoding_(encoding),
        walk_encoder_(ilp),
        flow_encoder_(ilp) {}

  /// ESTPATH: k = floor(log(r*/r) / log(rho)) with rho the failure
  /// probability of one existing path of the worst sink (conservative when
  /// paths are not independent, as the paper notes).
  [[nodiscard]] int estimate_paths(double failure, double target,
                                   const Configuration& config,
                                   NodeId worst_sink) const {
    if (failure <= 0.0 || failure <= target) return 0;
    const double rho = single_path_failure(config, worst_sink);
    if (rho <= 0.0 || rho >= 1.0) return 0;
    const double ratio = target / failure;  // < 1 here
    if (ratio <= 0.0) return 0;
    const double k = std::log(ratio) / std::log(rho);
    if (!std::isfinite(k) || k <= 0.0) return 0;
    // Cap at the largest type size: more redundancy cannot be enforced.
    int cap = 0;
    for (TypeId t = 0; t < part_.num_types(); ++t) {
      cap = std::max(cap, static_cast<int>(part_.members(t).size()));
    }
    return std::min(static_cast<int>(k), cap);
  }

  /// LEARNCONS body: returns the number of rows added (0 -> UNFEASIBLE).
  int learn(const Configuration& config, int k) {
    const graph::Digraph selected = config.selected_graph();
    int added = 0;
    for (NodeId sink : tmpl_.sinks()) {
      if (k >= 1) {
        // All non-sink types, from the layer next to the sinks backwards
        // (T_{n-1}, ..., T_1 in the paper's 1-based notation).
        for (TypeId t = part_.num_types() - 2; t >= 0; --t) {
          added += add_path(sink, t, k, selected);
        }
      } else {
        const TypeId t = find_min_red_type(sink, selected);
        if (t >= 0) added += add_path(sink, t, 1, selected);
      }
    }
    return added;
  }

 private:
  /// Walk length for connecting type t to a sink. The walk-indicator
  /// encoding uses the paper's n - i + 1 (layer distance plus one same-type
  /// hop); the flow encoding imposes no length cap, so redundancy is counted
  /// with unbounded walks to match.
  [[nodiscard]] int walk_length(TypeId t) const {
    if (encoding_ == PathEncoding::kFlow) {
      return std::max(1, tmpl_.num_components() - 1);
    }
    return part_.num_types() - t;
  }

  /// Number of type-t members with a walk (length <= len) to `sink` in the
  /// given architecture: Σ_w η*_{len}(w, sink).
  [[nodiscard]] int redundancy_count(const graph::Digraph& g, TypeId t,
                                     NodeId sink, int len) const {
    const graph::BoolMatrix eta = graph::walk_indicator(g, len);
    int count = 0;
    for (NodeId w : part_.members(t)) {
      if (w != sink && eta.get(w, sink)) ++count;
    }
    return count;
  }

  /// Upper bound on the achievable count: members with a candidate walk.
  [[nodiscard]] int available_count(TypeId t, NodeId sink, int len) const {
    const graph::BoolMatrix eta =
        graph::walk_indicator(tmpl_.candidate_graph(), len);
    int count = 0;
    for (NodeId w : part_.members(t)) {
      if (w != sink && eta.get(w, sink)) ++count;
    }
    return count;
  }

  /// ADDPATH: enforce eq. (6), Σ_w η_{len}(w, sink) >= current + k (capped
  /// at the template's maximum), over the decision-edge walk indicators.
  int add_path(NodeId sink, TypeId t, int k, const graph::Digraph& selected) {
    const int len = walk_length(t);
    const int current = redundancy_count(selected, t, sink, len);
    const int available = available_count(t, sink, len);
    const int target = std::min(current + k, available);

    auto& enforced = enforced_[{sink, t}];
    if (target <= current || target <= enforced) return 0;

    if (encoding_ == PathEncoding::kFlow) {
      flow_encoder_.require_connected_members(sink, t, target);
    } else {
      ilp::LinExpr count;
      for (NodeId w : part_.members(t)) {
        if (w == sink) continue;
        if (const auto var = walk_encoder_.walk_to(sink, w, len)) {
          count += *var;
        }
      }
      ilp_.model().add_row(std::move(count) >= static_cast<double>(target),
                           "addpath_s" + std::to_string(sink) + "_t" +
                               std::to_string(t) + "_k" +
                               std::to_string(target));
    }
    enforced = target;
    return 1;
  }

  /// FINDMINREDTYPE: the non-sink type with the fewest members connected to
  /// the sink, among types that can still be improved; -1 if none.
  [[nodiscard]] TypeId find_min_red_type(NodeId sink,
                                         const graph::Digraph& selected) const {
    TypeId best = -1;
    int best_count = std::numeric_limits<int>::max();
    for (TypeId t = 0; t + 1 < part_.num_types(); ++t) {
      const int len = walk_length(t);
      const int current = redundancy_count(selected, t, sink, len);
      if (current >= available_count(t, sink, len)) continue;
      const auto it = enforced_.find({sink, t});
      if (it != enforced_.end() && it->second > current) continue;
      if (current < best_count) {
        best_count = current;
        best = t;
      }
    }
    return best;
  }

  /// Failure probability of one existing source->sink path of the current
  /// architecture: rho = 1 - prod (1 - p_v) over the path's nodes.
  [[nodiscard]] double single_path_failure(const Configuration& config,
                                           NodeId sink) const {
    const graph::Digraph g = config.analysis_graph();
    const auto paths =
        graph::enumerate_simple_paths(g, tmpl_.sources(), sink, 1u << 12);
    if (paths.empty()) return 1.0;
    const auto& p = tmpl_.node_failure_probs();
    double survive = 1.0;
    for (NodeId v : paths.front()) {
      survive *= 1.0 - p[static_cast<std::size_t>(v)];
    }
    return 1.0 - survive;
  }

  ArchitectureIlp& ilp_;
  const Template& tmpl_;
  graph::Partition part_;
  PathEncoding encoding_;
  ReachEncoder walk_encoder_;
  FlowEncoder flow_encoder_;
  std::map<std::pair<NodeId, TypeId>, int> enforced_;
};

}  // namespace

IlpMrReport run_ilp_mr(ArchitectureIlp& ilp, ilp::IlpSolver& solver,
                       const IlpMrOptions& options) {
  ARCHEX_REQUIRE(options.target_failure > 0.0 && options.target_failure < 1.0,
                 "target failure probability must lie in (0, 1)");
  ARCHEX_REQUIRE(options.max_iterations >= 1,
                 "need at least one ILP-MR iteration");

  IlpMrReport report;
  Stopwatch solver_watch;
  Stopwatch analysis_watch;
  ConstraintLearner learner(ilp, options.encoding);

  // Unified conflict store (DESIGN.md §4g): when the solver is a
  // BranchAndBoundSolver with learning enabled, one nogood store is shared
  // by every SolveILP iteration. Sound because the loop only ever *adds*
  // rows to the model (the set_nogood_store persistence contract), so an
  // infeasibility conflict from iteration k still holds in iteration k+1.
  // Reliability rejections are fed back as oracle nogoods below.
  std::shared_ptr<ilp::NogoodStore> store;
  if (auto* bnb = dynamic_cast<ilp::BranchAndBoundSolver*>(&solver);
      bnb != nullptr && bnb->options().learning) {
    if (options.store != nullptr) {
      // Caller-persisted store (e.g. the archex_server's per-family
      // registry): oracle nogoods from earlier runs prune this one.
      store = options.store;
    } else {
      store = std::make_shared<ilp::NogoodStore>();
    }
    bnb->set_nogood_store(store);
  }

  // Successive iterates differ by a few components, so factoring recursions
  // share most pivot subproblems and a repeated iterate is a whole-graph hit
  // for either method: always analyze through a cache, preferring the
  // caller's (which may already be warm).
  rel::EvalCache local_cache;
  rel::EvalContext ctx;
  ctx.cache = options.cache != nullptr ? options.cache : &local_cache;
  ctx.deadline = options.deadline;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    solver_watch.start();
    const ilp::IlpResult result = solver.solve(ilp.model());
    solver_watch.stop();
    report.solver_nodes += result.nodes_explored;
    report.solver_nodes_pruned += result.nodes_pruned;
    report.solver_steals += result.steal_count;
    report.solver_rc_fixings += result.rc_fixings;
    report.solver_pseudocost_branches += result.pseudocost_branches;
    report.solver_nogoods_learned += result.nogoods_learned;
    report.solver_nogood_prunings += result.nogood_prunings;
    report.solver_nogood_store_size = result.nogood_store_size;
    if (result.status == ilp::IlpStatus::kTimeLimit ||
        result.status == ilp::IlpStatus::kNodeLimit) {
      ++report.solver_limit_hits;
    }

    if (result.status == ilp::IlpStatus::kInfeasible) {
      report.status = SynthesisStatus::kUnfeasible;
      break;
    }
    const bool usable =
        result.optimal() || (options.accept_incumbent && !result.x.empty());
    if (!usable) {
      report.status = SynthesisStatus::kSolverFailure;
      break;
    }

    Configuration config = ilp.extract(result);

    // RELANALYSIS: exact worst-sink failure, and which sink is worst.
    analysis_watch.start();
    const Template& tmpl = config.architecture_template();
    const auto [failure, worst_sink] = rel::worst_sink_failure(
        config.analysis_graph(), tmpl.sources(), tmpl.sinks(),
        tmpl.node_failure_probs(), ctx, options.method);
    analysis_watch.stop();

    MrIteration log;
    log.cost = config.total_cost();
    log.failure = failure;
    log.num_edges = config.num_selected_edges();
    log.num_components = config.num_used_nodes();

    if (failure <= options.target_failure) {
      report.iterations.push_back(log);
      report.status = SynthesisStatus::kSuccess;
      report.configuration = std::move(config);
      report.failure = failure;
      break;
    }

    if (store != nullptr) {
      // The exact oracle rejected this edge selection, and reliability
      // depends on nothing but the selection — any later solution choosing
      // the same edges extracts the same architecture and fails the same
      // way. Record the full selection as a permanent oracle nogood; nodes
      // whose boxes pin all candidate edges to it are pruned without an LP.
      ilp::Nogood rejected;
      rejected.source = ilp::NogoodSource::kOracle;
      const int num_edges = ilp.arch_template().num_candidate_edges();
      for (int e = 0; e < num_edges; ++e) {
        const ilp::Var v = ilp.edge_var(e);
        (result.value_bool(v) ? rejected.ones : rejected.zeros)
            .push_back(v.id);
      }
      if (store->insert(std::move(rejected)) >= 0) ++report.oracle_nogoods;
    }

    analysis_watch.start();
    const int k = options.lazy_strategy
                      ? 0
                      : learner.estimate_paths(failure,
                                               options.target_failure, config,
                                               worst_sink);
    const int added = learner.learn(config, k);
    analysis_watch.stop();

    log.estimated_k = k;
    log.new_constraints = added;
    report.iterations.push_back(log);

    if (added == 0) {
      // The learnable constraint space is exhausted. With a proven-optimal
      // solve this is the paper's UNFEASIBLE; a time-limited incumbent
      // (accept_incumbent) can be denser than the optimum and exhaust the
      // counts prematurely, so report the weaker verdict in that case.
      report.status = result.optimal() ? SynthesisStatus::kUnfeasible
                                       : SynthesisStatus::kSolverFailure;
      break;
    }
    if (iter + 1 == options.max_iterations) {
      report.status = SynthesisStatus::kIterationLimit;
    }
  }

  report.analysis_seconds = analysis_watch.elapsed_seconds();
  report.solver_seconds = solver_watch.elapsed_seconds();
  report.num_rows = ilp.model().num_rows();
  report.num_variables = ilp.model().num_variables();
  return report;
}

}  // namespace archex::core
