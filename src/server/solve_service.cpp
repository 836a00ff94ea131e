#include "server/solve_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <optional>
#include <utility>

#include "core/ilp_ar.hpp"
#include "core/ilp_mr.hpp"
#include "core/pareto.hpp"
#include "eps/eps_template.hpp"
#include "ilp/solver.hpp"
#include "rel/exact.hpp"
#include "support/stopwatch.hpp"

namespace archex::server {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Selected-edge indices of a configuration, for the response.
std::vector<int> selected_edges(const core::Configuration& config) {
  std::vector<int> out;
  const auto& selection = config.selection();
  for (std::size_t k = 0; k < selection.size(); ++k) {
    if (selection[k]) out.push_back(static_cast<int>(k));
  }
  return out;
}

/// Instance pinned down by the request: the template plus a builder for the
/// base ILP (EPS requirement pack for procedural instances, the generic
/// sink-fed rule for inline templates — mirroring archex_cli).
struct Instance {
  core::Template tmpl;
  std::optional<eps::EpsTemplate> eps;  // grouping, when procedural

  [[nodiscard]] core::ArchitectureIlp make_base_ilp() const {
    if (eps) {
      core::ArchitectureIlp ilp(tmpl);
      eps::apply_eps_requirements(ilp, *eps);
      return ilp;
    }
    core::ArchitectureIlp ilp(tmpl);
    ilp.require_all_sinks_fed();
    return ilp;
  }
};

Instance make_instance(const core::SolveRequest& request) {
  Instance instance;
  if (request.eps_generators) {
    eps::EpsSpec spec;
    spec.num_generators = *request.eps_generators;
    instance.eps = eps::make_eps_template(spec);
    instance.tmpl = instance.eps->tmpl;
  } else {
    instance.tmpl = *request.tmpl;
  }
  return instance;
}

/// True when `deadline` has passed — used to refine a solver-failure status
/// into "time_limit" (the B&B reports kTimeLimit through kSolverFailure at
/// the synthesis layer).
bool expired(Clock::time_point deadline) { return Clock::now() >= deadline; }

std::string synthesis_status_string(core::SynthesisStatus status,
                                    Clock::time_point deadline) {
  switch (status) {
    case core::SynthesisStatus::kSuccess: return "optimal";
    case core::SynthesisStatus::kUnfeasible: return "unfeasible";
    case core::SynthesisStatus::kIterationLimit: return "iteration_limit";
    case core::SynthesisStatus::kSolverFailure:
      return expired(deadline) ? "time_limit" : "solver_failure";
  }
  return "error";
}

}  // namespace

std::uint64_t problem_family_key(const core::SolveRequest& req,
                                 const core::Template& tmpl) {
  std::uint64_t h = core::template_signature(tmpl);
  h = mix64(h, static_cast<std::uint64_t>(req.mode));
  std::uint64_t target_bits = 0;
  static_assert(sizeof target_bits == sizeof req.target_failure);
  std::memcpy(&target_bits, &req.target_failure, sizeof target_bits);
  h = mix64(h, target_bits);
  // The instance source pins the base encoding (EPS requirement pack vs
  // generic sink-fed), hence the variable numbering.
  h = mix64(h, req.eps_generators.has_value() ? 1u : 2u);
  return h;
}

SolveService::SolveService(SolveServiceOptions options)
    : options_(options),
      cache_(options.cache_entries, options.cache_shards) {}

core::SolveResponse SolveService::handle(const core::SolveRequest& request) {
  core::SolveResponse response;
  response.id = request.id;

  Stopwatch watch;
  watch.start();

  // Request budget: envelope value clamped by the service ceiling, falling
  // back to the default when absent. Both the solver's tree search and the
  // exact reliability analyses poll this absolute deadline.
  double budget_seconds = request.deadline_seconds > 0.0
                              ? std::min(request.deadline_seconds,
                                         options_.max_deadline_seconds)
                              : options_.default_deadline_seconds;
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(budget_seconds));

  try {
    const Instance instance = make_instance(request);

    rel::ExactMethod method = rel::kDefaultExactMethod;
    if (!request.method.empty()) {
      const auto parsed = rel::parse_exact_method(request.method);
      if (!parsed) {
        response.status = "error";
        response.error = request.id + ": $.method: unknown exact method \"" +
                         request.method + "\"";
        return response;
      }
      method = *parsed;
    }

    ilp::BranchAndBoundOptions bopt;
    bopt.time_limit_seconds = budget_seconds;
    bopt.deadline = deadline;
    bopt.threads =
        std::clamp(request.threads, 0, options_.max_solver_threads);
    bopt.learning = options_.learning;
    ilp::BranchAndBoundSolver solver(bopt);

    if (request.mode == core::SolveMode::kMr) {
      core::ArchitectureIlp ilp = instance.make_base_ilp();
      core::IlpMrOptions opt;
      opt.target_failure = request.target_failure;
      opt.lazy_strategy = request.lazy;
      opt.method = method;
      opt.cache = &cache_;
      opt.deadline = deadline;
      if (options_.learning) {
        opt.store =
            registry_.acquire(problem_family_key(request, instance.tmpl));
      }
      const core::IlpMrReport report = core::run_ilp_mr(ilp, solver, opt);
      response.status = synthesis_status_string(report.status, deadline);
      response.iterations = report.num_iterations();
      response.solver_nodes = report.solver_nodes;
      response.nogood_store_size = report.solver_nogood_store_size;
      response.nogood_prunings = report.solver_nogood_prunings;
      if (report.configuration) {
        response.cost = report.configuration->total_cost();
        response.failure = report.failure;
        response.selected_edges = selected_edges(*report.configuration);
      }
    } else if (request.mode == core::SolveMode::kAr) {
      core::ArchitectureIlp ilp = instance.make_base_ilp();
      core::IlpArOptions opt;
      opt.target_failure = request.target_failure;
      opt.cache = &cache_;
      opt.method = method;
      opt.deadline = deadline;
      const core::IlpArReport report = core::run_ilp_ar(ilp, solver, opt);
      response.status = synthesis_status_string(report.status, deadline);
      response.iterations = 1;
      response.solver_nodes = report.solver_nodes;
      response.nogood_store_size = report.solver_nogood_store_size;
      response.nogood_prunings = report.solver_nogood_prunings;
      if (report.configuration) {
        response.cost = report.configuration->total_cost();
        response.failure = report.exact_failure;
        response.approx_failure = report.approx_failure;
        response.selected_edges = selected_edges(*report.configuration);
      }
    } else {
      core::ParetoOptions opt;
      opt.initial_target = request.initial_target;
      opt.tighten_factor = request.tighten_factor;
      opt.max_points = request.max_points;
      opt.cache = &cache_;
      opt.method = method;
      opt.deadline = deadline;
      const core::ParetoFrontier frontier = core::sweep_pareto_frontier(
          [&instance] { return instance.make_base_ilp(); }, solver, opt);
      response.iterations = static_cast<int>(frontier.points.size());
      response.solver_nodes = frontier.solver_nodes;
      response.nogood_prunings = frontier.solver_nogood_prunings;
      for (const core::ParetoPoint& point : frontier.points) {
        core::SolveResponse::Point p;
        p.target = point.target;
        p.cost = point.configuration.total_cost();
        p.approx_failure = point.approx_failure;
        p.exact_failure = point.exact_failure;
        p.selected_edges = selected_edges(point.configuration);
        response.points.push_back(std::move(p));
      }
      if (!frontier.points.empty()) {
        // Best point: the most reliable architecture the sweep reached.
        const core::ParetoPoint& best = frontier.points.back();
        // A complete sweep ends with kSuccess (max_points cap or a
        // tightening stall) or kUnfeasible (template exhausted). Anything
        // else means the frontier was cut short — by the deadline or a
        // solver failure — and the partial point list must not claim
        // "optimal".
        const bool complete =
            frontier.terminal_status == core::SynthesisStatus::kSuccess ||
            frontier.terminal_status == core::SynthesisStatus::kUnfeasible;
        response.status =
            complete ? "optimal"
                     : synthesis_status_string(frontier.terminal_status,
                                               deadline);
        response.cost = best.configuration.total_cost();
        response.failure = best.exact_failure;
        response.selected_edges = selected_edges(best.configuration);
      } else {
        response.status =
            synthesis_status_string(frontier.terminal_status, deadline);
        // An empty sweep that "succeeded" cannot happen; map it defensively.
        if (response.status == "optimal") response.status = "solver_failure";
      }
    }
  } catch (const rel::TimeoutError&) {
    response.status = "time_limit";
    response.error = "reliability analysis exceeded the request deadline";
  } catch (const core::SpecError& e) {
    response.status = "error";
    response.error = e.what();
  } catch (const std::exception& e) {
    response.status = "error";
    response.error = e.what();
  }

  watch.stop();
  response.solve_seconds = watch.elapsed_seconds();
  const rel::EvalCache::Stats stats = cache_.stats();
  response.cache_hits = stats.hits;
  response.cache_misses = stats.misses;
  response.cache_hit_rate = stats.hit_rate();
  return response;
}

}  // namespace archex::server
