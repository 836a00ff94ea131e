// Ablation: ILP engines on the architecture-selection models.
//
// Two axes on one instance ladder:
//  * LP-based branch & bound vs Balas implicit enumeration (no LP) — the
//    base EPS ILP's relaxation is informative, so B&B explores few nodes,
//    while Balas' per-row interval pruning degrades fast with size;
//  * sparse LU + eta-file basis vs the dense explicit-inverse oracle inside
//    the simplex engine — same pivot rules, different linear algebra; the
//    ILP-AR encodings are the large instances where per-pivot cost matters.
//
// Besides the human-readable table, every run is appended to a JSON report
// (default BENCH_solver.json, --json=PATH to override) under the
// "solver_ablation" key: per-instance solve time, objective, nodes, pivots
// and the eta/refactorization/presolve counters, plus the sparse-vs-dense
// speedup on the largest ILP-AR instance.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/arch_ilp.hpp"
#include "core/ilp_ar.hpp"
#include "core/ilp_mr.hpp"
#include "eps/eps_template.hpp"
#include "ilp/solver.hpp"
#include "rel/eval_cache.hpp"
#include "support/table.hpp"

namespace {

using namespace archex;

struct Instance {
  std::string name;
  int generators = 0;
  bool reliability = false;   // append the ILP-AR encoding
  double target = 0.0;        // r* for the encoding
  bool run_balas = false;     // Balas explodes beyond the small sizes
};

struct RunRecord {
  std::string engine;
  ilp::IlpResult result;
  /// Time budget the run was given; lets the JSON flag budget-capped runs
  /// whose node/time numbers measure throughput, not proven-tree size.
  double budget_seconds = 0.0;
};

bool budget_capped(const ilp::IlpResult& result, double budget_seconds) {
  return result.status == ilp::IlpStatus::kTimeLimit ||
         (budget_seconds > 0.0 && result.solve_seconds >= budget_seconds);
}

json::Value run_to_json(const RunRecord& run) {
  const auto count = [](long v) {
    return json::Value(static_cast<long long>(v));
  };
  json::Object o;
  o["engine"] = run.engine;
  o["status"] = to_string(run.result.status);
  o["seconds"] = run.result.solve_seconds;
  o["budget_seconds"] = run.budget_seconds;
  o["budget_capped"] = budget_capped(run.result, run.budget_seconds);
  o["objective"] = run.result.objective;
  o["nodes"] = count(run.result.nodes_explored);
  o["nodes_pruned"] = count(run.result.nodes_pruned);
  o["steals"] = count(run.result.steal_count);
  o["threads"] = json::Value(static_cast<long long>(run.result.threads_used));
  o["lp_pivots"] = count(run.result.lp_pivots);
  o["lp_scratch_solves"] = count(run.result.lp_scratch_solves);
  o["lp_dual_reopts"] = count(run.result.lp_dual_reopts);
  o["lp_dual_fallbacks"] = count(run.result.lp_dual_fallbacks);
  o["lp_factorizations"] = count(run.result.lp_factorizations);
  o["lp_eta_updates"] = count(run.result.lp_eta_updates);
  o["lp_refactor_eta"] = count(run.result.lp_refactor_eta);
  o["lp_refactor_drift"] = count(run.result.lp_refactor_drift);
  o["lp_max_eta_len"] = count(run.result.lp_max_eta_len);
  o["presolve_fixed_variables"] = count(run.result.presolve_fixed_variables);
  o["presolve_rows_removed"] = count(run.result.presolve_rows_removed);
  o["presolve_bound_tightenings"] =
      count(run.result.presolve_bound_tightenings);
  o["rc_fixings"] = count(run.result.rc_fixings);
  o["pseudocost_branches"] = count(run.result.pseudocost_branches);
  o["nogoods_learned"] = count(run.result.nogoods_learned);
  o["nogood_prunings"] = count(run.result.nogood_prunings);
  o["nogood_store_size"] = count(run.result.nogood_store_size);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_solver.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  // The largest ILP-AR instance comes last; its sparse/dense pair feeds the
  // headline speedup number.
  const std::vector<Instance> instances = {
      {"eps-base-g1", 1, false, 0.0, true},
      {"eps-base-g2", 2, false, 0.0, true},
      {"eps-base-g3", 3, false, 0.0, false},
      {"ilp-ar-g1", 1, true, 2e-3, false},
      {"ilp-ar-g2", 2, true, 2e-6, false},
  };

  std::puts("=== Solver ablation: B&B (sparse/dense basis) vs Balas ===\n");
  TextTable table({"instance", "vars", "rows", "engine", "status", "time (s)",
                   "cost", "nodes", "pivots", "etas", "refactors"});

  json::Array instances_json;
  double largest_sparse_s = 0.0, largest_dense_s = 0.0;
  std::string largest_name;

  for (const Instance& inst : instances) {
    eps::EpsSpec spec;
    spec.num_generators = inst.generators;
    const eps::EpsTemplate eps = eps::make_eps_template(spec);
    core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
    if (inst.reliability) {
      core::IlpArOptions options;
      options.target_failure = inst.target;
      core::encode_ilp_ar(ilp, options);
    }
    const ilp::Model& model = ilp.model();

    std::vector<RunRecord> runs;
    for (const bool dense : {false, true}) {
      ilp::BranchAndBoundOptions bopt;
      bopt.time_limit_seconds = 120.0;
      bopt.lp.dense_basis = dense;
      ilp::BranchAndBoundSolver solver(bopt);
      runs.push_back({dense ? "bnb-dense" : "bnb-sparse", solver.solve(model),
                      bopt.time_limit_seconds});
    }
    if (inst.run_balas && model.pure_binary()) {
      ilp::BalasOptions bopt;
      bopt.max_nodes = 200'000'000;
      bopt.time_limit_seconds = 10.0;  // the limit status IS the data point
      ilp::BalasSolver solver(bopt);
      runs.push_back({"balas", solver.solve(model), bopt.time_limit_seconds});
    }

    for (const RunRecord& run : runs) {
      table.add_row(
          {inst.name, format_count(model.num_variables()),
           format_count(model.num_rows()), run.engine,
           to_string(run.result.status),
           format_fixed(run.result.solve_seconds, 3),
           run.result.optimal() ? format_fixed(run.result.objective, 0) : "-",
           format_count(run.result.nodes_explored),
           format_count(run.result.lp_pivots),
           format_count(run.result.lp_eta_updates),
           format_count(run.result.lp_factorizations)});
    }
    std::fputs(table.to_string().c_str(), stdout);
    std::fflush(stdout);
    std::puts("");

    json::Object record;
    record["instance"] = inst.name;
    record["generators"] = inst.generators;
    record["variables"] = model.num_variables();
    record["rows"] = model.num_rows();
    json::Array runs_json;
    for (const RunRecord& run : runs) runs_json.push_back(run_to_json(run));
    record["runs"] = std::move(runs_json);
    instances_json.push_back(std::move(record));

    if (inst.reliability) {
      largest_name = inst.name;
      largest_sparse_s = runs[0].result.solve_seconds;
      largest_dense_s = runs[1].result.solve_seconds;
    }
  }

  const double speedup =
      largest_sparse_s > 0.0 ? largest_dense_s / largest_sparse_s : 0.0;
  std::printf("sparse-basis speedup on %s: %.2fx (dense %.3fs / sparse %.3fs)\n",
              largest_name.c_str(), speedup, largest_dense_s,
              largest_sparse_s);

  // Speedup vs threads on the largest ILP-AR instance: the parallel
  // work-stealing tree search against the serial baseline (threads = 0).
  // Efficiency is bounded by the host's cores — the per-worker node counts
  // in the JSON show whether the pool kept every worker fed.
  std::puts("\n=== Parallel branch & bound: speedup vs threads (ilp-ar-g2) ===\n");
  json::Array scaling_json;
  {
    eps::EpsSpec spec;
    spec.num_generators = 2;
    const eps::EpsTemplate eps = eps::make_eps_template(spec);
    core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
    core::IlpArOptions options;
    options.target_failure = 2e-6;
    core::encode_ilp_ar(ilp, options);
    const ilp::Model& model = ilp.model();

    TextTable scaling({"threads", "status", "time (s)", "speedup", "nodes",
                       "pruned", "steals"});
    double serial_s = 0.0;
    for (const int threads : {0, 2, 4, 8}) {
      ilp::BranchAndBoundOptions bopt;
      bopt.time_limit_seconds = 120.0;
      bopt.threads = threads;
      ilp::BranchAndBoundSolver solver(bopt);
      const ilp::IlpResult res = solver.solve(model);
      if (threads == 0) serial_s = res.solve_seconds;
      const double thread_speedup =
          res.solve_seconds > 0.0 ? serial_s / res.solve_seconds : 0.0;
      scaling.add_row({std::to_string(threads == 0 ? 1 : threads),
                       to_string(res.status),
                       format_fixed(res.solve_seconds, 3),
                       format_fixed(thread_speedup, 2),
                       format_count(res.nodes_explored),
                       format_count(res.nodes_pruned),
                       format_count(res.steal_count)});
      std::fputs(scaling.to_string().c_str(), stdout);
      std::fflush(stdout);
      std::puts("");

      json::Object o;
      o["threads"] = threads;
      o["status"] = to_string(res.status);
      o["seconds"] = res.solve_seconds;
      o["budget_capped"] = budget_capped(res, bopt.time_limit_seconds);
      o["objective"] = res.objective;
      o["speedup_vs_serial"] = thread_speedup;
      o["nodes"] = static_cast<long long>(res.nodes_explored);
      o["nodes_pruned"] = static_cast<long long>(res.nodes_pruned);
      o["steals"] = static_cast<long long>(res.steal_count);
      json::Array worker_nodes;
      for (long nodes : res.worker_nodes) {
        worker_nodes.push_back(static_cast<long long>(nodes));
      }
      o["worker_nodes"] = std::move(worker_nodes);
      json::Array worker_pivots;
      for (long pivots : res.worker_lp_iterations) {
        worker_pivots.push_back(static_cast<long long>(pivots));
      }
      o["worker_lp_iterations"] = std::move(worker_pivots);
      scaling_json.push_back(std::move(o));
    }
  }

  // Conflict-learning ablation (DESIGN.md §4g). Two workloads, reported
  // under one convention: eps-base-g3 ILP-MR runs into the
  // per-call budget, so its node counts measure throughput within an equal
  // budget (budget_capped=true in the JSON); eps-base-g2 ILP-MR runs to
  // proven optimality, so its node counts are real tree sizes and the
  // node-reduction number there is the one to quote.
  std::puts("\n=== Conflict-learning ablation: ILP-MR on eps-base-g3/g2 ===\n");
  json::Object learning_section;
  {
    TextTable learn_table({"workload", "learning", "status", "capped",
                           "iters", "solver (s)", "nodes", "learned",
                           "prunings", "store", "oracle", "cost"});
    const struct Workload {
      std::string name;
      int generators = 0;
      double target = 0.0;
      const char* json_key = nullptr;
    } workloads[] = {
        {"eps-base-g3", 3, 2e-10, "budgeted_g3"},
        {"eps-base-g2", 2, 4e-7, "to_optimality_g2"},
    };
    for (const Workload& wl : workloads) {
      eps::EpsSpec spec;
      spec.num_generators = wl.generators;
      const eps::EpsTemplate eps = eps::make_eps_template(spec);
      rel::EvalCache cache;  // identical analysis work across both configs

      json::Array runs_json;
      long nodes_off = 0, nodes_on = 0;
      for (const bool learning : {false, true}) {
        core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
        ilp::BranchAndBoundOptions bopt;
        bopt.time_limit_seconds = 120.0;
        bopt.learning = learning;
        ilp::BranchAndBoundSolver solver(bopt);
        core::IlpMrOptions options;
        options.target_failure = wl.target;
        options.accept_incumbent = true;
        options.max_iterations = 30;
        options.cache = &cache;
        const core::IlpMrReport rep = core::run_ilp_mr(ilp, solver, options);
        (learning ? nodes_on : nodes_off) = rep.solver_nodes;

        learn_table.add_row(
            {wl.name, learning ? "on" : "off", to_string(rep.status),
             rep.solver_limit_hits > 0 ? "yes" : "no",
             std::to_string(rep.num_iterations()),
             format_fixed(rep.solver_seconds, 3),
             format_count(rep.solver_nodes),
             format_count(rep.solver_nogoods_learned),
             format_count(rep.solver_nogood_prunings),
             format_count(rep.solver_nogood_store_size),
             format_count(rep.oracle_nogoods),
             rep.configuration
                 ? format_fixed(rep.configuration->total_cost(), 0)
                 : "-"});
        std::fputs(learn_table.to_string().c_str(), stdout);
        std::fflush(stdout);
        std::puts("");

        json::Object o;
        o["learning"] = learning;
        o["status"] = to_string(rep.status);
        o["iterations"] = rep.num_iterations();
        o["solver_seconds"] = rep.solver_seconds;
        o["budget_capped"] = rep.solver_limit_hits > 0;
        o["solver_limit_hits"] =
            static_cast<long long>(rep.solver_limit_hits);
        o["nodes"] = static_cast<long long>(rep.solver_nodes);
        o["nodes_pruned"] = static_cast<long long>(rep.solver_nodes_pruned);
        o["nogoods_learned"] =
            static_cast<long long>(rep.solver_nogoods_learned);
        o["nogood_prunings"] =
            static_cast<long long>(rep.solver_nogood_prunings);
        o["nogood_store_size"] =
            static_cast<long long>(rep.solver_nogood_store_size);
        o["oracle_nogoods"] = static_cast<long long>(rep.oracle_nogoods);
        if (rep.configuration) o["cost"] = rep.configuration->total_cost();
        runs_json.push_back(std::move(o));
      }

      const double node_reduction =
          nodes_on > 0 ? static_cast<double>(nodes_off) /
                             static_cast<double>(nodes_on)
                       : 0.0;
      std::printf("%s node reduction, learning on vs off: %.2fx "
                  "(%ld -> %ld)\n\n",
                  wl.name.c_str(), node_reduction, nodes_off, nodes_on);

      json::Object wl_json;
      wl_json["instance"] = wl.name;
      wl_json["workload"] = std::string("ilp-mr-learncons");
      wl_json["target_failure"] = wl.target;
      wl_json["runs"] = std::move(runs_json);
      wl_json["nodes_learning_off"] = static_cast<long long>(nodes_off);
      wl_json["nodes_learning_on"] = static_cast<long long>(nodes_on);
      wl_json["node_reduction_on_vs_off"] = node_reduction;
      learning_section[wl.json_key] = std::move(wl_json);
    }
    if (!bench::write_bench_section(
            json_path, "learning", json::Value(std::move(learning_section)))) {
      std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s (section \"learning\")\n", json_path.c_str());
  }

  json::Object section;
  section["instances"] = std::move(instances_json);
  section["threads_scaling_instance"] = std::string("ilp-ar-g2");
  section["threads_scaling"] = std::move(scaling_json);
  section["largest_instance"] = largest_name;
  section["largest_dense_seconds"] = largest_dense_s;
  section["largest_sparse_seconds"] = largest_sparse_s;
  section["sparse_speedup_largest"] = speedup;
  if (!bench::write_bench_section(json_path, "solver_ablation",
                                  json::Value(std::move(section)))) {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s (section \"solver_ablation\")\n", json_path.c_str());
  return 0;
}
