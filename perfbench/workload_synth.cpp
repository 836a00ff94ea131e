// synth: a seeded batch of cold, serial syntheses, each what one
// `archex_cli synth` invocation pays — fresh EPS template, base ILP,
// solver and EvalCache — with the library's default options.
//
// The batch is stratified: every stratum below is a family of problems
// whose solve path is the same for any target inside it (the answers are
// piecewise constant in the target), and each batch takes a fixed number
// of targets from each stratum's golden pool. The seed picks which targets
// and the order, so every seed runs a batch of the same shape and the
// numbers of two seeds can be compared. Each target range lies inside one
// answer (g2: cost 16000 down to 8.0e-4, cost 33000 from 4.0e-7 to
// 2.0e-4, unfeasible below 2.8e-7). Strata stop short of problems that
// cannot be proven within seconds (EPS g3 tight MR, AR g2 below 1e-3),
// whose time and counters depend on when a limit trips.
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "core/ilp_ar.hpp"
#include "core/ilp_mr.hpp"
#include "core/pareto.hpp"
#include "eps/eps_template.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace archex;
namespace js = archex::json;

enum class Kind { kMr, kLazy, kAr, kPareto };

struct Stratum {
  const char* name;
  Kind kind;
  int generators;
  double lo;  // target range, log-uniform
  double hi;
  int pool;   // golden entries
  int picks;  // entries per batch
};

// 24 ops per batch: 9 that take about a millisecond, 7 ILP-AR g2 solves
// (about 0.26 s, 831 rows) and 8 ILP-MR g2 solves that need LEARNCONS
// (0.4-0.7 s, about 1.1k nodes). The median op is an AR solve and the
// tail is MR, whatever the seed.
constexpr Stratum kStrata[] = {
    {"mr-g1", Kind::kMr, 1, 1e-7, 1e-2, 8, 2},
    {"lazy-g1", Kind::kLazy, 1, 1e-7, 1e-2, 8, 1},
    {"ar-g1", Kind::kAr, 1, 1e-5, 1e-2, 8, 2},
    {"pareto-g1", Kind::kPareto, 1, 1e-2, 1e-2, 1, 1},
    {"mr-g2-loose", Kind::kMr, 2, 1e-3, 1e-2, 8, 2},
    {"lazy-g2-loose", Kind::kLazy, 2, 1e-3, 1e-2, 8, 1},
    {"ar-g2", Kind::kAr, 2, 1e-3, 1e-2, 16, 7},
    {"mr-g2-tight", Kind::kMr, 2, 1e-6, 1.5e-4, 12, 3},
    {"lazy-g2-tight", Kind::kLazy, 2, 1e-6, 1.5e-4, 12, 3},
    {"mr-g2-unfeasible", Kind::kMr, 2, 1e-7, 2.5e-7, 4, 1},
    {"lazy-g2-unfeasible", Kind::kLazy, 2, 1e-7, 2.5e-7, 4, 1},
};
constexpr std::uint64_t kPoolSeed = 20150309;

struct Entry {
  const Stratum* stratum = nullptr;
  double target = 0.0;
  // Golden answer.
  std::string status;
  double cost = 0.0;
  double failure = 1.0;
  int points = 0;  // Pareto sweeps only
};

/// What one synthesis returned, plus the counters the traced run reports.
struct Outcome {
  std::string status;
  double cost = 0.0;
  double failure = 1.0;
  int points = 0;
  long nodes = 0;
  long nodes_pruned = 0;
  long nogoods_learned = 0;
  long nogood_prunings = 0;
  long pseudocost_branches = 0;
  long limit_hits = 0;
  long iterations = 0;
  long learncons_rows = 0;
  long oracle_nogoods = 0;
  double mr_solver_s = 0.0;
  double mr_analysis_s = 0.0;
  double ar_setup_s = 0.0;
  double ar_solver_s = 0.0;
  rel::EvalCache::Stats cache;
  /// The last model handed to the solver (kept for the lp probe).
  std::optional<ilp::Model> final_model;

  /// Counters that must repeat exactly when the same op runs again.
  [[nodiscard]] bool same_counters(const Outcome& o) const {
    return status == o.status && nodes == o.nodes &&
           iterations == o.iterations && cache.hits == o.cache.hits &&
           cache.misses == o.cache.misses;
  }
};

eps::EpsTemplate make_template(int generators) {
  eps::EpsSpec spec;
  spec.num_generators = generators;
  return eps::make_eps_template(spec);
}

core::ArchitectureIlp make_base_ilp(const eps::EpsTemplate& eps) {
  core::ArchitectureIlp ilp(eps.tmpl);
  eps::apply_eps_requirements(ilp, eps);
  return ilp;
}

Outcome run_op(const Stratum& s, double target, long op_id,
               bool keep_model) {
  Span op_span("op", op_id);
  Outcome out;
  const eps::EpsTemplate eps = [&] {
    Span span("eps");
    return make_template(s.generators);
  }();
  rel::EvalCache cache;
  ilp::BranchAndBoundSolver solver;

  if (s.kind == Kind::kPareto) {
    core::ParetoOptions opt;
    opt.initial_target = target;
    opt.cache = &cache;
    core::ParetoFrontier frontier;
    {
      Span span("synthesis");
      frontier = core::sweep_pareto_frontier(
          [&] {
            Span encode("encode");
            return make_base_ilp(eps);
          },
          solver, opt);
    }
    out.status = core::to_string(frontier.terminal_status);
    out.points = static_cast<int>(frontier.points.size());
    if (!frontier.points.empty()) {
      out.cost = frontier.points.back().configuration.total_cost();
      out.failure = frontier.points.back().exact_failure;
    }
    out.nodes = frontier.solver_nodes;
    out.nogoods_learned = frontier.solver_nogoods_learned;
    out.nogood_prunings = frontier.solver_nogood_prunings;
    out.pseudocost_branches = frontier.solver_pseudocost_branches;
    out.cache = cache.stats();
    return out;
  }

  core::ArchitectureIlp ilp = [&] {
    Span span("encode");
    return make_base_ilp(eps);
  }();
  if (s.kind == Kind::kAr) {
    core::IlpArOptions opt;
    opt.target_failure = target;
    opt.cache = &cache;
    core::IlpArReport rep;
    {
      Span span("synthesis");
      rep = core::run_ilp_ar(ilp, solver, opt);
    }
    out.status = core::to_string(rep.status);
    if (rep.configuration) {
      out.cost = rep.configuration->total_cost();
      out.failure = rep.exact_failure;
    }
    out.nodes = rep.solver_nodes;
    out.nodes_pruned = rep.solver_nodes_pruned;
    out.nogoods_learned = rep.solver_nogoods_learned;
    out.nogood_prunings = rep.solver_nogood_prunings;
    out.pseudocost_branches = rep.solver_pseudocost_branches;
    out.iterations = 1;
    out.ar_setup_s = rep.setup_seconds;
    out.ar_solver_s = rep.solver_seconds;
    if (rep.status == core::SynthesisStatus::kSolverFailure) {
      out.limit_hits = 1;
    }
  } else {
    core::IlpMrOptions opt;
    opt.target_failure = target;
    opt.lazy_strategy = s.kind == Kind::kLazy;
    opt.cache = &cache;
    core::IlpMrReport rep;
    {
      Span span("synthesis");
      rep = core::run_ilp_mr(ilp, solver, opt);
    }
    out.status = core::to_string(rep.status);
    if (rep.configuration) {
      out.cost = rep.configuration->total_cost();
      out.failure = rep.failure;
    }
    out.nodes = rep.solver_nodes;
    out.nodes_pruned = rep.solver_nodes_pruned;
    out.nogoods_learned = rep.solver_nogoods_learned;
    out.nogood_prunings = rep.solver_nogood_prunings;
    out.pseudocost_branches = rep.solver_pseudocost_branches;
    out.limit_hits = rep.solver_limit_hits;
    out.iterations = rep.num_iterations();
    for (const core::MrIteration& it : rep.iterations) {
      out.learncons_rows += it.new_constraints;
    }
    out.oracle_nogoods = rep.oracle_nogoods;
    out.mr_solver_s = rep.solver_seconds;
    out.mr_analysis_s = rep.analysis_seconds;
  }
  out.cache = cache.stats();
  if (keep_model) out.final_model = ilp.model();
  return out;
}

bool matches_golden(const Entry& e, const Outcome& o) {
  return o.status == e.status && close_rel(o.cost, e.cost) &&
         close_rel(o.failure, e.failure) && o.points == e.points;
}

const Stratum& stratum_named(const std::string& name) {
  for (const Stratum& s : kStrata) {
    if (name == s.name) return s;
  }
  throw std::runtime_error("synth goldens: unknown stratum " + name);
}

std::vector<Entry> load_pool(const std::string& path) {
  std::vector<Entry> pool;
  const js::Value doc = load_json(path);
  for (const js::Value& v : doc.at("entries").as_array()) {
    Entry e;
    e.stratum = &stratum_named(v.at("stratum").as_string());
    e.target = v.at("target").as_number();
    e.status = v.at("status").as_string();
    e.cost = v.at("cost").as_number();
    e.failure = v.at("failure").as_number();
    e.points = v.at("points").as_int();
    pool.push_back(std::move(e));
  }
  return pool;
}

/// The seed's batch: `picks` distinct pool entries per stratum, shuffled.
std::vector<Entry> select_batch(const std::vector<Entry>& pool,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Entry> batch;
  for (const Stratum& s : kStrata) {
    std::vector<const Entry*> members;
    for (const Entry& e : pool) {
      if (e.stratum == &s) members.push_back(&e);
    }
    if (members.size() < static_cast<std::size_t>(s.picks)) {
      throw std::runtime_error(std::string("synth goldens: stratum ") +
                               s.name + " is short");
    }
    rng.shuffle(members);
    for (int i = 0; i < s.picks; ++i) {
      batch.push_back(*members[static_cast<std::size_t>(i)]);
    }
  }
  rng.shuffle(batch);
  return batch;
}

/// Whole batches until `seconds` have passed. Every op is checked against
/// its golden, and against its own first run for counter drift.
struct Phase {
  std::vector<double> latencies;
  std::vector<Outcome> first_cycle;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  long failed = 0;
  long drift = 0;
  double max_rel_err = 0.0;
};

Phase run_phase(const std::vector<Entry>& batch, double seconds,
                bool keep_models, CpuRotation& cpus, long& next_op) {
  Phase phase;
  const double t0 = now_seconds();
  const double c0 = cpu_seconds();
  for (int cycle = 0; cycle == 0 || now_seconds() - t0 < seconds; ++cycle) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Entry& e = batch[i];
      cpus.advance();
      const double start = now_seconds();
      Outcome o = run_op(*e.stratum, e.target, next_op++,
                         keep_models && cycle == 0);
      phase.latencies.push_back(now_seconds() - start);
      if (!matches_golden(e, o)) ++phase.failed;
      phase.max_rel_err =
          std::max(phase.max_rel_err, rel_err(o.failure, e.failure));
      if (o.limit_hits != 0) ++phase.drift;
      if (cycle == 0) {
        phase.first_cycle.push_back(std::move(o));
      } else if (!phase.first_cycle[i].same_counters(o)) {
        ++phase.drift;
      }
    }
  }
  phase.wall_s = now_seconds() - t0;
  phase.cpu_s = cpu_seconds() - c0;
  return phase;
}

double ops_per_s(const Phase& p) {
  return static_cast<double>(p.latencies.size()) / p.wall_s;
}

double ms_since(double t0) { return 1e3 * (now_seconds() - t0); }

/// Per-layer values of one batch (the traced phase's first cycle), plus
/// the encode and lp probes run once per batch op after the timed phases.
LayerValues layer_values(const std::vector<Entry>& batch, const Phase& p) {
  LayerValues v;
  double nodes = 0, pruned = 0, learned = 0, prunings = 0, pseudo = 0;
  double limits = 0, iterations = 0, learncons = 0, oracle = 0;
  double mr_solver = 0, mr_analysis = 0, ar_setup = 0, ar_solver = 0;
  double points = 0, hits = 0, misses = 0, entries = 0;
  std::vector<double> analyze_ms;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Outcome& o = p.first_cycle[i];
    nodes += static_cast<double>(o.nodes);
    pruned += static_cast<double>(o.nodes_pruned);
    learned += static_cast<double>(o.nogoods_learned);
    prunings += static_cast<double>(o.nogood_prunings);
    pseudo += static_cast<double>(o.pseudocost_branches);
    limits += static_cast<double>(o.limit_hits);
    iterations += static_cast<double>(o.iterations);
    learncons += static_cast<double>(o.learncons_rows);
    oracle += static_cast<double>(o.oracle_nogoods);
    mr_solver += o.mr_solver_s;
    mr_analysis += o.mr_analysis_s;
    ar_setup += o.ar_setup_s;
    ar_solver += o.ar_solver_s;
    points += o.points;
    hits += static_cast<double>(o.cache.hits);
    misses += static_cast<double>(o.cache.misses);
    entries += static_cast<double>(o.cache.size);
    const Kind kind = batch[i].stratum->kind;
    if (kind == Kind::kMr || kind == Kind::kLazy) {
      analyze_ms.push_back(1e3 * o.mr_analysis_s);
    }
  }
  v["mr.iterations"] = iterations;
  v["mr.learncons_rows"] = learncons;
  v["mr.oracle_nogoods"] = oracle;
  v["mr.solver_s"] = mr_solver;
  v["mr.analysis_s"] = mr_analysis;
  v["ar.setup_s"] = ar_setup;
  v["ar.solver_s"] = ar_solver;
  v["pareto.points"] = points;
  v["ilp.nodes"] = nodes;
  v["ilp.nodes_pruned"] = pruned;
  v["ilp.nogoods_learned"] = learned;
  v["ilp.nogood_prunings"] = prunings;
  v["ilp.nogood_prune_ratio"] = prunings / nodes;
  v["ilp.pseudocost_branches"] = pseudo;
  v["ilp.limit_hits"] = limits;
  v["ilp.ms_per_node"] = 1e3 * (mr_solver + ar_solver) / nodes;
  v["rel.analyze_ms.p50"] = median(analyze_ms);
  v["rel.analyze_ms.max"] =
      *std::max_element(analyze_ms.begin(), analyze_ms.end());
  v["rel.cache_hits"] = hits;
  v["rel.cache_misses"] = misses;
  v["rel.cache_hit_rate"] = hits / (hits + misses);
  v["rel.cache_entries"] = entries;
  v["rel.max_rel_err"] = p.max_rel_err;

  // Encode probe: the same calls an op makes, timed alone.
  double template_ms = 0, base_ms = 0, ar_ms = 0, rows = 0, vars = 0;
  int ar_ops = 0;
  for (const Entry& e : batch) {
    double t0 = now_seconds();
    const eps::EpsTemplate eps = make_template(e.stratum->generators);
    template_ms += ms_since(t0);
    t0 = now_seconds();
    core::ArchitectureIlp ilp = make_base_ilp(eps);
    base_ms += ms_since(t0);
    if (e.stratum->kind == Kind::kAr) {
      core::IlpArOptions opt;
      opt.target_failure = e.target;
      t0 = now_seconds();
      (void)core::encode_ilp_ar(ilp, opt);
      ar_ms += ms_since(t0);
      ++ar_ops;
    }
    rows += ilp.model().num_rows();
    vars += ilp.model().num_variables();
  }
  const auto n = static_cast<double>(batch.size());
  v["encode.template_ms"] = template_ms / n;
  v["encode.base_ilp_ms"] = base_ms / n;
  v["encode.ar_ms"] = ar_ms / ar_ops;
  v["encode.rows"] = rows / n;
  v["encode.vars"] = vars / n;

  // lp probe: one direct default solve of each op's final model.
  double pivots = 0, factorizations = 0, etas = 0, max_eta = 0, reopts = 0;
  double fallbacks = 0, scratch = 0, rows_removed = 0, fixed = 0;
  double lp_nodes = 0, lp_seconds = 0;
  for (const Outcome& o : p.first_cycle) {
    if (!o.final_model) continue;
    ilp::BranchAndBoundSolver solver;
    ilp::IlpResult r;
    {
      Span span("ilp");
      r = solver.solve(*o.final_model);
    }
    pivots += static_cast<double>(r.lp_pivots);
    factorizations += static_cast<double>(r.lp_factorizations);
    etas += static_cast<double>(r.lp_eta_updates);
    max_eta = std::max(max_eta, static_cast<double>(r.lp_max_eta_len));
    reopts += static_cast<double>(r.lp_dual_reopts);
    fallbacks += static_cast<double>(r.lp_dual_fallbacks);
    scratch += static_cast<double>(r.lp_scratch_solves);
    rows_removed += static_cast<double>(r.presolve_rows_removed);
    fixed += static_cast<double>(r.presolve_fixed_variables);
    lp_nodes += static_cast<double>(r.nodes_explored);
    lp_seconds += r.solve_seconds;
  }
  v["lp.pivots"] = pivots;
  v["lp.pivots_per_node"] = pivots / lp_nodes;
  v["lp.us_per_pivot"] = 1e6 * lp_seconds / pivots;
  v["lp.factorizations"] = factorizations;
  v["lp.eta_updates"] = etas;
  v["lp.max_eta_len"] = max_eta;
  v["lp.dual_reopts"] = reopts;
  v["lp.dual_fallbacks"] = fallbacks;
  v["lp.warm_start_ratio"] = reopts / (reopts + scratch);
  v["lp.scratch_solves"] = scratch;
  v["presolve.rows_removed"] = rows_removed;
  v["presolve.fixed_vars"] = fixed;
  return v;
}

}  // namespace

Result run_synth(const Options& options) {
  // The goldens are the benchmark's own checks: read before set-up starts.
  const std::vector<Entry> pool =
      load_pool(options.goldens_dir + "/synth.json");
  std::vector<Entry> batch;
  // Set-up: draw the batch and encode every op's first model (base ILP,
  // plus the ILP-AR rows of AR ops) once to validate the inputs.
  CpuRotation cpus;
  const auto setup = [&] {
    batch = select_batch(pool, options.seed);
    for (const Entry& e : batch) {
      const eps::EpsTemplate eps = make_template(e.stratum->generators);
      core::ArchitectureIlp ilp = make_base_ilp(eps);
      if (e.stratum->kind == Kind::kAr) {
        core::IlpArOptions opt;
        opt.target_failure = e.target;
        (void)core::encode_ilp_ar(ilp, opt);
      }
      if (ilp.model().num_rows() == 0) {
        throw std::runtime_error("synth: empty model");
      }
    }
  };
  const double setup_s = median_setup_seconds(5, setup, &cpus);

  Result result;
  long next_op = 0;
  if (!options.trace) {
    const Phase p = run_phase(batch, options.seconds, false, cpus, next_op);
    result.attempted = static_cast<long>(p.latencies.size());
    result.failed = p.failed;
    result.drift = p.drift;
    add_end_to_end(result, setup_s, p.wall_s, p.cpu_s, p.latencies);
    return result;
  }
  const Phase plain =
      run_phase(batch, options.seconds / 2, false, cpus, next_op);
  tracer().set_enabled(true);
  const Phase traced =
      run_phase(batch, options.seconds / 2, true, cpus, next_op);
  LayerValues values = layer_values(batch, traced);
  add_trace_summary(values, options, ops_per_s(plain), ops_per_s(traced));
  tracer().set_enabled(false);
  result.attempted =
      static_cast<long>(plain.latencies.size() + traced.latencies.size());
  result.failed = plain.failed + traced.failed;
  result.drift = plain.drift + traced.drift;
  values["check.counter_drift"] = static_cast<double>(result.drift);
  add_per_layer(result, values);
  return result;
}

void make_synth_goldens(const std::string& path) {
  js::Array entries;
  for (std::size_t k = 0; k < std::size(kStrata); ++k) {
    const Stratum& s = kStrata[k];
    Rng rng(kPoolSeed + k);
    for (int i = 0; i < s.pool; ++i) {
      const double target = s.pool == 1 ? s.lo : rng.log_uniform(s.lo, s.hi);
      const Outcome o = run_op(s, target, -1, false);
      if (o.limit_hits != 0) {
        throw std::runtime_error(std::string("synth goldens: ") + s.name +
                                 " hit a solver limit");
      }
      js::Object e;
      e["stratum"] = s.name;
      e["target"] = target;
      e["status"] = o.status;
      e["cost"] = o.cost;
      e["failure"] = o.failure;
      e["points"] = o.points;
      entries.emplace_back(std::move(e));
    }
  }
  js::Object doc;
  doc["about"] =
      "Golden answers of the synth workload's problem pool, produced by the "
      "library's default options. Regenerate with archex_perfbench "
      "--make-goldens synth.";
  doc["entries"] = std::move(entries);
  write_text(path, js::dump(js::Value(std::move(doc)), 1) + "\n");
}

}  // namespace perfbench
