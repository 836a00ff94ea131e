// archex_cli — command-line front end for the ARCHEX library.
//
// Usage:
//   archex_cli synth   (--eps <generators> | --template <file.json>)
//                      --target <r*> [--algorithm mr|ar] [--lazy]
//                      [--time-limit <s>] [--accept-incumbent]
//                      [--threads <n>] [--plain-bnb] [--no-learning]
//                      [--dot <out.dot>] [--save <out.json>] [--mps <out.mps>]
//                      (--plain-bnb: no pseudocost, rc-fixing or learning)
//   archex_cli analyze (--eps <generators> | --template <file.json>)
//                      --config <file.json> [--importance] [--cuts]
//   archex_cli export  (--eps <generators> | --template <file.json>)
//                      --out <file.json>
//
// `synth` selects a minimum-cost architecture meeting the reliability
// requirement; `analyze` evaluates a stored configuration (exact and
// approximate failure, optional importance ranking and minimal cut sets);
// `export` writes a template document (e.g. a generated EPS instance) for
// later editing.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "core/ilp_ar.hpp"
#include "core/ilp_mr.hpp"
#include "core/serialize.hpp"
#include "eps/eps_template.hpp"
#include "ilp/mps.hpp"
#include "ilp/solver.hpp"
#include "rel/cuts.hpp"
#include "rel/importance.hpp"
#include "support/table.hpp"

namespace {

using namespace archex;

struct Args {
  std::string command;
  std::optional<int> eps_generators;
  std::string template_file;
  std::string config_file;
  std::string out_file;
  std::string dot_file;
  std::string save_file;
  std::string mps_file;
  double target = 1e-6;
  std::string algorithm = "mr";
  bool lazy = false;
  bool accept_incumbent = false;
  bool importance = false;
  bool cuts = false;
  double time_limit = 300.0;
  int threads = 0;  // 0 = serial branch & bound
  /// Disable pseudocost branching, reduced-cost fixing and nogood learning
  /// for A/B comparisons against the plain depth-first search.
  bool plain_bnb = false;
  /// Conflict-driven nogood learning (DESIGN.md §4g); on by default,
  /// --no-learning turns it off for A/B comparisons.
  bool learning = true;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n\n", why);
  std::fputs(
      "usage:\n"
      "  archex_cli synth   (--eps N | --template F) --target R\n"
      "                     [--algorithm mr|ar] [--lazy] [--time-limit S]\n"
      "                     [--threads N] [--plain-bnb] [--no-learning]\n"
      "                     [--accept-incumbent] [--dot F] [--save F] "
      "[--mps F]\n"
      "                     --plain-bnb turns off pseudocost branching,\n"
      "                     reduced-cost fixing and nogood learning\n"
      "  archex_cli analyze (--eps N | --template F) --config F\n"
      "                     [--importance] [--cuts]\n"
      "  archex_cli export  (--eps N | --template F) --out F\n",
      stderr);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--eps") a.eps_generators = std::stoi(value());
    else if (flag == "--template") a.template_file = value();
    else if (flag == "--config") a.config_file = value();
    else if (flag == "--out") a.out_file = value();
    else if (flag == "--dot") a.dot_file = value();
    else if (flag == "--save") a.save_file = value();
    else if (flag == "--mps") a.mps_file = value();
    else if (flag == "--target") a.target = std::stod(value());
    else if (flag == "--algorithm") a.algorithm = value();
    else if (flag == "--time-limit") a.time_limit = std::stod(value());
    else if (flag == "--threads") a.threads = std::stoi(value());
    else if (flag == "--lazy") a.lazy = true;
    else if (flag == "--accept-incumbent") a.accept_incumbent = true;
    else if (flag == "--importance") a.importance = true;
    else if (flag == "--cuts") a.cuts = true;
    else if (flag == "--plain-bnb") a.plain_bnb = true;
    else if (flag == "--learning") a.learning = true;
    else if (flag == "--no-learning") a.learning = false;
    else usage(("unknown flag " + flag).c_str());
  }
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw Error("cannot write " + path);
  out << text;
}

core::Template load_template(const Args& a) {
  if (a.eps_generators) {
    eps::EpsSpec spec;
    spec.num_generators = *a.eps_generators;
    return std::move(eps::make_eps_template(spec).tmpl);
  }
  if (!a.template_file.empty()) {
    return core::template_from_json(read_file(a.template_file),
                                    a.template_file);
  }
  usage("provide --eps N or --template F");
}

/// Base ILP: EPS templates get the Section-V requirement pack; custom
/// templates get the generic sink-fed rule (edit the JSON to add more).
core::ArchitectureIlp make_ilp(const Args& a, const core::Template& tmpl) {
  core::ArchitectureIlp ilp(tmpl);
  if (a.eps_generators) {
    // make_eps_template is deterministic, so the regenerated node groups
    // line up 1:1 with `tmpl` (which load_template built the same way).
    eps::EpsSpec spec;
    spec.num_generators = *a.eps_generators;
    const eps::EpsTemplate grouping = eps::make_eps_template(spec);
    eps::apply_eps_requirements(ilp, grouping);
  } else {
    ilp.require_all_sinks_fed();
  }
  return ilp;
}

int cmd_synth(const Args& a) {
  const core::Template tmpl = load_template(a);
  core::ArchitectureIlp ilp = make_ilp(a, tmpl);

  if (!a.mps_file.empty()) {
    // Export the *base* model before the reliability layer for inspection.
    write_file(a.mps_file, ilp::to_mps(ilp.model(), "archex_base"));
    std::printf("wrote base model MPS to %s\n", a.mps_file.c_str());
  }

  ilp::BranchAndBoundOptions bopt;
  bopt.time_limit_seconds = a.time_limit;
  bopt.threads = a.threads;  // >= 2 enables the work-stealing tree search
  bopt.learning = a.learning;
  if (a.plain_bnb) {
    bopt.pseudocost = false;
    bopt.rc_fixing = false;
    bopt.learning = false;
  }
  ilp::BranchAndBoundSolver solver(bopt);

  std::optional<core::Configuration> config;
  if (a.algorithm == "mr") {
    core::IlpMrOptions opt;
    opt.target_failure = a.target;
    opt.lazy_strategy = a.lazy;
    opt.accept_incumbent = a.accept_incumbent;
    const core::IlpMrReport rep = core::run_ilp_mr(ilp, solver, opt);
    std::printf("ILP-MR: %s in %d iterations (analysis %.2fs, solver "
                "%.2fs)\n",
                to_string(rep.status).c_str(), rep.num_iterations(),
                rep.analysis_seconds, rep.solver_seconds);
    std::printf("solver: %ld nodes, %ld rc-fixings, %ld pseudocost "
                "branchings\n",
                rep.solver_nodes, rep.solver_rc_fixings,
                rep.solver_pseudocost_branches);
    if (bopt.learning) {
      std::printf("learning: %ld nogoods (%ld oracle), %ld prunings, "
                  "store %ld\n",
                  rep.solver_nogoods_learned, rep.oracle_nogoods,
                  rep.solver_nogood_prunings, rep.solver_nogood_store_size);
    }
    if (rep.configuration) {
      std::printf("exact worst-sink failure: %.3e (target %.1e)\n",
                  rep.failure, a.target);
      config = rep.configuration;
    }
  } else if (a.algorithm == "ar") {
    core::IlpArOptions opt;
    opt.target_failure = a.target;
    opt.accept_incumbent = a.accept_incumbent;
    const core::IlpArReport rep = core::run_ilp_ar(ilp, solver, opt);
    std::printf("ILP-AR: %s (%d constraints, setup %.2fs, solver %.2fs)\n",
                to_string(rep.status).c_str(), rep.num_constraints,
                rep.setup_seconds, rep.solver_seconds);
    std::printf("solver: %ld nodes, %ld rc-fixings, %ld pseudocost "
                "branchings\n",
                rep.solver_nodes, rep.solver_rc_fixings,
                rep.solver_pseudocost_branches);
    if (bopt.learning) {
      std::printf("learning: %ld nogoods, %ld prunings, store %ld\n",
                  rep.solver_nogoods_learned, rep.solver_nogood_prunings,
                  rep.solver_nogood_store_size);
    }
    if (rep.configuration) {
      std::printf("algebra r~ = %.3e, exact r = %.3e (target %.1e)\n",
                  rep.approx_failure, rep.exact_failure, a.target);
      config = rep.configuration;
    }
  } else {
    usage("--algorithm must be mr or ar");
  }

  if (!config) return 1;
  std::printf("architecture: %s\n", config->summary().c_str());
  if (!a.dot_file.empty()) {
    write_file(a.dot_file, config->to_dot("archex synthesis"));
    std::printf("wrote DOT to %s\n", a.dot_file.c_str());
  }
  if (!a.save_file.empty()) {
    write_file(a.save_file, core::to_json(*config));
    std::printf("wrote configuration to %s\n", a.save_file.c_str());
  }
  return 0;
}

int cmd_analyze(const Args& a) {
  const core::Template tmpl = load_template(a);
  if (a.config_file.empty()) usage("analyze needs --config");
  const core::Configuration config =
      core::configuration_from_json(tmpl, read_file(a.config_file),
                                    a.config_file);

  std::printf("architecture: %s\n", config.summary().c_str());
  const graph::Digraph g = config.analysis_graph();
  const auto part = tmpl.partition();
  const auto p = tmpl.node_failure_probs();

  TextTable table({"sink", "exact r", "algebra r~", "EP lower", "EP upper"});
  const std::vector<graph::NodeId> sinks = tmpl.sinks();
  const std::vector<double> exact_r =
      rel::failure_probabilities(g, part.members(0), sinks, p);
  for (std::size_t k = 0; k < sinks.size(); ++k) {
    const graph::NodeId sink = sinks[k];
    const double exact = exact_r[k];
    const double approx = config.approximate_failure(sink).r_tilde;
    rel::FailureBounds bounds;
    try {
      bounds = rel::esary_proschan_bounds(g, part.members(0), sink, p);
    } catch (const Error&) {
      bounds = {0.0, 1.0};  // enumeration cap: report the trivial bounds
    }
    table.add_row({tmpl.component(sink).name, format_sci(exact, 3),
                   format_sci(approx, 3), format_sci(bounds.lower, 3),
                   format_sci(bounds.upper, 3)});
  }
  std::fputs(table.to_string().c_str(), stdout);

  if (a.importance) {
    const graph::NodeId sink = tmpl.sinks().front();
    const rel::ImportanceReport rep =
        rel::importance_analysis(g, part.members(0), sink, p);
    std::printf("\ncomponent importance for sink %s (F = %.3e):\n",
                tmpl.component(sink).name.c_str(), rep.failure);
    TextTable imp({"component", "Birnbaum", "RAW", "RRW"});
    for (const auto& c : rep.components) {
      imp.add_row({tmpl.component(c.node).name, format_sci(c.birnbaum, 3),
                   format_fixed(c.risk_achievement, 2),
                   format_fixed(c.risk_reduction, 2)});
    }
    std::fputs(imp.to_string().c_str(), stdout);
  }

  if (a.cuts) {
    const graph::NodeId sink = tmpl.sinks().front();
    const auto cuts =
        rel::minimal_cut_sets(g, part.members(0), sink, p);
    std::printf("\nminimal cut sets for sink %s (%zu):\n",
                tmpl.component(sink).name.c_str(), cuts.size());
    for (const auto& cut : cuts) {
      std::string line = "  {";
      for (std::size_t i = 0; i < cut.size(); ++i) {
        if (i) line += ", ";
        line += tmpl.component(cut[i]).name;
      }
      std::printf("%s}\n", line.c_str());
    }
  }
  return 0;
}

int cmd_export(const Args& a) {
  const core::Template tmpl = load_template(a);
  if (a.out_file.empty()) usage("export needs --out");
  write_file(a.out_file, core::to_json(tmpl));
  std::printf("wrote template (%d components, %d candidate edges) to %s\n",
              tmpl.num_components(), tmpl.num_candidate_edges(),
              a.out_file.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.command == "synth") return cmd_synth(a);
    if (a.command == "analyze") return cmd_analyze(a);
    if (a.command == "export") return cmd_export(a);
    usage(("unknown command " + a.command).c_str());
  } catch (const core::SpecError& e) {
    // One line: file (or request source), JSON path, reason — the same
    // diagnostic shape the archex_server returns for bad wire requests.
    std::fprintf(stderr, "spec error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
