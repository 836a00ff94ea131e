// Fig. 3 reproduction: EPS architectures synthesized with ILP-AR for a
// ladder of reliability requirements.
//
// Paper (21-node template): (a) r* = 2e-3  -> r~ = 6.0e-4,  r = 6e-4
//                           (b) r* = 2e-6  -> r~ = 2.4e-7,  r = 3.5e-7
//                           (c) r* = 2e-10 -> r~ = 7.2e-11, r = 2.8e-10
// The pattern to reproduce: tighter r* -> more redundant paths and higher
// cost; the algebra estimate r~ tracks the exact r closely (slightly
// optimistic, within the Theorem-2 bound); r~ jumps in discrete steps
// h * p^h as the synthesized degree of redundancy h increases.
//
// Here: 11-node template (g = 2; ILP-AR's monolithic model is the expensive
// one — see Table III) with r* in {2e-3, 2e-6, 2e-7}; the 2e-7 step forces
// the maximum redundancy this template offers, playing the role of Fig. 3c.
// `--method=<factoring|bdd>` selects the
// exact analyzer the "r (exact)" column is computed with (default bdd).
#include <cstdio>
#include <cstring>

#include "core/ilp_ar.hpp"
#include "eps/eps_template.hpp"
#include "ilp/solver.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace archex;
  rel::ExactMethod method = rel::kDefaultExactMethod;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--method=", 9) == 0) {
      const auto parsed = rel::parse_exact_method(argv[i] + 9);
      if (!parsed) {
        std::fprintf(stderr, "unknown --method '%s' (want factoring or bdd)\n",
                     argv[i] + 9);
        return 1;
      }
      method = *parsed;
    }
  }
  std::printf("=== Fig. 3: ILP-AR syntheses across reliability targets "
              "(exact method: %s) ===\n\n",
              rel::to_string(method).c_str());

  eps::EpsSpec spec;
  spec.num_generators = 2;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);
  std::printf("EPS template: |V| = %d, %d candidate interconnections\n\n",
              eps.tmpl.num_components(), eps.tmpl.num_candidate_edges());

  TextTable table({"r* (required)", "status", "cost", "components",
                   "interconnections", "r~ (algebra)", "r (exact)",
                   "solver s"});

  for (const double target : {2e-3, 2e-6, 2e-7}) {
    core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
    ilp::BranchAndBoundOptions bopt;
    bopt.time_limit_seconds = 240.0;
    ilp::BranchAndBoundSolver solver(bopt);
    core::IlpArOptions options;
    options.target_failure = target;
    options.method = method;
    options.accept_incumbent = true;
    const core::IlpArReport rep = core::run_ilp_ar(ilp, solver, options);

    if (rep.configuration) {
      table.add_row({format_sci(target, 1), to_string(rep.status),
                     format_fixed(rep.configuration->total_cost(), 0),
                     format_count(rep.configuration->num_used_nodes()),
                     format_count(rep.configuration->num_selected_edges()),
                     format_sci(rep.approx_failure, 2),
                     format_sci(rep.exact_failure, 2),
                     format_fixed(rep.solver_seconds, 1)});
    } else {
      table.add_row({format_sci(target, 1), to_string(rep.status), "-", "-",
                     "-", "-", "-", format_fixed(rep.solver_seconds, 1)});
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::puts("\npaper reference (21 nodes, CPLEX): r*=2e-3 -> (6.0e-4, 6e-4); "
            "r*=2e-6 -> (2.4e-7, 3.5e-7); r*=2e-10 -> (7.2e-11, 2.8e-10).");
  std::puts("expected shape: cost and redundancy increase monotonically; "
            "r~ <= r* with r~ slightly below the exact r.");
  return 0;
}
