// archex/rel/bdd_method.hpp
//
// BDD-based exact K-terminal reliability (ExactMethod::kBdd): compile the
// source->sink connectivity function of a digraph — node-failure semantics,
// the sink's own failure included — into an ROBDD (src/bdd), then read
// P[disconnected] off the diagram in one memoized sweep. This is the
// Lucet & Manouvrier-style evaluation referenced in exact.hpp: its cost
// scales with the BDD width induced by the variable ordering rather than
// with the pathset count, making it the method of choice for dense
// redundant architectures whose path counts explode.
//
// Compilation: restrict to the relevant nodes (forward-reachable from a
// source AND backward-reachable from the sink), pick a variable order, then
// solve the monotone reachability fixed point
//
//   R_v = x_v ∧ (v ∈ sources  ∨  ∨_{u ∈ pred(v)} R_u)
//
// by Gauss–Seidel iteration over the order until no BDD changes (paths
// lengthen by at least one edge per round, so at most |relevant| rounds; a
// DAG in topological order converges in one). R_sink is the connectivity
// function; failure = P[R_sink = 0] with P[x_v = 0] = p_v, evaluated
// directly rather than as 1 − P[R_sink = 1], which cancels to 0 or loses
// most of its digits once the failure drops below about 1e-16.
// Perfectly reliable nodes (p_v = 0) never allocate a variable — their
// literal is the constant true, mirroring the factoring engine's
// "perfectly reliable nodes never branch" rule.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace archex::rel {

/// Variable-ordering heuristic for the connectivity BDD. The ordering is
/// the dominant cost factor of any BDD method; bench_rel_methods --order
/// ablates these on the EPS templates.
enum class BddOrdering {
  /// Kahn topological order (min-id tie-break) of the relevant subgraph
  /// when it is acyclic, BFS-level order otherwise (the default).
  kAuto,
  /// Breadth-first levels from the sources (ties broken by node id) —
  /// works uniformly for cyclic graphs.
  kBfsLevel,
  /// Descending total degree within the relevant subgraph, ties by node
  /// id. A structure-free baseline the structural orders must beat.
  kDegree,
};

/// Engine counters of one kBdd evaluation, surfaced for the benches.
struct BddEvalStats {
  int num_vars = 0;               // variables (relevant nodes with p > 0)
  int fixpoint_rounds = 0;        // Gauss–Seidel rounds until convergence
  std::size_t final_nodes = 0;    // decision nodes of the connectivity BDD
  std::size_t peak_nodes = 0;     // arena size == peak (no GC)
  std::size_t unique_entries = 0;
  double unique_occupancy = 0.0;  // entries / buckets of the unique table
  std::uint64_t computed_lookups = 0;
  std::uint64_t computed_hits = 0;
  double computed_hit_rate = 0.0;
};

/// The variable order the compiler would use: relevant nodes of `g` in
/// branch order (position 0 is tested first). Exposed for the ordering
/// ablation; nodes outside the returned list never influence the result.
[[nodiscard]] std::vector<graph::NodeId> bdd_variable_order(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    graph::NodeId sink, BddOrdering ordering = BddOrdering::kAuto);

/// Exact P(sink cut off from every source) via ROBDD compilation. Inputs
/// follow the failure_probability contract (exact.hpp). `stats` (optional)
/// receives the engine counters; `deadline` aborts compilation with
/// rel::TimeoutError once passed.
[[nodiscard]] double bdd_failure_probability(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    graph::NodeId sink, const std::vector<double>& p,
    BddOrdering ordering = BddOrdering::kAuto, BddEvalStats* stats = nullptr,
    std::optional<std::chrono::steady_clock::time_point> deadline =
        std::nullopt);

/// Exact failure of every sink in `sinks` (entry k for sinks[k]) from one
/// compilation: the fixed point is solved once over U, the union of the
/// sinks' relevant sets, under the kAuto order of U, and each sink's value
/// is read off the shared manager. Every entry is bitwise equal to
/// bdd_failure_probability(g, sources, sinks[k], p) with kAuto: the order
/// of U restricted to a sink's relevant set is that set's own order
/// (DESIGN.md §4d), except when U is cyclic and the sink's set is not —
/// such a sink is compiled alone.
[[nodiscard]] std::vector<double> bdd_failure_probabilities(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    const std::vector<graph::NodeId>& sinks, const std::vector<double>& p,
    std::optional<std::chrono::steady_clock::time_point> deadline =
        std::nullopt);

}  // namespace archex::rel
