#include "rel/bdd_method.hpp"

#include <algorithm>
#include <deque>

#include "bdd/bdd.hpp"
#include "rel/exact.hpp"
#include "support/check.hpp"

namespace archex::rel {

namespace {

using graph::Digraph;
using graph::NodeId;

/// Nodes forward-reachable from some source (the sources included).
std::vector<bool> forward_reachable(const Digraph& g,
                                    const std::vector<NodeId>& sources) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<bool> forward(n, false);
  std::deque<NodeId> queue;
  for (NodeId s : sources) {
    const auto si = static_cast<std::size_t>(s);
    if (!forward[si]) {
      forward[si] = true;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.successors(u)) {
      const auto vi = static_cast<std::size_t>(v);
      if (!forward[vi]) {
        forward[vi] = true;
        queue.push_back(v);
      }
    }
  }
  return forward;
}

/// Nodes on some source->sink walk: forward-reachable from a source
/// (`forward`) and backward-reachable from the sink. Everything else can
/// never influence connectivity and is excluded before any BDD work.
std::vector<bool> relevant_nodes(const Digraph& g,
                                 const std::vector<bool>& forward,
                                 NodeId sink) {
  std::vector<bool> relevant = g.reaching(sink);
  for (std::size_t v = 0; v < relevant.size(); ++v) {
    relevant[v] = relevant[v] && forward[v];
  }
  return relevant;
}

/// Kahn topological order of the relevant subgraph; empty when cyclic.
std::vector<NodeId> topological_order(const Digraph& g,
                                      const std::vector<bool>& relevant) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<int> indegree(n, 0);
  std::size_t live = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!relevant[static_cast<std::size_t>(u)]) continue;
    ++live;
    for (NodeId v : g.successors(u)) {
      if (relevant[static_cast<std::size_t>(v)]) {
        ++indegree[static_cast<std::size_t>(v)];
      }
    }
  }
  // A min-id frontier keeps the order deterministic regardless of edge
  // insertion order.
  std::vector<NodeId> frontier;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (relevant[static_cast<std::size_t>(v)] &&
        indegree[static_cast<std::size_t>(v)] == 0) {
      frontier.push_back(v);
    }
  }
  std::vector<NodeId> order;
  order.reserve(live);
  while (!frontier.empty()) {
    const auto it = std::min_element(frontier.begin(), frontier.end());
    const NodeId u = *it;
    frontier.erase(it);
    order.push_back(u);
    for (NodeId v : g.successors(u)) {
      const auto vi = static_cast<std::size_t>(v);
      if (relevant[vi] && --indegree[vi] == 0) frontier.push_back(v);
    }
  }
  if (order.size() != live) order.clear();  // cycle detected
  return order;
}

/// BFS levels from the sources over the relevant subgraph, level by level
/// with ascending ids inside a level.
std::vector<NodeId> bfs_level_order(const Digraph& g,
                                    const std::vector<NodeId>& sources,
                                    const std::vector<bool>& relevant) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<bool> seen(n, false);
  std::vector<NodeId> order;
  std::vector<NodeId> level;
  for (NodeId s : sources) {
    const auto si = static_cast<std::size_t>(s);
    if (relevant[si] && !seen[si]) {
      seen[si] = true;
      level.push_back(s);
    }
  }
  while (!level.empty()) {
    std::sort(level.begin(), level.end());
    order.insert(order.end(), level.begin(), level.end());
    std::vector<NodeId> next;
    for (NodeId u : level) {
      for (NodeId v : g.successors(u)) {
        const auto vi = static_cast<std::size_t>(v);
        if (relevant[vi] && !seen[vi]) {
          seen[vi] = true;
          next.push_back(v);
        }
      }
    }
    level = std::move(next);
  }
  return order;
}

std::vector<NodeId> degree_order(const Digraph& g,
                                 const std::vector<bool>& relevant) {
  std::vector<std::pair<int, NodeId>> keyed;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (!relevant[vi]) continue;
    int degree = 0;
    for (NodeId u : g.successors(v)) {
      if (relevant[static_cast<std::size_t>(u)]) ++degree;
    }
    for (NodeId u : g.predecessors(v)) {
      if (relevant[static_cast<std::size_t>(u)]) ++degree;
    }
    keyed.push_back({-degree, v});  // descending degree, ascending id
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<NodeId> order;
  order.reserve(keyed.size());
  for (const auto& kv : keyed) order.push_back(kv.second);
  return order;
}

std::vector<NodeId> make_order(const Digraph& g,
                               const std::vector<NodeId>& sources,
                               const std::vector<bool>& relevant,
                               BddOrdering ordering) {
  switch (ordering) {
    case BddOrdering::kAuto: {
      std::vector<NodeId> order = topological_order(g, relevant);
      if (order.empty()) order = bfs_level_order(g, sources, relevant);
      return order;
    }
    case BddOrdering::kBfsLevel:
      return bfs_level_order(g, sources, relevant);
    case BddOrdering::kDegree:
      return degree_order(g, relevant);
  }
  throw InternalError("unknown BDD ordering");
}

/// The one compiler behind both entry points. `order` lists the relevant
/// nodes in branch order; every sink must be among them. Solves the
/// reachability fixed point over `order` and returns P[R_sink = 0] per sink.
/// `stats` needs a single sink (final_nodes is that sink's BDD size).
std::vector<double> compile(
    const Digraph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& order, const std::vector<NodeId>& sinks,
    const std::vector<double>& p, BddEvalStats* stats,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  ARCHEX_ASSERT(stats == nullptr || sinks.size() == 1,
                "BDD stats describe a single sink");
  // Branch position per node; only fallible nodes consume a variable.
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<int> var_of(n, -1);
  std::vector<double> p_false;
  for (NodeId v : order) {
    if (p[static_cast<std::size_t>(v)] > 0.0) {
      var_of[static_cast<std::size_t>(v)] = static_cast<int>(p_false.size());
      p_false.push_back(p[static_cast<std::size_t>(v)]);
    }
  }

  // Computed-table capacity scales with the variable count (BDD sizes grow
  // with width, not node count): tiny graphs avoid a megabyte-sized cache
  // allocation per evaluation, large ones get the full table.
  int table_bits = 4;
  while ((1 << table_bits) < 64 * static_cast<int>(p_false.size()) &&
         table_bits < 18) {
    ++table_bits;
  }
  bdd::BddManager mgr(static_cast<int>(p_false.size()), table_bits);
  mgr.set_deadline(deadline);

  std::vector<bool> is_source(n, false);
  for (NodeId s : sources) is_source[static_cast<std::size_t>(s)] = true;

  // Position of each relevant node in `order`, for indexing R.
  std::vector<int> pos(n, -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  // Relevant predecessors of order[i] as positions, in ascending node id:
  // the disjunction order makes the compilation a pure function of the
  // canonical problem, independent of edge insertion order (determinism
  // contract). Flat lists: preds[pred_begin[i] .. pred_begin[i + 1]).
  std::vector<std::size_t> pred_begin(order.size() + 1, 0);
  std::vector<int> preds;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t first = preds.size();
    for (NodeId u : g.predecessors(order[i])) {
      const int up = pos[static_cast<std::size_t>(u)];
      if (up >= 0) preds.push_back(up);
    }
    std::sort(preds.begin() + static_cast<std::ptrdiff_t>(first), preds.end(),
              [&](int a, int b) {
                return order[static_cast<std::size_t>(a)] <
                       order[static_cast<std::size_t>(b)];
              });
    pred_begin[i + 1] = preds.size();
  }

  const auto literal = [&](NodeId v) {
    const int index = var_of[static_cast<std::size_t>(v)];
    return index < 0 ? bdd::BddManager::kTrue : mgr.var(index);
  };

  // Gauss–Seidel fixed point of R_v = x_v & (source | OR_pred R_u). Refs
  // are canonical, so Ref equality is function equality and convergence
  // detection is exact.
  std::vector<bdd::Ref> reach(order.size(), bdd::BddManager::kFalse);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (is_source[static_cast<std::size_t>(order[i])]) {
      reach[i] = literal(order[i]);
    }
  }
  int rounds = 0;
  try {
    bool changed = true;
    while (changed) {
      changed = false;
      ++rounds;
      ARCHEX_ASSERT(rounds <= g.num_nodes() + 1,
                    "reachability fixed point failed to converge");
      for (std::size_t i = 0; i < order.size(); ++i) {
        const NodeId v = order[i];
        if (is_source[static_cast<std::size_t>(v)]) continue;
        bdd::Ref any_pred = bdd::BddManager::kFalse;
        for (std::size_t k = pred_begin[i]; k < pred_begin[i + 1]; ++k) {
          any_pred = mgr.bdd_or(any_pred,
                                reach[static_cast<std::size_t>(preds[k])]);
        }
        const bdd::Ref next = mgr.bdd_and(literal(v), any_pred);
        if (next != reach[i]) {
          reach[i] = next;
          changed = true;
        }
      }
    }
  } catch (const bdd::BddTimeoutError&) {
    throw TimeoutError("BDD compilation exceeded the EvalContext deadline");
  }

  std::vector<bdd::Ref> roots;
  roots.reserve(sinks.size());
  for (NodeId sink : sinks) {
    const int at = pos[static_cast<std::size_t>(sink)];
    ARCHEX_ASSERT(at >= 0, "sink outside the compiled relevant set");
    roots.push_back(reach[static_cast<std::size_t>(at)]);
  }
  std::vector<double> failures = mgr.prob_false(roots, p_false);

  if (stats != nullptr) {
    const bdd::BddStats& ms = mgr.stats();
    stats->num_vars = mgr.num_vars();
    stats->fixpoint_rounds = rounds;
    stats->final_nodes = mgr.num_nodes(roots.front());
    stats->peak_nodes = ms.nodes_allocated;
    stats->unique_entries = ms.unique_entries;
    stats->unique_occupancy = ms.unique_occupancy();
    stats->computed_lookups = ms.computed_lookups;
    stats->computed_hits = ms.computed_hits;
    stats->computed_hit_rate = ms.computed_hit_rate();
  }
  return failures;
}

void validate(const Digraph& g, NodeId sink, const std::vector<double>& p) {
  ARCHEX_REQUIRE(sink >= 0 && sink < g.num_nodes(), "sink out of range");
  ARCHEX_REQUIRE(static_cast<int>(p.size()) == g.num_nodes(),
                 "failure-probability vector must cover every node");
}

}  // namespace

std::vector<NodeId> bdd_variable_order(const Digraph& g,
                                       const std::vector<NodeId>& sources,
                                       NodeId sink, BddOrdering ordering) {
  return make_order(
      g, sources, relevant_nodes(g, forward_reachable(g, sources), sink),
      ordering);
}

double bdd_failure_probability(
    const Digraph& g, const std::vector<NodeId>& sources, NodeId sink,
    const std::vector<double>& p, BddOrdering ordering, BddEvalStats* stats,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  validate(g, sink, p);
  if (stats != nullptr) *stats = BddEvalStats{};
  if (sources.empty()) return 1.0;

  const std::vector<bool> relevant =
      relevant_nodes(g, forward_reachable(g, sources), sink);
  if (!relevant[static_cast<std::size_t>(sink)]) return 1.0;
  return compile(g, sources, make_order(g, sources, relevant, ordering),
                 {sink}, p, stats, deadline)
      .front();
}

std::vector<double> bdd_failure_probabilities(
    const Digraph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& sinks, const std::vector<double>& p,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  for (NodeId sink : sinks) validate(g, sink, p);
  std::vector<double> failures(sinks.size(), 1.0);
  if (sources.empty()) return failures;

  // U = union of the sinks' relevant sets S_k; sinks outside their own
  // relevant set are cut off (failure 1) and take no part.
  const std::vector<bool> forward = forward_reachable(g, sources);
  std::vector<bool> all(static_cast<std::size_t>(g.num_nodes()), false);
  std::vector<std::vector<bool>> relevant(sinks.size());
  std::vector<std::size_t> live;
  for (std::size_t k = 0; k < sinks.size(); ++k) {
    relevant[k] = relevant_nodes(g, forward, sinks[k]);
    if (!relevant[k][static_cast<std::size_t>(sinks[k])]) continue;
    live.push_back(k);
    for (std::size_t v = 0; v < all.size(); ++v) {
      if (relevant[k][v]) all[v] = true;
    }
  }
  if (live.empty()) return failures;

  // Every forward-reachable predecessor of a node of S_k lies in S_k, so
  // the kAuto order of U restricted to S_k is S_k's own order — unless U
  // is cyclic (BFS levels) while S_k is acyclic (topological order). Such
  // a sink compiles alone.
  std::vector<NodeId> order = topological_order(g, all);
  std::vector<std::size_t> shared;
  if (!order.empty()) {
    shared = live;
  } else {
    order = bfs_level_order(g, sources, all);
    for (std::size_t k : live) {
      const std::vector<NodeId> own = topological_order(g, relevant[k]);
      if (own.empty()) {
        shared.push_back(k);
      } else {
        failures[k] =
            compile(g, sources, own, {sinks[k]}, p, nullptr, deadline).front();
      }
    }
  }
  if (shared.empty()) return failures;
  std::vector<NodeId> roots;
  for (std::size_t k : shared) roots.push_back(sinks[k]);
  const std::vector<double> values =
      compile(g, sources, order, roots, p, nullptr, deadline);
  for (std::size_t i = 0; i < shared.size(); ++i) {
    failures[shared[i]] = values[i];
  }
  return failures;
}

}  // namespace archex::rel
