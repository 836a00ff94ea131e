#include "graph/paths.hpp"

#include <algorithm>
#include <set>

#include "support/check.hpp"

namespace archex::graph {

namespace {

void dfs_paths(const Digraph& g, NodeId node, NodeId sink,
               std::vector<bool>& on_path, Path& stack,
               std::vector<Path>& out, std::size_t max_paths) {
  if (node == sink) {
    if (out.size() >= max_paths) {
      throw Error("simple-path enumeration exceeded the path cap");
    }
    out.push_back(stack);
    return;
  }
  for (NodeId next : g.successors(node)) {
    if (on_path[static_cast<std::size_t>(next)]) continue;
    on_path[static_cast<std::size_t>(next)] = true;
    stack.push_back(next);
    dfs_paths(g, next, sink, on_path, stack, out, max_paths);
    stack.pop_back();
    on_path[static_cast<std::size_t>(next)] = false;
  }
}

}  // namespace

std::vector<Path> enumerate_simple_paths(const Digraph& g,
                                         const std::vector<NodeId>& sources,
                                         NodeId sink, std::size_t max_paths) {
  ARCHEX_REQUIRE(sink >= 0 && sink < g.num_nodes(), "sink out of range");
  std::vector<Path> out;
  std::vector<bool> on_path(static_cast<std::size_t>(g.num_nodes()), false);
  for (NodeId s : sources) {
    ARCHEX_REQUIRE(s >= 0 && s < g.num_nodes(), "source out of range");
    if (s == sink) {
      out.push_back({s});
      continue;
    }
    Path stack{s};
    on_path[static_cast<std::size_t>(s)] = true;
    dfs_paths(g, s, sink, on_path, stack, out, max_paths);
    on_path[static_cast<std::size_t>(s)] = false;
  }
  return out;
}

std::vector<Path> functional_link(const Digraph& g, const Partition& partition,
                                  NodeId sink, std::size_t max_paths) {
  ARCHEX_REQUIRE(partition.num_nodes() == g.num_nodes(),
                 "partition does not cover the graph");
  return enumerate_simple_paths(g, partition.members(0), sink, max_paths);
}

Path reduce_path(const Path& path, const Partition& partition) {
  Path out;
  for (NodeId v : path) {
    if (!out.empty() && partition.same_type(out.back(), v)) continue;
    out.push_back(v);
  }
  return out;
}

std::vector<Path> reduced_paths(const std::vector<Path>& paths,
                                const Partition& partition) {
  std::set<Path> unique;
  for (const Path& p : paths) unique.insert(reduce_path(p, partition));
  return {unique.begin(), unique.end()};
}

Digraph expand_same_type_shorthand(const Digraph& g,
                                   const Partition& partition) {
  ARCHEX_REQUIRE(partition.num_nodes() == g.num_nodes(),
                 "partition does not cover the graph");
  const int n = g.num_nodes();

  // Union same-type-linked nodes into redundancy groups (undirected
  // connected components over the same-type edges).
  std::vector<int> group(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) group[static_cast<std::size_t>(v)] = v;
  // Simple union-find with path halving.
  auto find = [&](int v) {
    while (group[static_cast<std::size_t>(v)] != v) {
      group[static_cast<std::size_t>(v)] =
          group[static_cast<std::size_t>(group[static_cast<std::size_t>(v)])];
      v = group[static_cast<std::size_t>(v)];
    }
    return v;
  };
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.successors(u)) {
      if (partition.same_type(u, v)) {
        group[static_cast<std::size_t>(find(u))] = find(v);
      }
    }
  }

  // Collect the union of external predecessors/successors per group as
  // sorted, duplicate-free (group, neighbour) pairs; pred_begin[g] and
  // succ_begin[g] index group g's run.
  std::vector<std::pair<int, NodeId>> gpred;
  std::vector<std::pair<int, NodeId>> gsucc;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.successors(u)) {
      if (partition.same_type(u, v)) continue;  // intra-group edge
      gpred.push_back({find(v), u});
      gsucc.push_back({find(u), v});
    }
  }
  const auto runs = [n](std::vector<std::pair<int, NodeId>>& pairs) {
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    std::vector<std::size_t> begin(static_cast<std::size_t>(n) + 1, 0);
    for (const auto& [grp, node] : pairs) {
      ++begin[static_cast<std::size_t>(grp) + 1];
    }
    for (std::size_t i = 1; i < begin.size(); ++i) begin[i] += begin[i - 1];
    return begin;
  };
  const std::vector<std::size_t> pred_begin = runs(gpred);
  const std::vector<std::size_t> succ_begin = runs(gsucc);

  // Digraph::has_edge is the seen-mark: an edge can be implied by both
  // endpoints' groups but is added once, at its first implication.
  Digraph out(n);
  for (int v = 0; v < n; ++v) {
    const auto gv = static_cast<std::size_t>(find(v));
    for (std::size_t k = pred_begin[gv]; k < pred_begin[gv + 1]; ++k) {
      const NodeId p = gpred[k].second;
      if (p != v && !out.has_edge(p, v)) out.add_edge(p, v);
    }
    for (std::size_t k = succ_begin[gv]; k < succ_begin[gv + 1]; ++k) {
      const NodeId s = gsucc[k].second;
      if (s != v && !out.has_edge(v, s)) out.add_edge(v, s);
    }
  }
  return out;
}

}  // namespace archex::graph
