// Test-only exact reliability oracles. The library ships two exact methods
// (BDD, the default, and factoring, the reference: rel/exact.hpp); the tests
// cross-check both against two independent algorithms that live here:
//
//  * inclusion–exclusion over the minimal path sets of the functional link
//    — tiny graphs only (at most 64 nodes and 24 paths), and its alternating
//    sum loses every digit below about 1e-14, so compare it at absolute
//    tolerance on moderate probabilities;
//  * series-parallel reduction — polynomial, exact on the graphs it fully
//    reduces (EPS-shaped parallel chains), nullopt on the rest.
//
// Semantics match rel::failure_probability: a failed node removes itself
// and its links; the sink fails iff no source reaches it through working
// nodes (its own failure included).
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/paths.hpp"
#include "support/check.hpp"

namespace archex::rel::oracle {

namespace detail {

/// P(working) = sum_{S != empty} (-1)^{|S|+1} prod_{v in union(S)} (1-p_v),
/// by recursion over the path masks carrying the running node-set union.
inline double subset_sum(const std::vector<std::uint64_t>& masks,
                         const std::vector<double>& p, std::size_t index,
                         std::uint64_t mask, int sign) {
  if (index == masks.size()) {
    if (mask == 0) return 0.0;  // skip the empty subset
    double prob_all_up = 1.0;
    std::uint64_t bits = mask;
    while (bits) {
      const int v = std::countr_zero(bits);
      bits &= bits - 1;
      prob_all_up *= 1.0 - p[static_cast<std::size_t>(v)];
    }
    return sign * prob_all_up;
  }
  // Exclude, then include path `index` (flipping the sign).
  return subset_sum(masks, p, index + 1, mask, sign) +
         subset_sum(masks, p, index + 1, mask | masks[index], -sign);
}

struct SpEdge {
  int from;
  int to;
  double rel;  // probability the edge "works"
  bool alive = true;
};

/// Working multigraph under series-parallel reduction.
class SpGraph {
 public:
  SpGraph(int num_nodes, int source, int sink)
      : n_(num_nodes), source_(source), sink_(sink) {}

  void add_edge(int from, int to, double rel) {
    edges_.push_back({from, to, rel, true});
  }

  /// Run reductions to a fixed point; the sink failure probability when
  /// fully reduced, nullopt otherwise.
  std::optional<double> reduce() {
    bool changed = true;
    while (changed) {
      changed = false;
      changed |= drop_unreachable();
      changed |= merge_parallel();
      changed |= contract_series();
    }
    double rel = -1.0;
    int alive = 0;
    for (const SpEdge& e : edges_) {
      if (!e.alive) continue;
      ++alive;
      if (e.from == source_ && e.to == sink_) rel = e.rel;
    }
    if (alive == 0) return 1.0;  // sink unreachable: certain failure
    if (alive == 1 && rel >= 0.0) return 1.0 - rel;
    return std::nullopt;  // irreducible (non-series-parallel) remainder
  }

 private:
  /// Remove edges not on any source->sink route.
  bool drop_unreachable() {
    std::vector<bool> from_src(static_cast<std::size_t>(n_), false);
    std::vector<bool> to_sink(static_cast<std::size_t>(n_), false);
    bfs(source_, /*forward=*/true, from_src);
    bfs(sink_, /*forward=*/false, to_sink);
    bool changed = false;
    for (SpEdge& e : edges_) {
      if (!e.alive) continue;
      if (!from_src[static_cast<std::size_t>(e.from)] ||
          !to_sink[static_cast<std::size_t>(e.to)]) {
        e.alive = false;
        changed = true;
      }
    }
    return changed;
  }

  void bfs(int start, bool forward, std::vector<bool>& seen) const {
    seen[static_cast<std::size_t>(start)] = true;
    std::deque<int> queue{start};
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (const SpEdge& e : edges_) {
        if (!e.alive) continue;
        const int tail = forward ? e.from : e.to;
        const int head = forward ? e.to : e.from;
        if (tail == u && !seen[static_cast<std::size_t>(head)]) {
          seen[static_cast<std::size_t>(head)] = true;
          queue.push_back(head);
        }
      }
    }
  }

  /// Parallel rule: two u -> v edges become 1 - (1-a)(1-b).
  bool merge_parallel() {
    std::map<std::pair<int, int>, std::size_t> first;
    bool changed = false;
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      SpEdge& e = edges_[i];
      if (!e.alive) continue;
      if (e.from == e.to) {  // self loop: never useful
        e.alive = false;
        changed = true;
        continue;
      }
      const auto [it, inserted] = first.try_emplace({e.from, e.to}, i);
      if (!inserted) {
        SpEdge& keep = edges_[it->second];
        keep.rel = 1.0 - (1.0 - keep.rel) * (1.0 - e.rel);
        e.alive = false;
        changed = true;
      }
    }
    return changed;
  }

  /// Series rule: a -> x -> b through a relay-only x becomes one a*b edge.
  /// Contracts one relay per call (the degree census goes stale).
  bool contract_series() {
    std::vector<int> in_deg(static_cast<std::size_t>(n_), 0);
    std::vector<int> out_deg(static_cast<std::size_t>(n_), 0);
    std::vector<std::size_t> in_edge(static_cast<std::size_t>(n_), 0);
    std::vector<std::size_t> out_edge(static_cast<std::size_t>(n_), 0);
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      const SpEdge& e = edges_[i];
      if (!e.alive) continue;
      ++in_deg[static_cast<std::size_t>(e.to)];
      in_edge[static_cast<std::size_t>(e.to)] = i;
      ++out_deg[static_cast<std::size_t>(e.from)];
      out_edge[static_cast<std::size_t>(e.from)] = i;
    }
    for (int x = 0; x < n_; ++x) {
      if (x == source_ || x == sink_) continue;
      const auto xi = static_cast<std::size_t>(x);
      if (in_deg[xi] != 1 || out_deg[xi] != 1) continue;
      SpEdge& a = edges_[in_edge[xi]];
      SpEdge& b = edges_[out_edge[xi]];
      if (!a.alive || !b.alive || &a == &b) continue;
      a.to = b.to;
      a.rel *= b.rel;
      b.alive = false;
      return true;
    }
    return false;
  }

  int n_;
  int source_;
  int sink_;
  std::vector<SpEdge> edges_;
};

}  // namespace detail

/// Exact failure by inclusion–exclusion over the minimal path sets. Throws
/// PreconditionError beyond 64 nodes or 24 paths.
inline double inclusion_exclusion_failure(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    graph::NodeId sink, const std::vector<double>& p) {
  ARCHEX_REQUIRE(g.num_nodes() <= 64,
                 "inclusion–exclusion supports up to 64 nodes");
  const auto paths = graph::enumerate_simple_paths(g, sources, sink);
  ARCHEX_REQUIRE(paths.size() <= 24,
                 "inclusion–exclusion over >24 paths is intractable");
  std::vector<std::uint64_t> masks;
  for (const auto& path : paths) {
    std::uint64_t mask = 0;
    for (graph::NodeId v : path) mask |= (1ULL << v);
    masks.push_back(mask);
  }
  // Starting at sign = -1 makes a subset of k paths carry (-1)^{k+1}.
  return 1.0 - detail::subset_sum(masks, p, 0, 0, -1);
}

/// Exact failure via series-parallel reduction, or nullopt when the graph
/// (nodes split into v_in -> v_out edges carrying their reliability, sources
/// merged into a perfect super-source) does not reduce completely.
inline std::optional<double> series_parallel_failure(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    graph::NodeId sink, const std::vector<double>& p) {
  ARCHEX_REQUIRE(sink >= 0 && sink < g.num_nodes(), "sink out of range");
  ARCHEX_REQUIRE(static_cast<int>(p.size()) == g.num_nodes(),
                 "failure-probability vector must cover every node");
  if (sources.empty()) return 1.0;
  const int n = g.num_nodes();
  const int super = 2 * n;
  detail::SpGraph sp(2 * n + 1, super, 2 * sink + 1);
  for (graph::NodeId v = 0; v < n; ++v) {
    sp.add_edge(2 * v, 2 * v + 1, 1.0 - p[static_cast<std::size_t>(v)]);
  }
  for (const auto& [u, v] : g.edges()) {
    sp.add_edge(2 * u + 1, 2 * v, 1.0);
  }
  for (const graph::NodeId s : sources) {
    ARCHEX_REQUIRE(s >= 0 && s < n, "source out of range");
    sp.add_edge(super, 2 * s, 1.0);
  }
  return sp.reduce();
}

}  // namespace archex::rel::oracle
