#include "rel/exact.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>

#include "rel/bdd_method.hpp"
#include "support/check.hpp"

namespace archex::rel {

namespace {

using graph::Digraph;
using graph::NodeId;

using Deadline = std::optional<std::chrono::steady_clock::time_point>;

enum class NodeState : unsigned char { kUndecided, kUp, kDown };

/// Counted deadline poll shared by the analyzers: checks the clock every
/// `kPollInterval` ticks so the hot paths pay one increment per step.
class DeadlinePoller {
 public:
  explicit DeadlinePoller(const Deadline& deadline) : deadline_(deadline) {}

  void poll() {
    if (!deadline_.has_value()) return;
    if (++ticks_ < kPollInterval) return;
    ticks_ = 0;
    if (std::chrono::steady_clock::now() >= *deadline_) {
      throw TimeoutError("exact analysis exceeded the EvalContext deadline");
    }
  }

 private:
  static constexpr std::uint64_t kPollInterval = 1024;
  Deadline deadline_;
  std::uint64_t ticks_ = 0;
};

/// Copy of `g` with every adjacency list sorted ascending. The factoring
/// engine evaluates on this normalized form so that a subproblem's value is
/// a pure function of its canonical key (EvalKey): order-preserving node
/// compaction maps sorted adjacency to sorted adjacency, hence BFS orders,
/// pivot choices and the floating-point combination order all coincide with
/// an evaluation of the canonicalized subgraph. That invariant is what makes
/// the cache bit-exact and independent of which thread filled an entry.
Digraph sorted_adjacency_copy(const Digraph& g) {
  Digraph out(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::vector<NodeId> succ = g.successors(u);
    std::sort(succ.begin(), succ.end());
    for (NodeId v : succ) out.add_edge(u, v);
  }
  return out;
}

/// Factoring (pivot decomposition) engine. Operates on a normalized
/// (adjacency-sorted) graph with ascending, duplicate-free sources.
class Factoring {
 public:
  Factoring(const Digraph& g, const std::vector<NodeId>& sources, NodeId sink,
            const std::vector<double>& p, EvalCache* cache,
            const Deadline& deadline)
      : g_(g),
        sources_(sources),
        sink_(sink),
        p_(p),
        cache_(cache),
        poller_(deadline) {
    state_.assign(static_cast<std::size_t>(g.num_nodes()),
                  NodeState::kUndecided);
    // Perfectly reliable nodes never branch: force them up once.
    for (std::size_t v = 0; v < p_.size(); ++v) {
      if (p_[v] == 0.0) state_[v] = NodeState::kUp;
    }
  }

  double run() { return recurse(); }

 private:
  /// BFS over nodes that are not Down; returns per-node flags reachable from
  /// any source. Fills `via_up_only[v]` when v is reachable using only Up
  /// nodes (certain-success test).
  struct Reach {
    std::vector<bool> possible;  // reachable via Up || Undecided
    std::vector<bool> certain;   // reachable via Up only
  };

  Reach reachability() const {
    const auto n = static_cast<std::size_t>(g_.num_nodes());
    Reach r{std::vector<bool>(n, false), std::vector<bool>(n, false)};
    std::deque<NodeId> queue;
    for (NodeId s : sources_) {
      const auto si = static_cast<std::size_t>(s);
      if (state_[si] == NodeState::kDown) continue;
      if (!r.possible[si]) {
        r.possible[si] = true;
        queue.push_back(s);
      }
    }
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (NodeId v : g_.successors(u)) {
        const auto vi = static_cast<std::size_t>(v);
        if (state_[vi] == NodeState::kDown || r.possible[vi]) continue;
        r.possible[vi] = true;
        queue.push_back(v);
      }
    }
    // Second pass restricted to Up nodes.
    queue.clear();
    for (NodeId s : sources_) {
      const auto si = static_cast<std::size_t>(s);
      if (state_[si] != NodeState::kUp || r.certain[si]) continue;
      r.certain[si] = true;
      queue.push_back(s);
    }
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (NodeId v : g_.successors(u)) {
        const auto vi = static_cast<std::size_t>(v);
        if (state_[vi] != NodeState::kUp || r.certain[vi]) continue;
        r.certain[vi] = true;
        queue.push_back(v);
      }
    }
    return r;
  }

  /// Pick the pivot: an undecided node on some surviving source->sink path.
  /// Preference goes to nodes close to the sink on a BFS tree, which makes
  /// the certain-failure prune fire early on layered templates.
  NodeId pick_pivot(const Reach& r) const {
    // Nodes that can still reach the sink through non-Down nodes.
    const auto n = static_cast<std::size_t>(g_.num_nodes());
    std::vector<bool> to_sink(n, false);
    std::deque<NodeId> queue;
    if (state_[static_cast<std::size_t>(sink_)] != NodeState::kDown) {
      to_sink[static_cast<std::size_t>(sink_)] = true;
      queue.push_back(sink_);
    }
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (NodeId v : g_.predecessors(u)) {
        const auto vi = static_cast<std::size_t>(v);
        if (state_[vi] == NodeState::kDown || to_sink[vi]) continue;
        to_sink[vi] = true;
        queue.push_back(v);
      }
      // Visit in BFS order from the sink: the first undecided node on a
      // surviving path is the pivot.
      const auto ui = static_cast<std::size_t>(u);
      if (state_[ui] == NodeState::kUndecided && r.possible[ui]) return u;
    }
    return -1;
  }

  /// Canonical form of the current conditioning state: live (non-Down)
  /// nodes compacted in ascending order, Up nodes carrying probability 0.
  [[nodiscard]] EvalKey make_key() const {
    const auto n = static_cast<std::size_t>(g_.num_nodes());
    EvalKey key;
    std::vector<int> canon(n, -1);
    int next = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (state_[v] != NodeState::kDown) canon[v] = next++;
    }
    key.probs.resize(static_cast<std::size_t>(next));
    for (std::size_t v = 0; v < n; ++v) {
      if (canon[v] < 0) continue;
      key.probs[static_cast<std::size_t>(canon[v])] =
          state_[v] == NodeState::kUp ? 0.0 : p_[v];
    }
    for (NodeId u = 0; u < g_.num_nodes(); ++u) {
      const auto ui = static_cast<std::size_t>(u);
      if (canon[ui] < 0) continue;
      for (NodeId v : g_.successors(u)) {
        const auto vi = static_cast<std::size_t>(v);
        if (canon[vi] >= 0) key.edges.push_back({canon[ui], canon[vi]});
      }
    }
    for (NodeId s : sources_) {
      const auto si = static_cast<std::size_t>(s);
      if (canon[si] >= 0) key.sources.push_back(canon[si]);
    }
    key.sink = canon[static_cast<std::size_t>(sink_)];
    return key;
  }

  double recurse() {
    // Memoize every pivot subproblem (not just the top level). The canonical
    // key fully determines the value, so a hit is bit-exact.
    if (cache_ != nullptr &&
        state_[static_cast<std::size_t>(sink_)] != NodeState::kDown) {
      const EvalKey key = make_key();
      if (const auto hit = cache_->lookup(key)) return *hit;
      const double value = evaluate();
      cache_->store(key, value);
      return value;
    }
    return evaluate();
  }

  double evaluate() {
    poller_.poll();
    const Reach r = reachability();
    const auto sink_i = static_cast<std::size_t>(sink_);
    // Certain failure: no surviving path can exist any more.
    if (state_[sink_i] == NodeState::kDown || !r.possible[sink_i]) return 1.0;
    // Certain success: a fully-working path already exists.
    if (r.certain[sink_i]) return 0.0;

    const NodeId pivot = pick_pivot(r);
    ARCHEX_ASSERT(pivot >= 0,
                  "no pivot despite undecided connectivity state");
    const auto pi = static_cast<std::size_t>(pivot);
    const double pv = p_[pi];

    state_[pi] = NodeState::kDown;
    const double fail_branch = recurse();
    state_[pi] = NodeState::kUp;
    const double work_branch = recurse();
    state_[pi] = NodeState::kUndecided;

    return pv * fail_branch + (1.0 - pv) * work_branch;
  }

  const Digraph& g_;
  const std::vector<NodeId>& sources_;
  NodeId sink_;
  const std::vector<double>& p_;
  EvalCache* cache_ = nullptr;
  DeadlinePoller poller_;
  std::vector<NodeState> state_;
};

void validate(const Digraph& g, const std::vector<NodeId>& sources,
              NodeId sink, const std::vector<double>& p) {
  ARCHEX_REQUIRE(sink >= 0 && sink < g.num_nodes(), "sink out of range");
  ARCHEX_REQUIRE(static_cast<int>(p.size()) == g.num_nodes(),
                 "failure-probability vector must cover every node");
  for (double v : p) {
    ARCHEX_REQUIRE(v >= 0.0 && v <= 1.0,
                   "failure probabilities must lie in [0, 1]");
  }
  for (NodeId s : sources) {
    ARCHEX_REQUIRE(s >= 0 && s < g.num_nodes(), "source out of range");
  }
}

/// Normalize and factor: the normalized graph plus sorted duplicate-free
/// sources pin down the evaluation order, making the result a pure function
/// of the canonical problem (the cache determinism contract).
double run_factoring(const Digraph& g, const std::vector<NodeId>& sources,
                     NodeId sink, const std::vector<double>& p,
                     const EvalContext& ctx) {
  const Digraph normalized = sorted_adjacency_copy(g);
  std::vector<NodeId> ordered = sources;
  std::sort(ordered.begin(), ordered.end());
  ordered.erase(std::unique(ordered.begin(), ordered.end()), ordered.end());
  Factoring factoring(normalized, ordered, sink, p, ctx.cache, ctx.deadline);
  return factoring.run();
}

/// Canonical whole-problem key for kBdd's graph-level memoization, built
/// once per graph and re-aimed at each sink through `key.sink`: all nodes
/// live, perfectly reliable nodes carrying 0.0, edges in the sorted
/// adjacency order. This coincides with the factoring engine's *top-level*
/// key (p == 0 nodes are forced Up there and also carry 0.0), so a cache
/// shared across methods serves whole-graph hits to either — both values
/// are exact; which bit pattern is resident is first-writer-wins
/// (see the determinism contract in DESIGN.md).
EvalKey make_whole_graph_key(const Digraph& g,
                             const std::vector<NodeId>& sources,
                             const std::vector<double>& p) {
  EvalKey key;
  key.probs = p;
  key.edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::size_t first = key.edges.size();
    for (NodeId v : g.successors(u)) key.edges.push_back({u, v});
    std::sort(key.edges.begin() + static_cast<std::ptrdiff_t>(first),
              key.edges.end());
  }
  std::vector<NodeId> ordered = sources;
  std::sort(ordered.begin(), ordered.end());
  ordered.erase(std::unique(ordered.begin(), ordered.end()), ordered.end());
  key.sources.assign(ordered.begin(), ordered.end());
  return key;
}

/// kBdd dispatch: the EvalCache memoizes whole-graph results per sink
/// (synthesis loops re-analyze near-identical iterates) while the manager's
/// computed table handles intra-call sharing. Every sink is looked up
/// first; the missing ones are compiled together, once.
std::vector<double> run_bdd(const Digraph& g,
                            const std::vector<NodeId>& sources,
                            const std::vector<NodeId>& sinks,
                            const std::vector<double>& p,
                            const EvalContext& ctx) {
  if (ctx.cache == nullptr) {
    return bdd_failure_probabilities(g, sources, sinks, p, ctx.deadline);
  }
  EvalKey key = make_whole_graph_key(g, sources, p);
  std::vector<double> failures(sinks.size(), 1.0);
  std::vector<std::size_t> missing;
  std::vector<NodeId> missing_sinks;
  for (std::size_t k = 0; k < sinks.size(); ++k) {
    key.sink = sinks[k];
    if (const auto hit = ctx.cache->lookup(key)) {
      failures[k] = *hit;
    } else {
      missing.push_back(k);
      missing_sinks.push_back(sinks[k]);
    }
  }
  if (missing.empty()) return failures;
  const std::vector<double> values =
      bdd_failure_probabilities(g, sources, missing_sinks, p, ctx.deadline);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    failures[missing[i]] = values[i];
    key.sink = missing_sinks[i];
    ctx.cache->store(key, values[i]);
  }
  return failures;
}

}  // namespace

double failure_probability(const Digraph& g,
                           const std::vector<NodeId>& sources,
                           graph::NodeId sink, const std::vector<double>& p,
                           const EvalContext& ctx, ExactMethod method) {
  validate(g, sources, sink, p);
  if (sources.empty()) return 1.0;
  switch (method) {
    case ExactMethod::kFactoring:
      return run_factoring(g, sources, sink, p, ctx);
    case ExactMethod::kBdd:
      return run_bdd(g, sources, {sink}, p, ctx).front();
  }
  throw InternalError("unknown exact method");
}

EvalResult try_failure_probability(const Digraph& g,
                                   const std::vector<NodeId>& sources,
                                   graph::NodeId sink,
                                   const std::vector<double>& p,
                                   const EvalContext& ctx,
                                   ExactMethod method) {
  try {
    return {failure_probability(g, sources, sink, p, ctx, method),
            EvalStatus::kOk};
  } catch (const TimeoutError&) {
    return {1.0, EvalStatus::kTimeLimit};
  }
}

double failure_probability(const Digraph& g,
                           const std::vector<NodeId>& sources,
                           graph::NodeId sink, const std::vector<double>& p,
                           ExactMethod method) {
  return failure_probability(g, sources, sink, p, EvalContext{}, method);
}

std::string to_string(ExactMethod method) {
  switch (method) {
    case ExactMethod::kFactoring: return "factoring";
    case ExactMethod::kBdd: return "bdd";
  }
  return "unknown";
}

std::optional<ExactMethod> parse_exact_method(const std::string& name) {
  if (name == "factoring") return ExactMethod::kFactoring;
  if (name == "bdd") return ExactMethod::kBdd;
  return std::nullopt;
}

double failure_probability(const Digraph& g, const graph::Partition& partition,
                           graph::NodeId sink, const std::vector<double>& p,
                           ExactMethod method) {
  return failure_probability(g, partition.members(0), sink, p, method);
}

std::vector<double> failure_probabilities(const Digraph& g,
                                          const std::vector<NodeId>& sources,
                                          const std::vector<NodeId>& sinks,
                                          const std::vector<double>& p,
                                          const EvalContext& ctx,
                                          ExactMethod method) {
  if (method != ExactMethod::kBdd) {
    std::vector<double> failures;
    failures.reserve(sinks.size());
    for (NodeId sink : sinks) {
      failures.push_back(
          failure_probability(g, sources, sink, p, ctx, method));
    }
    return failures;
  }
  for (NodeId sink : sinks) validate(g, sources, sink, p);
  if (sources.empty()) return std::vector<double>(sinks.size(), 1.0);
  return run_bdd(g, sources, sinks, p, ctx);
}

WorstSink worst_sink_failure(const Digraph& g,
                             const std::vector<NodeId>& sources,
                             const std::vector<NodeId>& sinks,
                             const std::vector<double>& p,
                             const EvalContext& ctx, ExactMethod method) {
  const std::vector<double> failures =
      failure_probabilities(g, sources, sinks, p, ctx, method);
  WorstSink worst;
  for (std::size_t k = 0; k < sinks.size(); ++k) {
    if (worst.sink < 0 || failures[k] > worst.failure) {
      worst = {failures[k], sinks[k]};
    }
  }
  return worst;
}

double worst_failure_probability(const Digraph& g,
                                 const graph::Partition& partition,
                                 const std::vector<graph::NodeId>& sinks,
                                 const std::vector<double>& p,
                                 ExactMethod method, const EvalContext& ctx) {
  return worst_sink_failure(g, partition.members(0), sinks, p, ctx, method)
      .failure;
}

}  // namespace archex::rel
