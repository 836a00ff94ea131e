#include "core/reach_encoder.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace archex::core {

using ilp::LinExpr;
using ilp::Var;

ReachEncoder::ReachEncoder(ArchitectureIlp& ilp, ReachHonesty honesty)
    : ilp_(ilp),
      tmpl_(ilp.arch_template()),
      honesty_(honesty),
      candidates_(tmpl_.candidate_graph()) {
  is_source_.assign(static_cast<std::size_t>(tmpl_.num_components()), false);
  for (graph::NodeId s : tmpl_.sources()) {
    is_source_[static_cast<std::size_t>(s)] = true;
  }

  // walk_to's length caps from candidate reachability (see the header).
  const int n = tmpl_.num_components();
  const auto idx = [](graph::NodeId v) { return static_cast<std::size_t>(v); };
  std::vector<std::vector<bool>> reach;
  for (graph::NodeId u = 0; u < n; ++u) {
    reach.push_back(candidates_.reachable_from(u));
  }
  // c(u, t) counts the nodes v with u ->* v ->* t, less one: a path has
  // one edge fewer than nodes.
  walk_cap_.assign(idx(n) * idx(n), -1);
  for (graph::NodeId t = 0; t < n; ++t) {
    for (graph::NodeId v = 0; v < n; ++v) {
      if (!reach[idx(v)][idx(t)]) continue;
      for (graph::NodeId u = 0; u < n; ++u) {
        if (reach[idx(u)][idx(v)]) ++walk_cap_[idx(u) * idx(n) + idx(t)];
      }
    }
  }
}

const graph::BoolMatrix& ReachEncoder::candidate_eta(int len) {
  ARCHEX_REQUIRE(len >= 1, "walk length must be at least 1");
  if (eta_.empty()) {
    eta_.push_back(graph::BoolMatrix::adjacency(candidates_));
  }
  while (static_cast<int>(eta_.size()) < len) {
    // η_{l+1} = η_l ∨ (η_l ⊙ e); reuse η_1 as e.
    eta_.push_back(
        logical_or(eta_.back(), logical_product(eta_.back(), eta_.front())));
  }
  return eta_[static_cast<std::size_t>(len - 1)];
}

bool ReachEncoder::candidate_walk(graph::NodeId u, graph::NodeId v, int len) {
  if (len < 1) return false;
  return candidate_eta(len).get(u, v);
}

bool ReachEncoder::source_candidate_walk(graph::NodeId w, int len) {
  if (is_source_[static_cast<std::size_t>(w)]) return true;
  if (len < 1) return false;
  for (graph::NodeId s : tmpl_.sources()) {
    if (candidate_eta(len).get(s, w)) return true;
  }
  return false;
}

Var ReachEncoder::and_var(Var a, Var b) {
  const auto key = std::minmax(a.id, b.id);
  if (const auto it = and_memo_.find({key.first, key.second});
      it != and_memo_.end()) {
    return it->second;
  }
  const Var z = ilp_.model().add_binary();
  // z can be 1 only when both operands are.
  ilp_.model().add_row(LinExpr(z) - LinExpr(a) <= 0.0);
  ilp_.model().add_row(LinExpr(z) - LinExpr(b) <= 0.0);
  if (honesty_ == ReachHonesty::kExact) {
    // ... and must be 1 when both are: z >= a + b - 1.
    ilp_.model().add_row(LinExpr(z) - LinExpr(a) - LinExpr(b) >= -1.0);
  }
  and_memo_.emplace(std::pair<int, int>{key.first, key.second}, z);
  ++aux_vars_;
  return z;
}

Var ReachEncoder::or_var(const std::vector<Var>& operands) {
  ARCHEX_ASSERT(!operands.empty(), "OR over an empty operand list");
  if (operands.size() == 1) return operands.front();
  const Var y = ilp_.model().add_binary();
  // y can be 1 only when some operand is.
  LinExpr sum;
  for (Var x : operands) sum += x;
  ilp_.model().add_row(LinExpr(y) - sum <= 0.0);
  if (honesty_ == ReachHonesty::kExact) {
    // ... and must be 1 when any operand is: y >= x for each x.
    for (Var x : operands) {
      ilp_.model().add_row(LinExpr(y) - LinExpr(x) >= 0.0);
    }
  }
  ++aux_vars_;
  return y;
}

std::optional<Var> ReachEncoder::walk_to(graph::NodeId target, graph::NodeId u,
                                         int len) {
  ARCHEX_REQUIRE(u != target, "walk_to expects distinct endpoints");
  ARCHEX_REQUIRE(len >= 1, "walk length must be at least 1");
  len = std::min(len, walk_cap_[static_cast<std::size_t>(
                           u * tmpl_.num_components() + target)]);
  if (!candidate_walk(u, target, len)) return std::nullopt;

  const auto key = std::make_tuple(target, u, len);
  if (const auto it = walk_memo_.find(key); it != walk_memo_.end()) {
    return it->second;
  }

  std::vector<Var> operands;
  if (const auto direct = ilp_.edge_var(u, target)) {
    operands.push_back(*direct);
  }
  if (len >= 2) {
    for (graph::NodeId m : candidates_.successors(u)) {
      if (m == target || m == u) continue;
      if (!candidate_walk(m, target, len - 1)) continue;
      const auto step = ilp_.edge_var(u, m);
      ARCHEX_ASSERT(step.has_value(), "candidate successor without edge var");
      const auto rest = walk_to(target, m, len - 1);
      ARCHEX_ASSERT(rest.has_value(),
                    "candidate walk exists but recursion found none");
      operands.push_back(and_var(*step, *rest));
    }
  }
  ARCHEX_ASSERT(!operands.empty(),
                "candidate η is set but no operand was derivable");
  const Var y = or_var(operands);
  walk_memo_.emplace(key, y);
  return y;
}

std::optional<Var> ReachEncoder::from_sources(graph::NodeId w, int len) {
  ARCHEX_REQUIRE(len >= 0, "walk length must be non-negative");
  if (is_source_[static_cast<std::size_t>(w)]) return ilp_.constant(true);
  if (len < 1 || !source_candidate_walk(w, len)) return std::nullopt;

  const auto key = std::make_pair(w, len);
  if (const auto it = source_memo_.find(key); it != source_memo_.end()) {
    return it->second;
  }

  std::vector<Var> operands;
  for (graph::NodeId p : candidates_.predecessors(w)) {
    const auto step = ilp_.edge_var(p, w);
    ARCHEX_ASSERT(step.has_value(), "candidate predecessor without edge var");
    if (is_source_[static_cast<std::size_t>(p)]) {
      operands.push_back(*step);
      continue;
    }
    if (len >= 2 && source_candidate_walk(p, len - 1)) {
      const auto rest = from_sources(p, len - 1);
      ARCHEX_ASSERT(rest.has_value(),
                    "candidate source walk exists but recursion found none");
      operands.push_back(and_var(*step, *rest));
    }
  }
  if (operands.empty()) return std::nullopt;
  const Var y = or_var(operands);
  source_memo_.emplace(key, y);
  return y;
}

std::optional<Var> ReachEncoder::connected_between(graph::NodeId w,
                                                   graph::NodeId sink,
                                                   int len) {
  if (w == sink) return from_sources(w, len);
  const auto down = walk_to(sink, w, len);
  if (!down) return std::nullopt;
  const auto up = from_sources(w, len);
  if (!up) return std::nullopt;
  if (up->id == ilp_.constant(true).id) return down;
  return and_var(*down, *up);
}

}  // namespace archex::core
