// archex/core/reach_encoder.hpp
//
// Walk-indicator variables over the *decision* edges: the ILP counterpart of
// Lemma 1. For the fixed candidate graph, η is a constant matrix; over the
// reconfigurable template it becomes a family of auxiliary binaries
//
//   walk_to(t, u, len)   == 1 only if a selected walk u -> t of length <= len
//   from_sources(w, len) == 1 only if a selected walk source -> w of
//                           length <= len exists (any source in Π_1)
//
// built by unrolling the recurrence η_l(u,t) = e_ut ∨ ∨_m (e_um ∧ η_{l-1}(m,t))
// with AND/OR linearizations. Two structural optimizations keep the encoding
// small (the paper notes the same effect from EPS sparsity in Section V):
//
//  * candidate-graph pruning — a variable is only created when the walk is
//    possible at all in the template (static η on the candidate graph);
//  * a choice of linearization strength per use site:
//      - kUpperOnly emits just the rows preventing *over*-claiming
//        (y_OR <= Σ operands, z_AND <= each operand). Sound wherever the
//        constraint only lower-bounds connectivity — ILP-MR's eq. (6) rows —
//        because under-claiming can only strengthen the requirement;
//      - kExact adds the opposite direction too (y_OR >= each operand,
//        z_AND >= a + b - 1), pinning every indicator to the true value.
//        Required by ILP-AR's counting equality (eq. 11): with one-sided
//        variables the solver could under-claim a type's redundancy to 0 and
//        erase its k·p^k term from eq. (9) entirely.
//
// The length index strictly decreases through the recurrence, so no circular
// support is possible even on templates with same-type tie cycles.
//
// walk_to caps its length at a bound from candidate-graph reachability,
// computed once per encoder. A selected walk u -> t of length <= len exists
// exactly when a selected simple path of length <= len does (cut the cycles
// out of the shortest walk), and every node v of that path satisfies
// u ->* v ->* t in the candidate graph. With c(u, t) + 1 the number of such
// nodes, walk_to(t, u, len) uses len' = min(len, c(u, t)): every len >= c
// denotes the same Boolean function of the edge variables, so the memo
// returns one Var for all of them, and both honesty modes keep their
// feasible sets while the unrolling shrinks.
// from_sources stays uncapped: the same argument caps it at the number of
// non-source nodes fed by a source that reach w, but that cap also rewrites
// the g1 model and measured no faster on perfbench synth.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/arch_ilp.hpp"
#include "graph/bool_matrix.hpp"

namespace archex::core {

enum class ReachHonesty {
  kUpperOnly,  // indicators may be forced up only when truly supported
  kExact,      // indicators equal true connectivity in integer solutions
};

class ReachEncoder {
 public:
  explicit ReachEncoder(ArchitectureIlp& ilp,
                        ReachHonesty honesty = ReachHonesty::kUpperOnly);

  /// Variable that is 1 only if a selected walk u -> target with length in
  /// [1, len] exists. Returns nullopt when even the candidate graph has no
  /// such walk (the constraint contribution is then a constant 0).
  [[nodiscard]] std::optional<ilp::Var> walk_to(graph::NodeId target,
                                                graph::NodeId u, int len);

  /// Variable that is 1 only if some source reaches w by a selected walk of
  /// length <= len; for a source w itself this is the constant 1.
  [[nodiscard]] std::optional<ilp::Var> from_sources(graph::NodeId w, int len);

  /// Connectivity indicator of eq. (11): w is linked to a source and to the
  /// sink. For w == sink it degenerates to from_sources, for w a source to
  /// walk_to.
  [[nodiscard]] std::optional<ilp::Var> connected_between(graph::NodeId w,
                                                          graph::NodeId sink,
                                                          int len);

  /// Number of auxiliary variables created so far (for size reporting).
  [[nodiscard]] int num_aux_vars() const { return aux_vars_; }

 private:
  /// Static walk indicator η_len of the candidate graph, built lazily.
  const graph::BoolMatrix& candidate_eta(int len);

  [[nodiscard]] bool candidate_walk(graph::NodeId u, graph::NodeId v, int len);
  [[nodiscard]] bool source_candidate_walk(graph::NodeId w, int len);

  ilp::Var and_var(ilp::Var a, ilp::Var b);
  ilp::Var or_var(const std::vector<ilp::Var>& operands);

  ArchitectureIlp& ilp_;
  const Template& tmpl_;
  ReachHonesty honesty_;
  graph::Digraph candidates_;
  std::vector<bool> is_source_;
  std::vector<graph::BoolMatrix> eta_;  // eta_[l-1] = η_l of candidate graph
  std::vector<int> walk_cap_;  // c(u, t) at u * |V| + t; -1: no u -> t walk

  std::map<std::tuple<graph::NodeId, graph::NodeId, int>, ilp::Var> walk_memo_;
  std::map<std::pair<graph::NodeId, int>, ilp::Var> source_memo_;
  std::map<std::pair<int, int>, ilp::Var> and_memo_;
  int aux_vars_ = 0;
};

}  // namespace archex::core
