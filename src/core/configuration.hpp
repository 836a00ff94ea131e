// archex/core/configuration.hpp
//
// A configuration: one assignment over the template's candidate-edge
// Booleans (Section II). Provides the architecture graph, the eq.-(1) cost,
// and exact/approximate reliability evaluation on the selected structure
// (with the Section-V same-type shorthand expanded for analysis).
#pragma once

#include <string>
#include <vector>

#include "core/arch_template.hpp"
#include "graph/digraph.hpp"
#include "rel/approx.hpp"
#include "rel/exact.hpp"

namespace archex::core {

class Configuration {
 public:
  /// `edge_selected[k]` decides candidate edge k of `tmpl`. The template
  /// must outlive the configuration.
  Configuration(const Template& tmpl, std::vector<bool> edge_selected);

  [[nodiscard]] const Template& architecture_template() const {
    return *tmpl_;
  }

  [[nodiscard]] bool edge_selected(int index) const;
  [[nodiscard]] int num_selected_edges() const;
  [[nodiscard]] const std::vector<bool>& selection() const {
    return selected_;
  }

  /// δ_i: a node is instantiated iff it has at least one selected incident
  /// edge (in either direction), as in eq. (1).
  [[nodiscard]] std::vector<bool> used_nodes() const;
  [[nodiscard]] int num_used_nodes() const;

  /// Architecture graph G* over the template's nodes and selected edges.
  [[nodiscard]] graph::Digraph selected_graph() const;

  /// G* with same-type shorthand edges expanded into shared-neighbor
  /// redundancy groups (the graph reliability analysis runs on).
  [[nodiscard]] graph::Digraph analysis_graph() const;

  /// Total cost per eq. (1): Σ δ_i c_i + Σ_{i<j} (e_ij ∨ e_ji) c̃_ij.
  [[nodiscard]] double total_cost() const;

  /// Exact failure probability of one sink's functional link.
  [[nodiscard]] double failure_probability(
      graph::NodeId sink,
      rel::ExactMethod method = rel::kDefaultExactMethod) const;

  /// Cached variant: consults `ctx.cache` (whole-graph entries for kBdd,
  /// every pivot for factoring); bit-identical to the plain overload.
  [[nodiscard]] double failure_probability(
      graph::NodeId sink, const rel::EvalContext& ctx,
      rel::ExactMethod method = rel::kDefaultExactMethod) const;

  /// Worst exact failure probability over all sinks (the requirement the
  /// synthesis algorithms check).
  [[nodiscard]] double worst_failure_probability(
      rel::ExactMethod method = rel::kDefaultExactMethod) const;

  /// Accelerated variant of the worst-sink evaluation.
  [[nodiscard]] double worst_failure_probability(
      const rel::EvalContext& ctx,
      rel::ExactMethod method = rel::kDefaultExactMethod) const;

  /// Approximate algebra (eq. 7) for one sink's functional link.
  [[nodiscard]] rel::ApproxResult approximate_failure(
      graph::NodeId sink) const;

  /// Worst r̃ over all sinks.
  [[nodiscard]] double worst_approximate_failure() const;

  /// DOT rendering with component names (single-line-diagram flavor).
  [[nodiscard]] std::string to_dot(const std::string& title = {}) const;

  /// Short textual summary: used nodes, edges, cost.
  [[nodiscard]] std::string summary() const;

 private:
  const Template* tmpl_;
  std::vector<bool> selected_;
};

}  // namespace archex::core
