// archex/bdd/bdd.hpp
//
// A from-scratch ROBDD (reduced ordered binary decision diagram) package:
// the substrate behind rel::ExactMethod::kBdd. Following the microkernel
// argument (a self-contained engine with a narrow interface that clients
// merely dispatch into), this library knows nothing about graphs or
// reliability — it manipulates Boolean functions over a fixed variable
// order and evaluates P[f = 0] under independent variable probabilities.
//
// Design:
//
//  * Arena node store. Nodes live in one contiguous vector and are named by
//    32-bit indices (`Ref`); children are always created before parents, so
//    index order is a topological order of the DAG — the probability pass
//    exploits this with a single forward sweep instead of a recursive
//    memoization.
//  * Hash-consing unique table. make_node() returns the existing node for a
//    (var, low, high) triple when one exists (open hashing, chained through
//    an intrusive `next` field, rehashed at load factor 1). Equal functions
//    therefore have equal Refs, making equality tests O(1) and the diagram
//    canonical (reduced + ordered) by construction.
//  * Bounded computed table. The ite() cache is a fixed-size, direct-mapped
//    lossy array: a collision overwrites the previous entry. Memory stays
//    bounded for any workload; stats() reports lookups/hits so callers can
//    size it from measurements.
//  * No complement edges and no garbage collection: a manager is intended
//    to live for one compilation (the reliability path constructs one per
//    evaluated graph), so peak node count equals nodes allocated and the
//    whole arena is dropped at once.
//
// Standard references: Bryant 1986 (ROBDDs), Brace/Rudell/Bryant 1990 (the
// ite/unique-table/computed-table architecture this follows).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "support/check.hpp"

namespace archex::bdd {

/// Node handle: an index into the manager's arena. Refs are only meaningful
/// to the manager that produced them. 0 and 1 are the terminal constants.
using Ref = std::uint32_t;

/// The BDD engine's deadline tripped (see BddManager::set_deadline).
class BddTimeoutError : public Error {
 public:
  explicit BddTimeoutError(const std::string& what) : Error(what) {}
};

/// Occupancy / traffic counters for benchmarking and capacity planning.
struct BddStats {
  /// Live nodes in the arena, terminals included. No GC: this is also the
  /// peak node count of the manager's lifetime.
  std::size_t nodes_allocated = 0;
  /// Resident unique-table entries (== decision nodes, i.e. nodes_allocated
  /// minus the two terminals).
  std::size_t unique_entries = 0;
  /// Current unique-table bucket count (capacity the load factor is
  /// measured against).
  std::size_t unique_buckets = 0;
  /// make_node() calls answered by an existing node (hash-consing hits).
  std::uint64_t unique_hits = 0;
  /// Computed-table (ite cache) traffic.
  std::uint64_t computed_lookups = 0;
  std::uint64_t computed_hits = 0;

  [[nodiscard]] double unique_occupancy() const {
    return unique_buckets == 0
               ? 0.0
               : static_cast<double>(unique_entries) /
                     static_cast<double>(unique_buckets);
  }
  [[nodiscard]] double computed_hit_rate() const {
    return computed_lookups == 0
               ? 0.0
               : static_cast<double>(computed_hits) /
                     static_cast<double>(computed_lookups);
  }
};

class BddManager {
 public:
  static constexpr Ref kFalse = 0;
  static constexpr Ref kTrue = 1;

  /// A manager over variables 0..num_vars-1 (branch order == index order).
  /// `computed_table_bits` sizes the ite cache at 2^bits entries.
  explicit BddManager(int num_vars, int computed_table_bits = 16);

  [[nodiscard]] int num_vars() const { return num_vars_; }

  /// The function of a single variable (true iff x_index).
  [[nodiscard]] Ref var(int index);

  /// If-then-else: f ? g : h. The universal connective — and/or/not below
  /// are one-liners over it, sharing the same computed table.
  [[nodiscard]] Ref ite(Ref f, Ref g, Ref h);

  [[nodiscard]] Ref bdd_and(Ref f, Ref g) { return ite(f, g, kFalse); }
  [[nodiscard]] Ref bdd_or(Ref f, Ref g) { return ite(f, kTrue, g); }
  [[nodiscard]] Ref bdd_not(Ref f) { return ite(f, kFalse, kTrue); }

  /// Cofactor: f with variable `index` fixed to `value`.
  [[nodiscard]] Ref restrict(Ref f, int index, bool value);

  /// P[f = 0] when variable i is independently false with probability
  /// `p_false[i]`. One memoized forward sweep over the arena (children
  /// precede parents by construction), O(nodes_allocated) time and one
  /// double of working memory per node. Every term of the sweep is a
  /// product of non-negative weights, so a tiny P[f = 0] keeps its relative
  /// precision (1 - P[f = 1] would cancel below about 1e-16).
  [[nodiscard]] double prob_false(Ref f,
                                  const std::vector<double>& p_false) const;

  /// P[f = 0] of every root in `roots` from one shared sweep; entry k is
  /// bitwise equal to prob_false(roots[k], p_false).
  [[nodiscard]] std::vector<double> prob_false(
      const std::vector<Ref>& roots, const std::vector<double>& p_false) const;

  /// Structure accessors (terminals have var() == num_vars()).
  [[nodiscard]] bool is_terminal(Ref f) const { return f <= kTrue; }
  [[nodiscard]] int var_of(Ref f) const { return nodes_[f].var; }
  [[nodiscard]] Ref low(Ref f) const { return nodes_[f].low; }
  [[nodiscard]] Ref high(Ref f) const { return nodes_[f].high; }

  /// Decision nodes reachable from `f` (terminals excluded) — the size of
  /// one function, as opposed to stats().nodes_allocated for the arena.
  [[nodiscard]] std::size_t num_nodes(Ref f) const;

  [[nodiscard]] const BddStats& stats() const { return stats_; }

  /// Abort any in-flight ite()/restrict() with BddTimeoutError once the
  /// deadline passes (polled every few thousand recursive steps, so the
  /// overhead is unmeasurable). nullopt clears the deadline.
  void set_deadline(
      std::optional<std::chrono::steady_clock::time_point> deadline) {
    deadline_ = deadline;
  }

 private:
  struct Node {
    int var = 0;      // branch variable; num_vars_ for terminals
    Ref low = 0;      // cofactor at var = 0
    Ref high = 0;     // cofactor at var = 1
    Ref next = 0;     // unique-table chain (0 terminates: node 0 is never
                      // chained — terminals bypass the table)
  };

  struct ComputedEntry {
    Ref f = 0, g = 0, h = 0;
    Ref result = 0;
    bool valid = false;
  };

  [[nodiscard]] Ref make_node(int var, Ref low, Ref high);
  [[nodiscard]] Ref ite_step(Ref f, Ref g, Ref h);
  [[nodiscard]] Ref restrict_step(Ref f, int index, bool value,
                                  std::vector<Ref>& memo);
  void grow_unique_table();
  void poll_deadline();

  int num_vars_ = 0;
  std::vector<Node> nodes_;
  std::vector<Ref> buckets_;       // unique-table heads; size is a power of 2
  std::vector<ComputedEntry> computed_;
  std::size_t computed_mask_ = 0;
  std::vector<Ref> var_refs_;      // memoized single-variable functions
  BddStats stats_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::uint64_t steps_since_poll_ = 0;
};

}  // namespace archex::bdd
