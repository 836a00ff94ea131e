// archex/rel/exact.hpp
//
// Exact source-to-sink failure probability under independent node failures —
// the RELANALYSIS routine of ILP-MR (Algorithm 1) and the reference value r
// reported in Figs. 2/3. This is the (NP-hard) K-terminal reliability
// problem [Lucet & Manouvrier 1997]; the paper notes "any other exact
// reliability analysis method for directed graphs can also be used", so two
// independent exact methods are provided and cross-checked in the tests:
//
//  * BDD (the default): compile source->sink connectivity into an ROBDD
//    (src/bdd) and read P[f = 0] off it in one sweep;
//  * factoring (pivot decomposition, the reference): condition on one
//    relevant component at a time, with two strong pruning rules — certain
//    failure as soon as the surviving nodes disconnect every source from the
//    sink, and certain success as soon as a fully-working path exists.
//
// Semantics (Section II of the paper): a component failure removes the node
// and its incident links; the sink's failure event R_i also includes the
// sink's own failure P_i — equivalently, the system fails iff NO path from
// any source to the sink consists entirely of working nodes (the sink lies
// on every such path). Failures are independent across components and
// unrecoverable; the external controller is assumed to activate any
// alternative path that exists, so reliability depends on topology only.
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/partition.hpp"
#include "rel/eval_cache.hpp"
#include "support/check.hpp"

namespace archex::rel {

enum class ExactMethod {
  kFactoring,
  /// Compile the source->sink connectivity function into an ROBDD (src/bdd)
  /// under a structural variable ordering and evaluate P[f = 0] in one
  /// sweep. Exact; cost scales with BDD width rather than pathset count.
  kBdd,
};

/// The exact method every entry point uses unless told otherwise. Factoring
/// stays selectable and is the differential reference in the tests.
inline constexpr ExactMethod kDefaultExactMethod = ExactMethod::kBdd;

/// An exact analyzer exceeded the EvalContext deadline. Thrown by the
/// `failure_probability` overloads; `try_failure_probability` converts it
/// into EvalStatus::kTimeLimit instead.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

/// Outcome of a deadline-aware evaluation (mirrors lp::SolveStatus).
enum class EvalStatus {
  kOk,
  /// The EvalContext deadline passed mid-analysis; the value is unusable.
  kTimeLimit,
};

struct EvalResult {
  double failure = 1.0;
  EvalStatus status = EvalStatus::kOk;
};

/// Optional context threaded through the exact analyzers. All members may
/// be defaulted (plain evaluation). The determinism contract (DESIGN.md)
/// guarantees that any cache state, shared by any number of threads,
/// produces bit-identical results for the same inputs and method.
struct EvalContext {
  /// Memoizes every pivot subproblem of the factoring recursion (and
  /// whole-graph results of the BDD method), keyed by canonical form.
  /// Shareable across calls, iterates, and threads.
  EvalCache* cache = nullptr;
  /// Wall-clock deadline polled inside the factoring recursion and the BDD
  /// compilation, so
  /// adversarial graphs abort promptly instead of hanging. nullopt (the
  /// default) never times out.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// Exact probability that `sink` is cut off from every node in `sources`
/// (including by its own failure). `p[v]` is the self-failure probability of
/// node v; entries must lie in [0, 1].
[[nodiscard]] double failure_probability(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    graph::NodeId sink, const std::vector<double>& p,
    ExactMethod method = kDefaultExactMethod);

/// Cached variant: consults/extends `ctx.cache` at every factoring pivot
/// subproblem (whole-graph granularity for kBdd). Throws TimeoutError when
/// `ctx.deadline` trips.
[[nodiscard]] double failure_probability(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    graph::NodeId sink, const std::vector<double>& p, const EvalContext& ctx,
    ExactMethod method = kDefaultExactMethod);

/// Deadline-tolerant variant: identical to the EvalContext overload but a
/// tripped `ctx.deadline` is reported as EvalStatus::kTimeLimit instead of
/// a thrown TimeoutError (mirrors lp's SolveStatus::kTimeLimit contract).
[[nodiscard]] EvalResult try_failure_probability(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    graph::NodeId sink, const std::vector<double>& p, const EvalContext& ctx,
    ExactMethod method = kDefaultExactMethod);

/// Convenience overload: sources are the members of type 0 (Π_1).
[[nodiscard]] double failure_probability(
    const graph::Digraph& g, const graph::Partition& partition,
    graph::NodeId sink, const std::vector<double>& p,
    ExactMethod method = kDefaultExactMethod);

/// Short lowercase name of the method ("factoring", "bdd", ...).
[[nodiscard]] std::string to_string(ExactMethod method);

/// Inverse of to_string; nullopt for an unknown name. Used by the bench
/// and CLI `--method` flags.
[[nodiscard]] std::optional<ExactMethod> parse_exact_method(
    const std::string& name);

/// Exact failure of every sink in `sinks` (entry k for sinks[k]), with the
/// same values, cache keys and cache traffic as one failure_probability
/// call per sink. kBdd looks every sink up in `ctx.cache` first and compiles
/// the missing ones together (bdd_failure_probabilities); factoring
/// evaluates sink by sink.
[[nodiscard]] std::vector<double> failure_probabilities(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    const std::vector<graph::NodeId>& sinks, const std::vector<double>& p,
    const EvalContext& ctx = {}, ExactMethod method = kDefaultExactMethod);

/// The worst sink and its failure; the first of equally bad sinks wins.
/// `sink` is -1 (failure 0) when `sinks` is empty.
struct WorstSink {
  double failure = 0.0;
  graph::NodeId sink = -1;
};

/// RELANALYSIS of Alg. 1: the worst case over the sinks of
/// failure_probabilities.
[[nodiscard]] WorstSink worst_sink_failure(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    const std::vector<graph::NodeId>& sinks, const std::vector<double>& p,
    const EvalContext& ctx = {}, ExactMethod method = kDefaultExactMethod);

/// Worst-case failure probability over several sinks (the requirement "r is
/// the worst case failure probability over a set of nodes of interest"),
/// sourced from type 0 (Π_1).
[[nodiscard]] double worst_failure_probability(
    const graph::Digraph& g, const graph::Partition& partition,
    const std::vector<graph::NodeId>& sinks, const std::vector<double>& p,
    ExactMethod method = kDefaultExactMethod,
    const EvalContext& ctx = {});

}  // namespace archex::rel
