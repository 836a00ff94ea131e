// archex/core/serialize.hpp
//
// JSON serialization of templates, configurations, and the archex_server
// wire envelope, so architecture libraries and synthesis results can be
// stored, versioned and exchanged (the paper's ARCHEX prototype kept these
// in MATLAB structs) and solve requests can travel over a socket.
//
// Template document shape:
// {
//   "format": "archex-template", "version": 1,
//   "components": [ {"name": "...", "type": 0, "cost": 7000,
//                    "failure_prob": 2e-4, "power_supply": 70,
//                    "power_demand": 0}, ... ],
//   "candidate_edges": [ {"from": 0, "to": 5, "switch_cost": 1000}, ... ]
// }
//
// Configuration document shape:
// {
//   "format": "archex-configuration", "version": 1,
//   "template_components": <count, consistency check>,
//   "selected_edges": [indices of selected candidate edges]
// }
//
// Request envelope (one line of the archex_server wire protocol):
// {
//   "format": "archex-request", "version": 1,
//   "id": "r-42", "mode": "mr" | "ar" | "pareto",
//   "deadline_seconds": 10.0,      // optional; <= 0 = server default
//   "threads": 2,                  // optional solver thread budget
//   "target_failure": 1e-4,        // mr | ar
//   "lazy": false,                 // optional, mr only
//   "method": "factoring",         // optional exact analyzer; default "bdd"
//   "template": { ...template doc... },  // or "eps_generators": N,
//                                         // N in [1, 10]
//   "pareto": {"initial_target": 1e-2, "tighten_factor": 0.5,
//              "max_points": 8}    // optional, pareto only
// }
// Unknown members are ignored everywhere (forward compatibility: newer
// clients may decorate requests without breaking older servers).
//
// All *_from_json loaders throw SpecError on malformed or semantically
// invalid documents, carrying (source, JSON path, reason) so a CLI spec
// file and a server wire request produce the same one-line diagnostic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/arch_template.hpp"
#include "core/configuration.hpp"
#include "support/check.hpp"

namespace archex::core {

/// A spec document (template/configuration file, server request) failed to
/// parse or validate. `source` names the document (file name, request id),
/// `json_path` points at the offending member ("$.components[3].cost"),
/// `reason` says what was wrong. what() is the one-line rendering
/// "source: json_path: reason" used verbatim by archex_cli's stderr
/// diagnostic and archex_server's error responses.
class SpecError : public Error {
 public:
  SpecError(std::string source, std::string json_path, std::string reason)
      : Error(source + ": " + json_path + ": " + reason),
        source_(std::move(source)),
        json_path_(std::move(json_path)),
        reason_(std::move(reason)) {}

  [[nodiscard]] const std::string& source() const { return source_; }
  [[nodiscard]] const std::string& json_path() const { return json_path_; }
  [[nodiscard]] const std::string& reason() const { return reason_; }

 private:
  std::string source_;
  std::string json_path_;
  std::string reason_;
};

/// Serialize a template (pretty-printed JSON).
[[nodiscard]] std::string to_json(const Template& tmpl);

/// Parse a template document; throws SpecError on malformed or semantically
/// invalid input. `source` names the document in diagnostics.
[[nodiscard]] Template template_from_json(const std::string& text,
                                          const std::string& source =
                                              "<template>");

/// Serialize a configuration (selected edge indices only; pair it with its
/// template document).
[[nodiscard]] std::string to_json(const Configuration& config);

/// Parse a configuration document against its template; throws SpecError.
[[nodiscard]] Configuration configuration_from_json(
    const Template& tmpl, const std::string& text,
    const std::string& source = "<configuration>");

/// Structural 64-bit signature of a template: FNV-1a over every component
/// attribute and candidate edge, order-sensitive. Two templates with equal
/// signatures describe the same synthesis problem family, which is the key
/// the archex_server uses to reuse learned-nogood stores across requests.
[[nodiscard]] std::uint64_t template_signature(const Template& tmpl);

// ---- archex_server wire envelope -------------------------------------------

enum class SolveMode { kMr, kAr, kPareto };

[[nodiscard]] std::string to_string(SolveMode mode);
[[nodiscard]] std::optional<SolveMode> parse_solve_mode(
    const std::string& name);

/// One solve request. Exactly one of `eps_generators` (procedural EPS
/// family, Section-V requirement pack) or `tmpl` (inline template document,
/// generic sink-fed requirement) describes the instance.
struct SolveRequest {
  std::string id;
  SolveMode mode = SolveMode::kMr;
  /// Wall-clock budget for the whole request; <= 0 uses the server default.
  double deadline_seconds = 0.0;
  /// Solver worker-thread budget; clamped by the server, 0 = serial search.
  int threads = 0;
  /// Reliability requirement r* (mr | ar modes).
  double target_failure = 1e-6;
  /// ILP-MR only: the Table-II "lazy" single-path learning strategy.
  bool lazy = false;
  /// Exact analyzer name ("factoring", "bdd", ...); empty = server default.
  std::string method;
  std::optional<int> eps_generators;
  std::optional<Template> tmpl;
  // Pareto sweep knobs (mode == kPareto).
  double initial_target = 1e-2;
  double tighten_factor = 0.5;
  int max_points = 8;
};

/// One solve response line. `status` vocabulary:
///   "optimal"          proven-optimal architecture (or completed sweep).
///                      For mode "ar" it certifies the algebra's bound,
///                      approx_failure = r̃ <= target_failure, with the
///                      least cost under that bound; the exact `failure`
///                      may still exceed the target (Theorem 2 bounds the
///                      gap)
///   "unfeasible"       the template cannot meet the requirement
///   "iteration_limit"  ILP-MR ran out of iterations
///   "time_limit"       the request deadline expired mid-solve
///   "solver_failure"   the ILP engine failed (numeric trouble, node limit)
///   "rejected"         admission control shed the request (queue full)
///   "error"            the request was malformed (`error` has the SpecError
///                      one-liner) or the solve threw
struct SolveResponse {
  std::string id;
  std::string status = "error";
  std::string error;  // diagnostic for "error"/"rejected"

  // Synthesis result (mr | ar; best point for a non-empty pareto sweep).
  double cost = 0.0;
  double failure = 1.0;  // exact worst-sink failure probability
  /// Mode "ar" with an architecture only: its worst-sink r̃ (eq. 9).
  std::optional<double> approx_failure;
  std::vector<int> selected_edges;
  int iterations = 0;

  // Pareto sweep points, least to most reliable (mode == pareto only).
  struct Point {
    double target = 0.0;
    double cost = 0.0;
    double approx_failure = 0.0;
    double exact_failure = 0.0;
    std::vector<int> selected_edges;
  };
  std::vector<Point> points;

  // Solve effort and server-side observability.
  long solver_nodes = 0;
  double solve_seconds = 0.0;
  /// Time the request spent queued before a worker picked it up.
  double queue_seconds = 0.0;
  /// Process-lifetime shared EvalCache counters at response time; a
  /// hit_rate > 0 on a cold template family proves cross-request reuse.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  /// Persistent learned-nogood store for this request's template family.
  long nogood_store_size = 0;
  long nogood_prunings = 0;
};

/// Serialize a request envelope (compact single line, newline-free — the
/// wire protocol is one JSON document per line).
[[nodiscard]] std::string to_json(const SolveRequest& request);

/// Parse and validate a request envelope; throws SpecError.
[[nodiscard]] SolveRequest request_from_json(const std::string& text,
                                             const std::string& source =
                                                 "<request>");

/// Serialize a response envelope (compact single line).
[[nodiscard]] std::string to_json(const SolveResponse& response);

/// Parse a response envelope (client side: tests, bench); throws SpecError.
[[nodiscard]] SolveResponse response_from_json(const std::string& text,
                                               const std::string& source =
                                                   "<response>");

}  // namespace archex::core
