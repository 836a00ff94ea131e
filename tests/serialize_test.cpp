// Tests for template/configuration JSON serialization (core/serialize.hpp):
// round-trips preserve all attributes and analysis results; malformed or
// mismatched documents are rejected.
#include <gtest/gtest.h>

#include "core/serialize.hpp"
#include "eps/eps_template.hpp"
#include "support/json.hpp"

namespace archex::core {
namespace {

TEST(SerializeTemplate, RoundTripPreservesEverything) {
  eps::EpsSpec spec;
  spec.num_generators = 2;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);
  const Template& original = eps.tmpl;

  const std::string text = to_json(original);
  const Template restored = template_from_json(text);

  ASSERT_EQ(restored.num_components(), original.num_components());
  ASSERT_EQ(restored.num_candidate_edges(), original.num_candidate_edges());
  for (graph::NodeId v = 0; v < original.num_components(); ++v) {
    const Component& a = original.component(v);
    const Component& b = restored.component(v);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.type, b.type);
    EXPECT_DOUBLE_EQ(a.cost, b.cost);
    EXPECT_DOUBLE_EQ(a.failure_prob, b.failure_prob);
    EXPECT_DOUBLE_EQ(a.power_supply, b.power_supply);
    EXPECT_DOUBLE_EQ(a.power_demand, b.power_demand);
  }
  for (int k = 0; k < original.num_candidate_edges(); ++k) {
    const CandidateEdge& a = original.candidate_edge(k);
    const CandidateEdge& b = restored.candidate_edge(k);
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_DOUBLE_EQ(a.switch_cost, b.switch_cost);
  }
}

TEST(SerializeTemplate, RejectsWrongFormatOrVersion) {
  EXPECT_THROW((void)template_from_json(R"({"format": "nope", "version": 1,
      "components": [], "candidate_edges": []})"),
               SpecError);
  EXPECT_THROW((void)template_from_json(R"({"format": "archex-template",
      "version": 99, "components": [], "candidate_edges": []})"),
               SpecError);
  EXPECT_THROW((void)template_from_json("not json"), SpecError);
}

TEST(SerializeTemplate, RejectsSemanticallyInvalidDocuments) {
  // Edge referencing a missing component.
  const std::string bad = R"({
    "format": "archex-template", "version": 1,
    "components": [{"name": "a", "type": 0, "cost": 1,
                    "failure_prob": 0.0}],
    "candidate_edges": [{"from": 0, "to": 7, "switch_cost": 1}]
  })";
  EXPECT_THROW((void)template_from_json(bad), SpecError);
}

TEST(SerializeTemplate, SpecErrorsCarrySourceAndJsonPath) {
  // A parse failure points at the document root with the parser's
  // line/column rendering embedded in the reason.
  try {
    (void)template_from_json("{ broken", "specs/eps.json");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.source(), "specs/eps.json");
    EXPECT_EQ(e.json_path(), "$");
    EXPECT_NE(e.reason().find("line 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("specs/eps.json: $: "),
              std::string::npos);
  }

  // A validation failure points at the offending member.
  const std::string bad_cost = R"({
    "format": "archex-template", "version": 1,
    "components": [{"name": "a", "type": 0, "cost": 1, "failure_prob": 0.0},
                   {"name": "b", "type": 1, "cost": "cheap",
                    "failure_prob": 0.0}],
    "candidate_edges": []
  })";
  try {
    (void)template_from_json(bad_cost, "lib.json");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.source(), "lib.json");
    EXPECT_EQ(e.json_path(), "$.components[1].cost");
    EXPECT_EQ(e.reason(), "expected a number");
  }

  // A missing member names the member and its parent path.
  const std::string missing = R"({
    "format": "archex-template", "version": 1,
    "components": [{"name": "a", "type": 0, "cost": 1}],
    "candidate_edges": []
  })";
  try {
    (void)template_from_json(missing);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.source(), "<template>");
    EXPECT_EQ(e.json_path(), "$.components[0]");
    EXPECT_NE(e.reason().find("failure_prob"), std::string::npos);
  }
}

TEST(SerializeTemplate, SignatureIsStructuralAndOrderSensitive) {
  eps::EpsSpec spec;
  spec.num_generators = 2;
  const Template a = eps::make_eps_template(spec).tmpl;
  const Template b = eps::make_eps_template(spec).tmpl;
  // Same structure => same signature; the JSON round-trip preserves it.
  EXPECT_EQ(template_signature(a), template_signature(b));
  EXPECT_EQ(template_signature(template_from_json(to_json(a))),
            template_signature(a));

  // Any attribute perturbation changes the signature.
  spec.num_generators = 3;
  const Template bigger = eps::make_eps_template(spec).tmpl;
  EXPECT_NE(template_signature(a), template_signature(bigger));

  // Re-parse with one component cost bumped via the JSON text.
  std::string text = to_json(a);
  const auto pos = text.find("\"cost\": ");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + 8, "1");  // prepend a digit: different cost
  EXPECT_NE(template_signature(template_from_json(text)),
            template_signature(a));
}

TEST(SerializeConfiguration, RoundTripPreservesSelectionAndMetrics) {
  eps::EpsSpec spec;
  spec.num_generators = 2;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);

  std::vector<bool> selected(
      static_cast<std::size_t>(eps.tmpl.num_candidate_edges()), false);
  for (int k = 0; k < eps.tmpl.num_candidate_edges(); k += 2) {
    selected[static_cast<std::size_t>(k)] = true;
  }
  const Configuration original(eps.tmpl, selected);

  const std::string text = to_json(original);
  const Configuration restored = configuration_from_json(eps.tmpl, text);

  EXPECT_EQ(restored.selection(), original.selection());
  EXPECT_DOUBLE_EQ(restored.total_cost(), original.total_cost());
  EXPECT_DOUBLE_EQ(restored.worst_failure_probability(),
                   original.worst_failure_probability());
}

TEST(SerializeConfiguration, RejectsTemplateMismatch) {
  eps::EpsSpec small;
  small.num_generators = 1;
  const eps::EpsTemplate eps_small = eps::make_eps_template(small);
  eps::EpsSpec big;
  big.num_generators = 2;
  const eps::EpsTemplate eps_big = eps::make_eps_template(big);

  std::vector<bool> selected(
      static_cast<std::size_t>(eps_small.tmpl.num_candidate_edges()), true);
  const std::string text =
      to_json(Configuration(eps_small.tmpl, selected));
  EXPECT_THROW((void)configuration_from_json(eps_big.tmpl, text), SpecError);
}

TEST(SerializeConfiguration, RejectsOutOfRangeEdges) {
  eps::EpsSpec spec;
  spec.num_generators = 1;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);
  const std::string bad = R"({
    "format": "archex-configuration", "version": 1,
    "template_components": )" +
                          std::to_string(eps.tmpl.num_components()) +
                          R"(, "template_candidate_edges": )" +
                          std::to_string(eps.tmpl.num_candidate_edges()) +
                          R"(, "selected_edges": [9999]})";
  EXPECT_THROW((void)configuration_from_json(eps.tmpl, bad), SpecError);
}

TEST(SerializeEnvelope, RequestRoundTripPreservesAllFields) {
  eps::EpsSpec spec;
  spec.num_generators = 2;

  SolveRequest request;
  request.id = "r-42";
  request.mode = SolveMode::kMr;
  request.deadline_seconds = 7.5;
  request.threads = 3;
  request.target_failure = 2e-5;
  request.lazy = true;
  request.method = "factoring";
  request.tmpl = eps::make_eps_template(spec).tmpl;

  const std::string line = to_json(request);
  // Wire protocol: one document per line, so the encoding is newline-free.
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const SolveRequest restored = request_from_json(line);
  EXPECT_EQ(restored.id, "r-42");
  EXPECT_EQ(restored.mode, SolveMode::kMr);
  EXPECT_DOUBLE_EQ(restored.deadline_seconds, 7.5);
  EXPECT_EQ(restored.threads, 3);
  EXPECT_DOUBLE_EQ(restored.target_failure, 2e-5);
  EXPECT_TRUE(restored.lazy);
  EXPECT_EQ(restored.method, "factoring");
  ASSERT_TRUE(restored.tmpl.has_value());
  EXPECT_FALSE(restored.eps_generators.has_value());
  EXPECT_EQ(template_signature(*restored.tmpl),
            template_signature(*request.tmpl));
}

TEST(SerializeEnvelope, ParetoRequestCarriesSweepKnobs) {
  SolveRequest request;
  request.id = "p-1";
  request.mode = SolveMode::kPareto;
  request.eps_generators = 2;
  request.initial_target = 5e-2;
  request.tighten_factor = 0.25;
  request.max_points = 4;

  const SolveRequest restored = request_from_json(to_json(request));
  EXPECT_EQ(restored.mode, SolveMode::kPareto);
  ASSERT_TRUE(restored.eps_generators.has_value());
  EXPECT_EQ(*restored.eps_generators, 2);
  EXPECT_DOUBLE_EQ(restored.initial_target, 5e-2);
  EXPECT_DOUBLE_EQ(restored.tighten_factor, 0.25);
  EXPECT_EQ(restored.max_points, 4);
}

TEST(SerializeEnvelope, RequestToleratesUnknownFields) {
  // Forward compatibility: newer clients may decorate requests.
  const std::string line = R"({"format": "archex-request", "version": 1,
      "id": "r-1", "mode": "mr", "eps_generators": 1,
      "x_client": "archex-py/2.0", "x_trace": {"span": 7}})";
  const SolveRequest restored = request_from_json(line);
  EXPECT_EQ(restored.id, "r-1");
  ASSERT_TRUE(restored.eps_generators.has_value());
  EXPECT_EQ(*restored.eps_generators, 1);
  // Optional knobs fall back to their defaults.
  EXPECT_DOUBLE_EQ(restored.deadline_seconds, 0.0);
  EXPECT_EQ(restored.threads, 0);
  EXPECT_FALSE(restored.lazy);
}

TEST(SerializeEnvelope, RequestValidationRejectsBadEnvelopes) {
  const auto request_line = [](const std::string& extra) {
    return R"({"format": "archex-request", "version": 1)" + extra + "}";
  };
  // Missing id / bad mode / no instance / both instances.
  EXPECT_THROW((void)request_from_json(
                   request_line(R"(, "mode": "mr", "eps_generators": 1)")),
               SpecError);
  EXPECT_THROW(
      (void)request_from_json(request_line(
          R"(, "id": "r", "mode": "warp", "eps_generators": 1)")),
      SpecError);
  EXPECT_THROW(
      (void)request_from_json(request_line(R"(, "id": "r", "mode": "mr")")),
      SpecError);
  try {
    (void)request_from_json(
        request_line(R"(, "id": "r", "mode": "mr", "eps_generators": 0)"),
        "conn-3");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.source(), "conn-3");
    EXPECT_EQ(e.json_path(), "$.eps_generators");
  }
  // Above the paper's largest EPS (g = 10): rejected before anything is
  // built; the cap itself parses.
  try {
    (void)request_from_json(
        request_line(R"(, "id": "r", "mode": "mr", "eps_generators": 11)"));
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.json_path(), "$.eps_generators");
  }
  EXPECT_EQ(request_from_json(request_line(
                R"(, "id": "r", "mode": "mr", "eps_generators": 10)"))
                .eps_generators,
            10);
  EXPECT_THROW((void)request_from_json(request_line(
                   R"(, "id": "r", "mode": "mr", "eps_generators": 1,
                      "target_failure": 2.0)")),
               SpecError);
  EXPECT_THROW((void)request_from_json(request_line(
                   R"(, "id": "r", "mode": "mr", "eps_generators": 1,
                      "threads": -2)")),
               SpecError);
  EXPECT_THROW((void)request_from_json("{\"format\": \"archex-response\","
                                       "\"version\": 1}"),
               SpecError);
}

TEST(SerializeEnvelope, ResponseRoundTripPreservesEverything) {
  SolveResponse response;
  response.id = "r-42";
  response.status = "optimal";
  response.cost = 123.5;
  response.failure = 3e-7;
  response.selected_edges = {0, 2, 5};
  response.iterations = 4;
  response.solver_nodes = 991;
  response.solve_seconds = 0.125;
  response.queue_seconds = 0.5;
  response.cache_hits = 10;
  response.cache_misses = 4;
  response.cache_hit_rate = 10.0 / 14.0;
  response.nogood_store_size = 6;
  response.nogood_prunings = 17;
  SolveResponse::Point point;
  point.target = 1e-2;
  point.cost = 100.0;
  point.approx_failure = 9e-3;
  point.exact_failure = 8.5e-3;
  point.selected_edges = {1, 3};
  response.points.push_back(point);

  const std::string line = to_json(response);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const SolveResponse restored = response_from_json(line);
  EXPECT_EQ(restored.id, "r-42");
  EXPECT_EQ(restored.status, "optimal");
  EXPECT_TRUE(restored.error.empty());
  EXPECT_DOUBLE_EQ(restored.cost, 123.5);
  EXPECT_DOUBLE_EQ(restored.failure, 3e-7);
  EXPECT_EQ(restored.selected_edges, (std::vector<int>{0, 2, 5}));
  EXPECT_EQ(restored.iterations, 4);
  EXPECT_EQ(restored.solver_nodes, 991);
  EXPECT_DOUBLE_EQ(restored.solve_seconds, 0.125);
  EXPECT_DOUBLE_EQ(restored.queue_seconds, 0.5);
  EXPECT_EQ(restored.cache_hits, 10u);
  EXPECT_EQ(restored.cache_misses, 4u);
  EXPECT_DOUBLE_EQ(restored.cache_hit_rate, 10.0 / 14.0);
  EXPECT_EQ(restored.nogood_store_size, 6);
  EXPECT_EQ(restored.nogood_prunings, 17);
  ASSERT_EQ(restored.points.size(), 1u);
  EXPECT_DOUBLE_EQ(restored.points[0].target, 1e-2);
  EXPECT_DOUBLE_EQ(restored.points[0].exact_failure, 8.5e-3);
  EXPECT_EQ(restored.points[0].selected_edges, (std::vector<int>{1, 3}));
}

TEST(SerializeEnvelope, ArResponseCarriesApproxFailureBesideExact) {
  // An "ar" answer is optimal for the algebra's r̃ <= target; the exact
  // failure travels separately and may exceed the target.
  SolveResponse ar;
  ar.id = "r-ar";
  ar.status = "optimal";
  ar.failure = 2.24e-10;
  ar.approx_failure = 9.6e-11;
  const std::string line = to_json(ar);
  EXPECT_NE(line.find("\"approx_failure\""), std::string::npos);
  const SolveResponse restored = response_from_json(line);
  EXPECT_DOUBLE_EQ(restored.failure, 2.24e-10);
  ASSERT_TRUE(restored.approx_failure.has_value());
  EXPECT_DOUBLE_EQ(*restored.approx_failure, 9.6e-11);

  // Responses without an r̃ (mr, pareto, errors) carry no such member.
  SolveResponse mr;
  mr.id = "r-mr";
  mr.status = "optimal";
  EXPECT_EQ(to_json(mr).find("approx_failure"), std::string::npos);
  EXPECT_FALSE(response_from_json(to_json(mr)).approx_failure.has_value());
}

TEST(SerializeEnvelope, ResponseCountersSurvivePast32Bits) {
  // The server serializes effort counters as long long; a long-lived server
  // can legitimately exceed 2^31 nodes, so parsing must not narrow via int.
  SolveResponse response;
  response.id = "r-big";
  response.status = "optimal";
  response.solver_nodes = 3'000'000'000L;
  response.nogood_store_size = 5'000'000'000L;
  response.nogood_prunings = 6'000'000'000L;
  const SolveResponse restored = response_from_json(to_json(response));
  EXPECT_EQ(restored.solver_nodes, 3'000'000'000L);
  EXPECT_EQ(restored.nogood_store_size, 5'000'000'000L);
  EXPECT_EQ(restored.nogood_prunings, 6'000'000'000L);
}

TEST(SerializeEnvelope, ErrorResponseCarriesDiagnostic) {
  SolveResponse response;
  response.id = "r-9";
  response.status = "rejected";
  response.error = "queue full (8 requests queued)";
  const SolveResponse restored = response_from_json(to_json(response));
  EXPECT_EQ(restored.status, "rejected");
  EXPECT_EQ(restored.error, "queue full (8 requests queued)");
}

}  // namespace
}  // namespace archex::core
