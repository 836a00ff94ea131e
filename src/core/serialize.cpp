#include "core/serialize.hpp"

#include <cstring>
#include <utility>

#include "support/check.hpp"
#include "support/json.hpp"

namespace archex::core {

namespace {

constexpr int kVersion = 1;

/// Largest procedural EPS a request may ask for: g = 10 generators is
/// |V| = 51, the paper's largest EPS. The template's candidate edges grow as
/// about 4g^2, so an unbounded g lets one short line demand any amount of
/// memory (and 5g + 1 overflows int).
constexpr int kMaxEpsGenerators = 10;

// ---- path-tracking decoder --------------------------------------------------

/// Cursor over a parsed JSON value that remembers its path from the
/// document root, so every validation failure can point at the offending
/// member ("$.components[3].cost"). All access errors surface as SpecError
/// with (source, path, reason) — the uniform diagnostic shared by CLI spec
/// loading and server request validation.
class Doc {
 public:
  Doc(const json::Value* value, std::string path, const std::string* source)
      : value_(value), path_(std::move(path)), source_(source) {}

  [[noreturn]] void fail(const std::string& reason) const {
    throw SpecError(*source_, path_, reason);
  }

  [[nodiscard]] const json::Value& raw() const { return *value_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  [[nodiscard]] bool has(const std::string& key) const {
    return value_->is_object() && value_->contains(key);
  }

  [[nodiscard]] Doc at(const std::string& key) const {
    if (!value_->is_object()) fail("expected an object");
    if (!value_->contains(key)) fail("missing member \"" + key + "\"");
    return Doc(&value_->at(key), path_ + "." + key, source_);
  }

  [[nodiscard]] std::optional<Doc> find(const std::string& key) const {
    if (!value_->is_object()) fail("expected an object");
    if (!value_->contains(key)) return std::nullopt;
    return Doc(&value_->at(key), path_ + "." + key, source_);
  }

  [[nodiscard]] std::size_t array_size() const {
    if (!value_->is_array()) fail("expected an array");
    return value_->as_array().size();
  }

  [[nodiscard]] Doc at(std::size_t index) const {
    const json::Array& a = value_->as_array();
    return Doc(&a[index], path_ + "[" + std::to_string(index) + "]",
               source_);
  }

  [[nodiscard]] double number() const {
    if (!value_->is_number()) fail("expected a number");
    return value_->as_number();
  }

  [[nodiscard]] int integer() const {
    const double n = number();
    const auto i = static_cast<int>(n);
    if (static_cast<double>(i) != n) fail("expected an integer");
    return i;
  }

  /// 64-bit variant for counters the server serializes as long long
  /// (solver nodes, nogood-store sizes): values past 2^31 are valid wire
  /// data and must not be narrowed through int.
  [[nodiscard]] long long integer64() const {
    const double n = number();
    const auto i = static_cast<long long>(n);
    if (static_cast<double>(i) != n) fail("expected an integer");
    return i;
  }

  [[nodiscard]] bool boolean() const {
    if (!value_->is_bool()) fail("expected a boolean");
    return value_->as_bool();
  }

  [[nodiscard]] std::string str() const {
    if (!value_->is_string()) fail("expected a string");
    return value_->as_string();
  }

  // Optional-member conveniences: the fallback is returned when the member
  // is absent; a present member of the wrong type still fails loudly.
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const {
    const auto member = find(key);
    return member ? member->number() : fallback;
  }
  [[nodiscard]] int integer_or(const std::string& key, int fallback) const {
    const auto member = find(key);
    return member ? member->integer() : fallback;
  }
  [[nodiscard]] long long integer64_or(const std::string& key,
                                       long long fallback) const {
    const auto member = find(key);
    return member ? member->integer64() : fallback;
  }
  [[nodiscard]] bool boolean_or(const std::string& key, bool fallback) const {
    const auto member = find(key);
    return member ? member->boolean() : fallback;
  }
  [[nodiscard]] std::string str_or(const std::string& key,
                                   const std::string& fallback) const {
    const auto member = find(key);
    return member ? member->str() : fallback;
  }

 private:
  const json::Value* value_;
  std::string path_;
  const std::string* source_;
};

/// Parse a document string, converting parser failures (with their
/// line/column/byte position) into the uniform SpecError form.
json::Value parse_document(const std::string& text,
                           const std::string& source) {
  try {
    return json::parse(text);
  } catch (const json::JsonError& e) {
    throw SpecError(source, "$", e.what());
  }
}

void check_header(const Doc& doc, const std::string& format) {
  const std::string got = doc.at("format").str();
  if (got != format) {
    doc.at("format").fail("unexpected document format \"" + got +
                          "\" (want \"" + format + "\")");
  }
  const int version = doc.at("version").integer();
  if (version != kVersion) {
    doc.at("version").fail("unsupported document version " +
                           std::to_string(version) + " (want " +
                           std::to_string(kVersion) + ")");
  }
}

json::Value template_to_value(const Template& tmpl) {
  json::Array components;
  for (const Component& c : tmpl.components()) {
    components.push_back(json::Object{
        {"name", c.name},
        {"type", c.type},
        {"cost", c.cost},
        {"failure_prob", c.failure_prob},
        {"power_supply", c.power_supply},
        {"power_demand", c.power_demand},
    });
  }
  json::Array edges;
  for (const CandidateEdge& e : tmpl.candidate_edges()) {
    edges.push_back(json::Object{
        {"from", e.from},
        {"to", e.to},
        {"switch_cost", e.switch_cost},
    });
  }
  return json::Object{
      {"format", "archex-template"},
      {"version", kVersion},
      {"components", std::move(components)},
      {"candidate_edges", std::move(edges)},
  };
}

Template template_from_doc(const Doc& doc) {
  check_header(doc, "archex-template");

  Template tmpl;
  const Doc components = doc.at("components");
  for (std::size_t i = 0; i < components.array_size(); ++i) {
    const Doc entry = components.at(i);
    Component c;
    c.name = entry.at("name").str();
    c.type = entry.at("type").integer();
    c.cost = entry.at("cost").number();
    c.failure_prob = entry.at("failure_prob").number();
    c.power_supply = entry.number_or("power_supply", 0.0);
    c.power_demand = entry.number_or("power_demand", 0.0);
    try {
      tmpl.add_component(std::move(c));
    } catch (const Error& e) {
      entry.fail(e.what());
    }
  }
  const Doc edges = doc.at("candidate_edges");
  for (std::size_t i = 0; i < edges.array_size(); ++i) {
    const Doc entry = edges.at(i);
    try {
      tmpl.add_candidate_edge(entry.at("from").integer(),
                              entry.at("to").integer(),
                              entry.at("switch_cost").number());
    } catch (const Error& e) {
      entry.fail(e.what());
    }
  }
  // Surface structural problems (empty types etc.) at load time.
  try {
    (void)tmpl.partition();
  } catch (const Error& e) {
    doc.fail(e.what());
  }
  return tmpl;
}

}  // namespace

std::string to_json(const Template& tmpl) {
  return json::dump(template_to_value(tmpl), 2);
}

Template template_from_json(const std::string& text,
                            const std::string& source) {
  const json::Value doc = parse_document(text, source);
  return template_from_doc(Doc(&doc, "$", &source));
}

std::string to_json(const Configuration& config) {
  json::Array selected;
  const Template& tmpl = config.architecture_template();
  for (int k = 0; k < tmpl.num_candidate_edges(); ++k) {
    if (config.edge_selected(k)) selected.push_back(k);
  }
  const json::Value doc = json::Object{
      {"format", "archex-configuration"},
      {"version", kVersion},
      {"template_components", tmpl.num_components()},
      {"template_candidate_edges", tmpl.num_candidate_edges()},
      {"selected_edges", std::move(selected)},
  };
  return json::dump(doc, 2);
}

Configuration configuration_from_json(const Template& tmpl,
                                      const std::string& text,
                                      const std::string& source) {
  const json::Value parsed = parse_document(text, source);
  const Doc doc(&parsed, "$", &source);
  check_header(doc, "archex-configuration");
  if (doc.at("template_components").integer() != tmpl.num_components()) {
    doc.at("template_components")
        .fail("configuration was saved against a different template "
              "(component count mismatch)");
  }
  if (doc.at("template_candidate_edges").integer() !=
      tmpl.num_candidate_edges()) {
    doc.at("template_candidate_edges")
        .fail("configuration was saved against a different template "
              "(candidate-edge count mismatch)");
  }
  std::vector<bool> selected(
      static_cast<std::size_t>(tmpl.num_candidate_edges()), false);
  const Doc entries = doc.at("selected_edges");
  for (std::size_t i = 0; i < entries.array_size(); ++i) {
    const Doc entry = entries.at(i);
    const int k = entry.integer();
    if (k < 0 || k >= tmpl.num_candidate_edges()) {
      entry.fail("selected edge index out of range");
    }
    selected[static_cast<std::size_t>(k)] = true;
  }
  return Configuration(tmpl, std::move(selected));
}

// ---- template signature -----------------------------------------------------

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline void mix_byte(std::uint64_t& h, unsigned char byte) {
  h ^= byte;
  h *= kFnvPrime;
}

inline void mix_u64(std::uint64_t& h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    mix_byte(h, static_cast<unsigned char>((word >> (8 * byte)) & 0xffULL));
  }
}

inline void mix_double(std::uint64_t& h, double value) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  mix_u64(h, bits);
}

inline void mix_string(std::uint64_t& h, const std::string& s) {
  mix_u64(h, s.size());
  for (const char c : s) mix_byte(h, static_cast<unsigned char>(c));
}

}  // namespace

std::uint64_t template_signature(const Template& tmpl) {
  std::uint64_t h = kFnvOffset;
  mix_u64(h, static_cast<std::uint64_t>(tmpl.num_components()));
  for (const Component& c : tmpl.components()) {
    mix_string(h, c.name);
    mix_u64(h, static_cast<std::uint64_t>(c.type));
    mix_double(h, c.cost);
    mix_double(h, c.failure_prob);
    mix_double(h, c.power_supply);
    mix_double(h, c.power_demand);
  }
  mix_u64(h, static_cast<std::uint64_t>(tmpl.num_candidate_edges()));
  for (const CandidateEdge& e : tmpl.candidate_edges()) {
    mix_u64(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.from)));
    mix_u64(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.to)));
    mix_double(h, e.switch_cost);
  }
  return h;
}

// ---- wire envelope ----------------------------------------------------------

std::string to_string(SolveMode mode) {
  switch (mode) {
    case SolveMode::kMr: return "mr";
    case SolveMode::kAr: return "ar";
    case SolveMode::kPareto: return "pareto";
  }
  return "unknown";
}

std::optional<SolveMode> parse_solve_mode(const std::string& name) {
  if (name == "mr") return SolveMode::kMr;
  if (name == "ar") return SolveMode::kAr;
  if (name == "pareto") return SolveMode::kPareto;
  return std::nullopt;
}

std::string to_json(const SolveRequest& request) {
  json::Object doc{
      {"format", "archex-request"},
      {"version", kVersion},
      {"id", request.id},
      {"mode", to_string(request.mode)},
      {"target_failure", request.target_failure},
  };
  if (request.deadline_seconds > 0.0) {
    doc["deadline_seconds"] = request.deadline_seconds;
  }
  if (request.threads != 0) doc["threads"] = request.threads;
  if (request.lazy) doc["lazy"] = true;
  if (!request.method.empty()) doc["method"] = request.method;
  if (request.eps_generators) doc["eps_generators"] = *request.eps_generators;
  if (request.tmpl) doc["template"] = template_to_value(*request.tmpl);
  if (request.mode == SolveMode::kPareto) {
    doc["pareto"] = json::Object{
        {"initial_target", request.initial_target},
        {"tighten_factor", request.tighten_factor},
        {"max_points", request.max_points},
    };
  }
  return json::dump(json::Value(std::move(doc)));
}

SolveRequest request_from_json(const std::string& text,
                               const std::string& source) {
  const json::Value parsed = parse_document(text, source);
  const Doc doc(&parsed, "$", &source);
  check_header(doc, "archex-request");

  SolveRequest request;
  request.id = doc.at("id").str();
  if (request.id.empty()) doc.at("id").fail("request id must be non-empty");

  const Doc mode = doc.at("mode");
  const auto parsed_mode = parse_solve_mode(mode.str());
  if (!parsed_mode) {
    mode.fail("unknown mode \"" + mode.str() + "\" (want mr|ar|pareto)");
  }
  request.mode = *parsed_mode;

  request.deadline_seconds = doc.number_or("deadline_seconds", 0.0);
  request.threads = doc.integer_or("threads", 0);
  if (request.threads < 0) doc.at("threads").fail("threads must be >= 0");
  request.target_failure = doc.number_or("target_failure", 1e-6);
  if (request.mode != SolveMode::kPareto &&
      (request.target_failure <= 0.0 || request.target_failure >= 1.0)) {
    doc.at("target_failure").fail("target_failure must lie in (0, 1)");
  }
  request.lazy = doc.boolean_or("lazy", false);
  request.method = doc.str_or("method", "");

  if (const auto eps = doc.find("eps_generators")) {
    request.eps_generators = eps->integer();
    if (*request.eps_generators < 1 ||
        *request.eps_generators > kMaxEpsGenerators) {
      eps->fail("eps_generators must lie in [1, " +
                std::to_string(kMaxEpsGenerators) + "]");
    }
  }
  if (const auto tmpl = doc.find("template")) {
    request.tmpl = template_from_doc(*tmpl);
  }
  if (request.eps_generators.has_value() == request.tmpl.has_value()) {
    doc.fail("provide exactly one of \"eps_generators\" or \"template\"");
  }

  if (const auto pareto = doc.find("pareto")) {
    request.initial_target = pareto->number_or("initial_target", 1e-2);
    request.tighten_factor = pareto->number_or("tighten_factor", 0.5);
    request.max_points = pareto->integer_or("max_points", 8);
    if (request.initial_target <= 0.0 || request.initial_target >= 1.0) {
      pareto->at("initial_target").fail("initial_target must lie in (0, 1)");
    }
    if (request.tighten_factor <= 0.0 || request.tighten_factor >= 1.0) {
      pareto->at("tighten_factor").fail("tighten_factor must lie in (0, 1)");
    }
    if (request.max_points < 1) {
      pareto->at("max_points").fail("max_points must be >= 1");
    }
  }
  return request;
}

std::string to_json(const SolveResponse& response) {
  json::Object doc{
      {"format", "archex-response"},
      {"version", kVersion},
      {"id", response.id},
      {"status", response.status},
  };
  if (!response.error.empty()) doc["error"] = response.error;

  json::Array selected;
  for (const int k : response.selected_edges) selected.push_back(k);
  doc["cost"] = response.cost;
  doc["failure"] = response.failure;
  if (response.approx_failure) {
    doc["approx_failure"] = *response.approx_failure;
  }
  doc["selected_edges"] = std::move(selected);
  doc["iterations"] = response.iterations;

  if (!response.points.empty()) {
    json::Array points;
    for (const SolveResponse::Point& p : response.points) {
      json::Array edges;
      for (const int k : p.selected_edges) edges.push_back(k);
      points.push_back(json::Object{
          {"target", p.target},
          {"cost", p.cost},
          {"approx_failure", p.approx_failure},
          {"exact_failure", p.exact_failure},
          {"selected_edges", std::move(edges)},
      });
    }
    doc["points"] = std::move(points);
  }

  doc["solver_nodes"] = static_cast<long long>(response.solver_nodes);
  doc["solve_seconds"] = response.solve_seconds;
  doc["queue_seconds"] = response.queue_seconds;
  doc["cache"] = json::Object{
      {"hits", static_cast<long long>(response.cache_hits)},
      {"misses", static_cast<long long>(response.cache_misses)},
      {"hit_rate", response.cache_hit_rate},
  };
  doc["learning"] = json::Object{
      {"store_size", static_cast<long long>(response.nogood_store_size)},
      {"prunings", static_cast<long long>(response.nogood_prunings)},
  };
  return json::dump(json::Value(std::move(doc)));
}

SolveResponse response_from_json(const std::string& text,
                                 const std::string& source) {
  const json::Value parsed = parse_document(text, source);
  const Doc doc(&parsed, "$", &source);
  check_header(doc, "archex-response");

  SolveResponse response;
  response.id = doc.at("id").str();
  response.status = doc.at("status").str();
  response.error = doc.str_or("error", "");
  response.cost = doc.number_or("cost", 0.0);
  response.failure = doc.number_or("failure", 1.0);
  if (const auto approx = doc.find("approx_failure")) {
    response.approx_failure = approx->number();
  }
  if (const auto edges = doc.find("selected_edges")) {
    for (std::size_t i = 0; i < edges->array_size(); ++i) {
      response.selected_edges.push_back(edges->at(i).integer());
    }
  }
  response.iterations = doc.integer_or("iterations", 0);
  if (const auto points = doc.find("points")) {
    for (std::size_t i = 0; i < points->array_size(); ++i) {
      const Doc entry = points->at(i);
      SolveResponse::Point p;
      p.target = entry.at("target").number();
      p.cost = entry.at("cost").number();
      p.approx_failure = entry.at("approx_failure").number();
      p.exact_failure = entry.at("exact_failure").number();
      if (const auto edges = entry.find("selected_edges")) {
        for (std::size_t j = 0; j < edges->array_size(); ++j) {
          p.selected_edges.push_back(edges->at(j).integer());
        }
      }
      response.points.push_back(std::move(p));
    }
  }
  response.solver_nodes =
      static_cast<long>(doc.integer64_or("solver_nodes", 0));
  response.solve_seconds = doc.number_or("solve_seconds", 0.0);
  response.queue_seconds = doc.number_or("queue_seconds", 0.0);
  if (const auto cache = doc.find("cache")) {
    response.cache_hits =
        static_cast<std::uint64_t>(cache->number_or("hits", 0.0));
    response.cache_misses =
        static_cast<std::uint64_t>(cache->number_or("misses", 0.0));
    response.cache_hit_rate = cache->number_or("hit_rate", 0.0);
  }
  if (const auto learning = doc.find("learning")) {
    response.nogood_store_size =
        static_cast<long>(learning->integer64_or("store_size", 0));
    response.nogood_prunings =
        static_cast<long>(learning->integer64_or("prunings", 0));
  }
  return response;
}

}  // namespace archex::core
