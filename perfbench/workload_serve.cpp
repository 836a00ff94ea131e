// serve: an in-process archex SolveServer (default options, 2 workers)
// driven over loopback by 4 closed-loop client connections; each waits for
// its reply before sending the next line, as the line protocol requires.
//
// The seeded mix repeats a few problem families, so cross-request reuse of
// the shared EvalCache and nogood registry is exercised: ILP-MR on EPS g1
// and g2 at loose targets, ILP-AR g1, a Pareto sweep on g1, and ILP-MR on
// seeded inline templates carried in the envelope — all about a
// millisecond. Each block of 100 lines per client also holds one tight
// ILP-MR g2 request (about 0.4 s cold), which keeps both workers busy so a
// queue forms, and one malformed line, whose answer must be `error`.
// Against the repeats, kFresh lines per block are new requests: a cheap
// family with a newly drawn target (and, for inline templates, newly drawn
// costs), which no earlier request carried, so the nogood registry has no
// entry for them. The traced run reports repeated and new requests apart.
//
// Every response is checked against SolveService::handle on a fresh
// in-process service for the same request.
#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>

#include "common.hpp"
#include "core/ilp_ar.hpp"
#include "core/serialize.hpp"
#include "eps/eps_template.hpp"
#include "server/solve_server.hpp"
#include "support/socket.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace archex;

constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr int kBlock = 100;
constexpr int kFresh = 4;

struct Family {
  std::string name;
  /// Set for well-formed families; `malformed` holds the raw line else.
  std::optional<core::SolveRequest> request;
  std::string malformed;
  bool tight = false;
  /// Log-uniform range the family's targets are drawn from.
  double lo = 0.0;
  double hi = 0.0;
};

/// A small generic network: two sources, three relays and two sinks, with
/// every source-relay and relay-sink link a candidate. The seed draws the
/// costs; the shape stays fixed so every seed's requests cost about the same.
core::Template make_inline_template(Rng& rng) {
  core::Template t;
  std::vector<graph::NodeId> src, mid, dst;
  for (int i = 0; i < 2; ++i) {
    src.push_back(t.add_component({"S" + std::to_string(i), 0,
                                   std::round(rng.uniform(4, 9)) * 1000,
                                   2e-4, 0, 0}));
  }
  for (int i = 0; i < 3; ++i) {
    mid.push_back(t.add_component({"R" + std::to_string(i), 1,
                                   std::round(rng.uniform(1, 3)) * 1000,
                                   1e-4, 0, 0}));
  }
  for (int i = 0; i < 2; ++i) {
    dst.push_back(
        t.add_component({"L" + std::to_string(i), 2, 500, 1e-6, 0, 0}));
  }
  for (graph::NodeId a : src) {
    for (graph::NodeId b : mid) {
      t.add_candidate_edge(a, b, std::round(rng.uniform(1, 4)) * 250);
    }
  }
  for (graph::NodeId a : mid) {
    for (graph::NodeId b : dst) {
      t.add_candidate_edge(a, b, std::round(rng.uniform(1, 4)) * 250);
    }
  }
  return t;
}

core::SolveRequest request(core::SolveMode mode, int eps, double target) {
  core::SolveRequest r;
  r.mode = mode;
  if (eps > 0) r.eps_generators = eps;
  r.target_failure = target;
  return r;
}

/// Draws the request's target (the initial target of a Pareto sweep) from
/// the family's range and, for an inline template, new costs.
void draw(core::SolveRequest& r, const Family& f, Rng& rng) {
  const double target = rng.log_uniform(f.lo, f.hi);
  if (r.mode == core::SolveMode::kPareto) {
    r.initial_target = target;
  } else {
    r.target_failure = target;
  }
  if (r.tmpl) r.tmpl = make_inline_template(rng);
}

/// A new request of family `f`, named by its seed alone so a record needs
/// to keep only the seed.
core::SolveRequest fresh_request(const Family& f, std::uint64_t seed) {
  Rng rng(seed);
  core::SolveRequest r = *f.request;
  draw(r, f, rng);
  return r;
}

std::vector<Family> make_families(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Family> out;
  const auto add = [&](std::string name, core::SolveRequest r, double lo,
                       double hi, bool tight = false) {
    Family f{std::move(name), std::move(r), {}, tight, lo, hi};
    draw(*f.request, f, rng);
    out.push_back(std::move(f));
  };
  for (int i = 0; i < 3; ++i) {
    add("mr-g1", request(core::SolveMode::kMr, 1, 0.0), 1e-4, 1e-2);
  }
  for (int i = 0; i < 2; ++i) {
    add("mr-g2-loose", request(core::SolveMode::kMr, 2, 0.0), 1e-3, 1e-2);
  }
  for (int i = 0; i < 2; ++i) {
    add("ar-g1", request(core::SolveMode::kAr, 1, 0.0), 1e-5, 1e-2);
  }
  add("pareto-g1", request(core::SolveMode::kPareto, 1, 0.0), 2e-3, 1e-2);
  for (int i = 0; i < 2; ++i) {
    core::SolveRequest r = request(core::SolveMode::kMr, 0, 0.0);
    r.tmpl = core::Template{};
    add("mr-inline", std::move(r), 1e-3, 1e-2);
  }
  for (int i = 0; i < 2; ++i) {
    core::SolveRequest r = request(core::SolveMode::kMr, 2, 0.0);
    r.lazy = i == 1;
    add("mr-g2-tight", std::move(r), 1e-6, 1.5e-4, true);
  }
  const std::string bad[] = {
      R"({"format":"archex-request","version":1,"id":"bad","mode":"mr","eps_gen)",
      R"({"format":"archex-request","version":1,"id":"bad","mode":"fastest","eps_generators":1})",
      R"({"format":"archex-response","version":1,"id":"bad","mode":"mr"})",
  };
  for (const std::string& line : bad) {
    out.push_back({"malformed", std::nullopt, line, false, 0.0, 0.0});
  }
  return out;
}

/// One line of a schedule: a family, and the seed of a new request of that
/// family, or 0 for the family's own request.
struct Draw {
  std::size_t family = 0;
  std::uint64_t fresh_seed = 0;
};

/// Per-client request order: blocks of kBlock lines, each with one tight
/// request, one malformed line, kFresh new requests and the cheap families
/// round-robin, shuffled within the block.
class Schedule {
 public:
  Schedule(const std::vector<Family>& families, std::uint64_t seed)
      : rng_(seed) {
    for (std::size_t i = 0; i < families.size(); ++i) {
      if (!families[i].request) {
        malformed_.push_back(i);
      } else if (families[i].tight) {
        tight_.push_back(i);
      } else {
        cheap_.push_back(i);
      }
    }
  }

  Draw next() {
    if (pos_ == block_.size()) refill();
    return block_[pos_++];
  }

 private:
  void refill() {
    block_.clear();
    block_.push_back({tight_[blocks_ % tight_.size()], 0});
    block_.push_back({malformed_[blocks_ % malformed_.size()], 0});
    for (std::size_t i = 0; i < kFresh; ++i) {
      // Never 0: that seed marks a repeated request.
      block_.push_back({cheap_[(blocks_ * kFresh + i) % cheap_.size()],
                        (rng_.index(std::size_t{1} << 62) | 1)});
    }
    for (std::size_t i = 0; block_.size() < kBlock; ++i) {
      block_.push_back({cheap_[i % cheap_.size()], 0});
    }
    rng_.shuffle(block_);
    ++blocks_;
    pos_ = 0;
  }

  Rng rng_;
  std::vector<std::size_t> tight_, malformed_, cheap_;
  std::vector<Draw> block_;
  std::size_t pos_ = 0;
  std::size_t blocks_ = 0;
};

struct Record {
  Draw draw;
  double latency = 0.0;
  core::SolveResponse response;
  bool transport_error = false;
  std::string request_line;
  std::string response_line;
};

std::string line_for(const std::vector<Family>& families, const Draw& d,
                     const std::string& id) {
  const Family& f = families[d.family];
  if (!f.request) return f.malformed;
  core::SolveRequest r =
      d.fresh_seed != 0 ? fresh_request(f, d.fresh_seed) : *f.request;
  r.id = id;
  Span span("wire");
  return core::to_json(r);
}

/// One closed-loop client: send, wait, record, until `end`.
void client_loop(support::TcpStream& stream,
                 const std::vector<Family>& families, Schedule& schedule,
                 int client, double end, std::vector<Record>& out) {
  long seq = 0;
  while (now_seconds() < end) {
    Record rec;
    rec.draw = schedule.next();
    Span op_span("op", static_cast<long>(client) << 32 | seq);
    rec.request_line = line_for(families, rec.draw,
                                "c" + std::to_string(client) + "-" +
                                    std::to_string(seq++));
    const double t0 = now_seconds();
    try {
      Span span("server");
      stream.write_line(rec.request_line);
      if (!stream.read_line(rec.response_line)) {
        throw support::SocketError("connection closed");
      }
    } catch (const support::SocketError&) {
      rec.transport_error = true;
    }
    rec.latency = now_seconds() - t0;
    if (!rec.transport_error) {
      try {
        Span span("wire");
        rec.response = core::response_from_json(rec.response_line);
      } catch (const core::SpecError&) {
        rec.transport_error = true;
      }
    }
    if (!tracer().enabled()) {
      // Only the traced run replays lines and responses (wire.*); dropping
      // them keeps the benchmark's own memory out of peak_rss_mb.
      rec.request_line = {};
      rec.response_line = {};
      rec.response.selected_edges = {};
      for (core::SolveResponse::Point& p : rec.response.points) {
        p.selected_edges = {};
      }
    }
    const bool stop = rec.transport_error;
    out.push_back(std::move(rec));
    if (stop) return;
  }
}

/// A started server with its client connections.
struct Rig {
  std::unique_ptr<server::SolveServer> server;
  std::vector<support::TcpStream> streams;
};

Rig start_rig() {
  server::SolveServerOptions options;
  options.workers = kWorkers;
  Rig rig;
  rig.server = std::make_unique<server::SolveServer>(options);
  rig.server->start();
  for (int c = 0; c < kClients; ++c) {
    rig.streams.push_back(
        support::TcpStream::connect("127.0.0.1", rig.server->port()));
  }
  return rig;
}

/// Runs every client until `seconds` have passed; returns the records of
/// all clients and the wall time until the last reply.
std::vector<Record> run_clients(Rig& rig, const std::vector<Family>& families,
                                std::vector<Schedule>& schedules,
                                double seconds, double& wall_s) {
  std::vector<std::vector<Record>> per_client(kClients);
  const double t0 = now_seconds();
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(rig.streams[static_cast<std::size_t>(c)], families,
                    schedules[static_cast<std::size_t>(c)], c, t0 + seconds,
                    per_client[static_cast<std::size_t>(c)]);
      });
    }
  }
  wall_s = now_seconds() - t0;
  std::vector<Record> all;
  for (auto& records : per_client) {
    std::move(records.begin(), records.end(), std::back_inserter(all));
  }
  return all;
}

/// Untimed warm-up: every family once, spread over the clients.
void warm_up(Rig& rig, const std::vector<Family>& families) {
  std::vector<std::exception_ptr> errors(kClients);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const auto slot = static_cast<std::size_t>(c);
        try {
          for (std::size_t i = slot; i < families.size(); i += kClients) {
            rig.streams[slot].write_line(
                line_for(families, {i, 0}, "warm-" + std::to_string(i)));
            std::string line;
            if (!rig.streams[slot].read_line(line)) {
              throw support::SocketError("warm-up: connection closed");
            }
          }
        } catch (...) {
          errors[slot] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// The in-process answers every response is checked against: one fresh
/// SolveService answers each family once and each new request on its own.
class Reference {
 public:
  explicit Reference(const std::vector<Family>& families)
      : families_(families) {
    for (const Family& f : families) {
      family_answers_.push_back(
          f.request ? std::optional(service_.handle(*f.request))
                    : std::nullopt);
    }
  }

  bool matches(const Record& r) {
    const Family& f = families_[r.draw.family];
    if (r.transport_error) return false;
    if (!f.request) return r.response.status == "error";
    const core::SolveResponse expected =
        r.draw.fresh_seed != 0
            ? service_.handle(fresh_request(f, r.draw.fresh_seed))
            : *family_answers_[r.draw.family];
    const core::SolveResponse& a = r.response;
    return a.status == expected.status &&
           close_rel(a.cost, expected.cost) &&
           close_rel(a.failure, expected.failure) &&
           a.points.size() == expected.points.size();
  }

 private:
  const std::vector<Family>& families_;
  server::SolveService service_;
  std::vector<std::optional<core::SolveResponse>> family_answers_;
};

long count_failed(const std::vector<Record>& records, Reference& reference) {
  return static_cast<long>(
      std::count_if(records.begin(), records.end(),
                    [&](const Record& r) { return !reference.matches(r); }));
}

std::vector<double> latencies(const std::vector<Record>& records) {
  std::vector<double> out;
  for (const Record& r : records) out.push_back(r.latency);
  return out;
}

enum class Kind { kRepeated, kNew, kTight, kMalformed };

Kind kind_of(const std::vector<Family>& families, const Record& r) {
  const Family& f = families[r.draw.family];
  if (!f.request) return Kind::kMalformed;
  if (f.tight) return Kind::kTight;
  return r.draw.fresh_seed != 0 ? Kind::kNew : Kind::kRepeated;
}

double mean_us(const std::vector<Record>& records,
               const std::function<void(const Record&)>& call) {
  const double t0 = now_seconds();
  for (const Record& r : records) call(r);
  return 1e6 * (now_seconds() - t0) / static_cast<double>(records.size());
}

LayerValues layer_values(const std::vector<Family>& families,
                         const std::vector<Record>& records,
                         const server::SolveServer::Stats& before,
                         const server::SolveServer::Stats& after,
                         server::SolveServer& srv) {
  LayerValues v;
  std::vector<double> queue_ms, handle_ms, wire_ms;
  double request_bytes = 0, response_bytes = 0;
  for (const Record& r : records) {
    queue_ms.push_back(1e3 * r.response.queue_seconds);
    handle_ms.push_back(1e3 * r.response.solve_seconds);
    wire_ms.push_back(1e3 * (r.latency - r.response.queue_seconds -
                             r.response.solve_seconds));
    request_bytes += static_cast<double>(r.request_line.size() + 1);
    response_bytes += static_cast<double>(r.response_line.size() + 1);
  }
  const auto n = static_cast<double>(records.size());
  v["server.queue_wait_ms.p50"] = percentile(queue_ms, 50);
  v["server.queue_wait_ms.p99"] = percentile(queue_ms, 99);
  v["server.handle_ms.p50"] = percentile(handle_ms, 50);
  v["server.handle_ms.p99"] = percentile(handle_ms, 99);
  v["server.wire_ms.p50"] = percentile(wire_ms, 50);
  v["server.shed"] = static_cast<double>(after.shed - before.shed);
  v["server.malformed"] =
      static_cast<double>(after.malformed - before.malformed);
  v["server.cache_hit_rate"] = srv.service().cache().stats().hit_rate();
  v["server.nogood_families"] =
      static_cast<double>(srv.service().nogood_families());

  // Repeated requests read against new ones, and the tight requests that
  // keep the workers busy.
  const auto p50 = [&](Kind kind, double (*ms)(const Record&)) {
    std::vector<double> xs;
    for (const Record& r : records) {
      if (kind_of(families, r) == kind) xs.push_back(ms(r));
    }
    return median(xs);
  };
  const auto latency = [](const Record& r) { return 1e3 * r.latency; };
  const auto handle = [](const Record& r) {
    return 1e3 * r.response.solve_seconds;
  };
  v["server.latency_ms.p50.repeated"] = p50(Kind::kRepeated, latency);
  v["server.latency_ms.p50.new"] = p50(Kind::kNew, latency);
  v["server.handle_ms.p50.repeated"] = p50(Kind::kRepeated, handle);
  v["server.handle_ms.p50.new"] = p50(Kind::kNew, handle);
  v["server.handle_ms.p50.tight"] = p50(Kind::kTight, handle);

  // Wire replay: the phase's own lines through the public calls.
  v["wire.request_parse_us"] = mean_us(records, [](const Record& r) {
    try {
      (void)core::request_from_json(r.request_line);
    } catch (const core::SpecError&) {
      // The malformed lines of the mix: rejecting them is the parse cost.
    }
  });
  v["wire.response_emit_us"] = mean_us(records, [](const Record& r) {
    (void)core::to_json(r.response);
  });
  v["wire.response_parse_us"] = mean_us(records, [](const Record& r) {
    (void)core::response_from_json(r.response_line);
  });
  v["wire.request_bytes"] = request_bytes / n;
  v["wire.response_bytes"] = response_bytes / n;

  // Encode probe over the distinct problems of the mix.
  double template_ms = 0, base_ms = 0, ar_ms = 0, rows = 0, vars = 0;
  int eps_count = 0, problems = 0, ar_count = 0;
  for (const Family& f : families) {
    if (!f.request) continue;
    const core::SolveRequest& r = *f.request;
    std::optional<eps::EpsTemplate> eps;
    if (r.eps_generators) {
      eps::EpsSpec spec;
      spec.num_generators = *r.eps_generators;
      const double t0 = now_seconds();
      eps = eps::make_eps_template(spec);
      template_ms += 1e3 * (now_seconds() - t0);
      ++eps_count;
    }
    const core::Template& tmpl = eps ? eps->tmpl : *r.tmpl;
    double t0 = now_seconds();
    core::ArchitectureIlp ilp(tmpl);
    if (eps) {
      eps::apply_eps_requirements(ilp, *eps);
    } else {
      ilp.require_all_sinks_fed();
    }
    base_ms += 1e3 * (now_seconds() - t0);
    if (r.mode == core::SolveMode::kAr) {
      core::IlpArOptions opt;
      opt.target_failure = r.target_failure;
      t0 = now_seconds();
      (void)core::encode_ilp_ar(ilp, opt);
      ar_ms += 1e3 * (now_seconds() - t0);
      ++ar_count;
    }
    rows += ilp.model().num_rows();
    vars += ilp.model().num_variables();
    ++problems;
  }
  v["encode.template_ms"] = template_ms / eps_count;
  v["encode.base_ilp_ms"] = base_ms / problems;
  v["encode.ar_ms"] = ar_ms / ar_count;
  v["encode.rows"] = rows / problems;
  v["encode.vars"] = vars / problems;
  return v;
}

}  // namespace

Result run_serve(const Options& options) {
  std::vector<Family> families;
  Rig rig;
  // Set-up: generate the mix, start and bind a server, connect the
  // clients and warm up. Repeated for a steady figure; the last server
  // stays up for the measured phase.
  const double setup_s = median_setup_seconds(3, [&] {
    if (rig.server) rig.server->stop();
    rig = Rig{};
    families = make_families(options.seed);
    rig = start_rig();
    warm_up(rig, families);
  });
  std::vector<Schedule> schedules;
  for (int c = 0; c < kClients; ++c) {
    schedules.emplace_back(families, options.seed * 7919 + 1 +
                                         static_cast<std::uint64_t>(c));
  }

  Result result;
  double wall_s = 0.0;
  if (!options.trace) {
    const double c0 = cpu_seconds();
    const std::vector<Record> records =
        run_clients(rig, families, schedules, options.seconds, wall_s);
    const double cpu_s = cpu_seconds() - c0;
    rig.server->stop();
    // Before the reference service exists, so peak_rss_mb is the server's.
    add_end_to_end(result, setup_s, wall_s, cpu_s, latencies(records));
    Reference reference(families);
    result.attempted = static_cast<long>(records.size());
    result.failed = count_failed(records, reference);
    return result;
  }
  const std::vector<Record> plain =
      run_clients(rig, families, schedules, options.seconds / 2, wall_s);
  const double plain_ops = static_cast<double>(plain.size()) / wall_s;
  const server::SolveServer::Stats before = rig.server->stats();
  tracer().set_enabled(true);
  const std::vector<Record> traced =
      run_clients(rig, families, schedules, options.seconds / 2, wall_s);
  const double traced_ops = static_cast<double>(traced.size()) / wall_s;
  const server::SolveServer::Stats after = rig.server->stats();
  LayerValues values =
      layer_values(families, traced, before, after, *rig.server);
  for (std::size_t f = 0; f < families.size(); ++f) {
    std::vector<double> repeated_ms, new_ms;
    for (const Record& r : traced) {
      if (r.draw.family != f) continue;
      (r.draw.fresh_seed != 0 ? new_ms : repeated_ms)
          .push_back(1e3 * r.response.solve_seconds);
    }
    result.notes.push_back(
        "family " + std::to_string(f) + " " + families[f].name + ": " +
        std::to_string(repeated_ms.size()) + " repeated, handle p50 " +
        std::to_string(median(repeated_ms)) + " ms; " +
        std::to_string(new_ms.size()) + " new, handle p50 " +
        std::to_string(median(new_ms)) + " ms");
  }
  add_trace_summary(values, options, plain_ops, traced_ops);
  tracer().set_enabled(false);
  rig.server->stop();
  Reference reference(families);
  result.attempted = static_cast<long>(plain.size() + traced.size());
  result.failed =
      count_failed(plain, reference) + count_failed(traced, reference);
  add_per_layer(result, values);
  return result;
}

}  // namespace perfbench
