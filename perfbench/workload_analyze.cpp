// analyze: exact worst-sink analysis of stored architectures through
// core::Configuration::worst_failure_probability, with the default method
// and a fresh EvalCache per architecture, as `archex_cli analyze` pays.
// This is the only workload where the rel and bdd layers do the work.
//
// The pool holds seeded EPS g4-g6 architectures: each candidate edge is
// kept with a probability drawn from [0.4, 1.0], and selections whose sinks
// are cut off (failure 1) are rejected, and so are the few whose analysis
// needs more than kMaxWork cache misses (over a second and a third of a GB
// of cache), so a run holds several batches. Op cost still spans 10 ms to
// about a second, so the pool of each template is sorted by the work its
// golden analysis did (cache misses); the 32 lighter ones are cut into
// bins and the heaviest eight each form a bin of their own. A batch takes
// one member per bin, so the ops that set the tail latency, most of the
// run time and the peak memory are the same for every seed, and the seed
// varies the rest.
#include <algorithm>
#include <stdexcept>

#include "common.hpp"
#include "core/configuration.hpp"
#include "eps/eps_template.hpp"
#include "rel/bdd_method.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace archex;
namespace js = archex::json;

constexpr int kGenerators[] = {4, 5, 6};
constexpr int kPoolPerTemplate = 40;
constexpr int kSharedEntries = 32;
// Bin size of each template's lighter entries. g4 takes its whole pool: its
// ops are cheap, and the extra ones put the batch's median latency inside
// the dense cluster of full-architecture g5 analyses (about 35 ms) rather
// than at the sparse gap above it, where it jumped with the seed.
constexpr int kPerBin[] = {1, 2, 2};

int bins_of(std::size_t slot) {
  return kSharedEntries / kPerBin[slot] + kPoolPerTemplate - kSharedEntries;
}
constexpr double kMaxWork = 300000;
constexpr double kMinKeep = 0.4;
constexpr double kMaxKeep = 1.0;
constexpr std::uint64_t kPoolSeed = 20150310;

struct Entry {
  int generators = 0;
  int bin = 0;
  std::vector<int> edges;  // kept candidate edges
  double failure = 1.0;    // golden
  /// `edges` over the template's candidate edges; set for batch entries.
  std::vector<bool> selection;
};

struct Outcome {
  double failure = 1.0;
  double seconds = 0.0;
  rel::EvalCache::Stats cache;
};

Outcome run_op(const core::Template& tmpl, const std::vector<bool>& selection,
               long op_id) {
  Span op_span("op", op_id);
  const double t0 = now_seconds();
  const core::Configuration config(tmpl, selection);
  rel::EvalCache cache;
  rel::EvalContext ctx;
  ctx.cache = &cache;
  Outcome out;
  {
    Span span("rel");
    out.failure = config.worst_failure_probability(ctx);
  }
  out.seconds = now_seconds() - t0;
  out.cache = cache.stats();
  return out;
}

/// The EPS g4-g6 templates, built as `archex_cli analyze --eps N` does.
std::vector<core::Template> make_templates() {
  std::vector<core::Template> out;
  for (int g : kGenerators) {
    eps::EpsSpec spec;
    spec.num_generators = g;
    out.push_back(eps::make_eps_template(spec).tmpl);
  }
  return out;
}

std::size_t template_slot(int generators) {
  for (std::size_t i = 0; i < std::size(kGenerators); ++i) {
    if (kGenerators[i] == generators) return i;
  }
  throw std::runtime_error("analyze goldens: unknown template g" +
                           std::to_string(generators));
}

std::vector<Entry> load_pool(const std::string& path) {
  std::vector<Entry> pool;
  const js::Value doc = load_json(path);
  for (const js::Value& v : doc.at("entries").as_array()) {
    Entry e;
    e.generators = v.at("generators").as_int();
    e.bin = v.at("bin").as_int();
    e.failure = v.at("failure").as_number();
    for (const js::Value& k : v.at("edges").as_array()) {
      e.edges.push_back(k.as_int());
    }
    pool.push_back(std::move(e));
  }
  return pool;
}

/// One pool entry per bin, with its selection over `templates`.
std::vector<Entry> select_batch(const std::vector<Entry>& pool,
                                const std::vector<core::Template>& templates,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Entry> batch;
  for (int g : kGenerators) {
    const core::Template& tmpl = templates[template_slot(g)];
    for (int bin = 0; bin < bins_of(template_slot(g)); ++bin) {
      std::vector<const Entry*> members;
      for (const Entry& e : pool) {
        if (e.generators == g && e.bin == bin) members.push_back(&e);
      }
      if (members.empty()) {
        throw std::runtime_error("analyze goldens: empty bin");
      }
      Entry e = *members[rng.index(members.size())];
      e.selection.assign(
          static_cast<std::size_t>(tmpl.num_candidate_edges()), false);
      for (int k : e.edges) e.selection.at(static_cast<std::size_t>(k)) = true;
      batch.push_back(std::move(e));
    }
  }
  rng.shuffle(batch);
  return batch;
}

struct Phase {
  std::vector<double> latencies;
  std::vector<Outcome> first_cycle;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  long failed = 0;
  long drift = 0;
  double max_rel_err = 0.0;
};

Phase run_phase(const std::vector<Entry>& batch,
                const std::vector<core::Template>& templates,
                double seconds, CpuRotation& cpus, long& next_op) {
  Phase phase;
  const double t0 = now_seconds();
  const double c0 = cpu_seconds();
  for (int cycle = 0; cycle == 0 || now_seconds() - t0 < seconds; ++cycle) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Entry& e = batch[i];
      cpus.advance();
      const double start = now_seconds();
      Outcome o = run_op(templates[template_slot(e.generators)],
                         e.selection, next_op++);
      phase.latencies.push_back(now_seconds() - start);
      if (!close_rel(o.failure, e.failure)) ++phase.failed;
      phase.max_rel_err =
          std::max(phase.max_rel_err, rel_err(o.failure, e.failure));
      if (cycle == 0) {
        phase.first_cycle.push_back(o);
      } else if (phase.first_cycle[i].cache.hits != o.cache.hits ||
                 phase.first_cycle[i].cache.misses != o.cache.misses) {
        ++phase.drift;
      }
    }
  }
  phase.wall_s = now_seconds() - t0;
  phase.cpu_s = cpu_seconds() - c0;
  return phase;
}

double ops_per_s(const Phase& p) {
  return static_cast<double>(p.latencies.size()) / p.wall_s;
}

LayerValues layer_values(const std::vector<Entry>& batch,
                         const std::vector<core::Template>& templates,
                         const Phase& p) {
  LayerValues v;
  double hits = 0, misses = 0, entries = 0;
  std::vector<double> analyze_ms;
  for (const Outcome& o : p.first_cycle) {
    hits += static_cast<double>(o.cache.hits);
    misses += static_cast<double>(o.cache.misses);
    entries += static_cast<double>(o.cache.size);
    analyze_ms.push_back(1e3 * o.seconds);
  }
  v["rel.analyze_ms.p50"] = median(analyze_ms);
  v["rel.analyze_ms.max"] =
      *std::max_element(analyze_ms.begin(), analyze_ms.end());
  v["rel.cache_hits"] = hits;
  v["rel.cache_misses"] = misses;
  v["rel.cache_hit_rate"] = hits / (hits + misses);
  v["rel.cache_entries"] = entries;
  v["rel.max_rel_err"] = p.max_rel_err;

  // bdd probe: compile every sink's connectivity function of each batch
  // architecture once, whatever the default exact method is.
  double allocated = 0, final_nodes = 0, lookups = 0, computed_hits = 0;
  for (const Entry& e : batch) {
    const core::Template& tmpl = templates[template_slot(e.generators)];
    const core::Configuration config(tmpl, e.selection);
    const graph::Digraph g = config.analysis_graph();
    const std::vector<double> probs = tmpl.node_failure_probs();
    for (graph::NodeId sink : tmpl.sinks()) {
      rel::BddEvalStats stats;
      {
        Span span("bdd");
        (void)rel::bdd_failure_probability(g, tmpl.sources(), sink, probs,
                                           rel::BddOrdering::kAuto, &stats);
      }
      allocated += static_cast<double>(stats.peak_nodes);
      final_nodes += static_cast<double>(stats.final_nodes);
      lookups += static_cast<double>(stats.computed_lookups);
      computed_hits += static_cast<double>(stats.computed_hits);
    }
  }
  v["bdd.nodes_allocated"] = allocated;
  v["bdd.final_nodes"] = final_nodes;
  v["bdd.computed_hit_rate"] = computed_hits / lookups;
  return v;
}

}  // namespace

Result run_analyze(const Options& options) {
  // The goldens are the benchmark's own checks: read before set-up starts.
  const std::vector<Entry> pool =
      load_pool(options.goldens_dir + "/analyze.json");
  std::vector<core::Template> templates;
  std::vector<Entry> batch;
  // Set-up: build the templates and draw the batch's architectures.
  CpuRotation cpus;
  const auto setup = [&] {
    templates = make_templates();
    batch = select_batch(pool, templates, options.seed);
  };
  const double setup_s = median_setup_seconds(5, setup, &cpus);

  Result result;
  long next_op = 0;
  if (!options.trace) {
    const Phase p =
        run_phase(batch, templates, options.seconds, cpus, next_op);
    result.attempted = static_cast<long>(p.latencies.size());
    result.failed = p.failed;
    result.drift = p.drift;
    add_end_to_end(result, setup_s, p.wall_s, p.cpu_s, p.latencies);
    return result;
  }
  const Phase plain =
      run_phase(batch, templates, options.seconds / 2, cpus, next_op);
  tracer().set_enabled(true);
  const Phase traced =
      run_phase(batch, templates, options.seconds / 2, cpus, next_op);
  LayerValues values = layer_values(batch, templates, traced);
  add_trace_summary(values, options, ops_per_s(plain), ops_per_s(traced));
  tracer().set_enabled(false);
  result.attempted =
      static_cast<long>(plain.latencies.size() + traced.latencies.size());
  result.failed = plain.failed + traced.failed;
  result.drift = plain.drift + traced.drift;
  values["check.counter_drift"] = static_cast<double>(result.drift);
  add_per_layer(result, values);
  return result;
}

void make_analyze_goldens(const std::string& path) {
  const std::vector<core::Template> templates = make_templates();
  js::Array entries;
  for (std::size_t t = 0; t < templates.size(); ++t) {
    const core::Template& tmpl = templates[t];
    Rng rng(kPoolSeed + t);
    struct Candidate {
      std::vector<int> edges;
      double keep;
      double failure;
      double work;
    };
    std::vector<Candidate> candidates;
    while (candidates.size() < static_cast<std::size_t>(kPoolPerTemplate)) {
      Candidate c;
      c.keep = rng.uniform(kMinKeep, kMaxKeep);
      std::vector<bool> selection;
      for (int k = 0; k < tmpl.num_candidate_edges(); ++k) {
        const bool keep = rng.uniform() < c.keep;
        selection.push_back(keep);
        if (keep) c.edges.push_back(k);
      }
      const Outcome o = run_op(tmpl, selection, -1);
      c.failure = o.failure;
      c.work = static_cast<double>(o.cache.misses);
      if (c.failure >= 1.0 || c.work > kMaxWork) continue;
      candidates.push_back(std::move(c));
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.work < b.work;
                     });
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      js::Object e;
      e["generators"] = kGenerators[t];
      const int rank = static_cast<int>(i);
      e["bin"] = rank < kSharedEntries
                     ? rank / kPerBin[t]
                     : kSharedEntries / kPerBin[t] + rank - kSharedEntries;
      e["keep"] = candidates[i].keep;
      e["failure"] = candidates[i].failure;
      e["cache_misses"] = candidates[i].work;
      js::Array edges;
      for (int k : candidates[i].edges) edges.emplace_back(k);
      e["edges"] = std::move(edges);
      entries.emplace_back(std::move(e));
    }
  }
  js::Object doc;
  doc["about"] =
      "Golden exact worst-sink failures of the analyze workload's "
      "architecture pool (default exact method), binned by the work of the "
      "analysis. Regenerate with archex_perfbench --make-goldens analyze.";
  doc["entries"] = std::move(entries);
  write_text(path, js::dump(js::Value(std::move(doc)), 1) + "\n");
}

}  // namespace perfbench
