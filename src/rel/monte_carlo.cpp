#include "rel/monte_carlo.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "support/check.hpp"

namespace archex::rel {

namespace {

/// Raw tallies of one batch of trials; merged across shards in shard order
/// so parallel runs reproduce serial runs bit for bit.
struct Tally {
  long failures = 0;
  double sum_w = 0.0;   // likelihood-ratio weights of failing samples
  double sum_w2 = 0.0;  // their squares (variance of the biased estimator)
};

/// Shared trial loop of the plain and importance-sampled estimators. When
/// `biased` is set, `q` holds the inflated sampling probabilities and the
/// weights are accumulated; otherwise every node draws with its true p.
Tally run_trials(const graph::Digraph& g,
                 const std::vector<graph::NodeId>& sources,
                 graph::NodeId sink, const std::vector<double>& p,
                 const std::vector<double>& q, bool biased, long samples,
                 Rng& rng) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<bool> up(n);
  std::vector<bool> seen(n);
  Tally tally;
  for (long s = 0; s < samples; ++s) {
    double weight = 1.0;
    for (std::size_t v = 0; v < n; ++v) {
      if (!biased) {
        up[v] = !rng.next_bernoulli(p[v]);
        continue;
      }
      if (q[v] <= 0.0) {
        up[v] = true;
        continue;
      }
      const bool fail = rng.next_bernoulli(q[v]);
      up[v] = !fail;
      weight *= fail ? p[v] / q[v] : (1.0 - p[v]) / (1.0 - q[v]);
    }
    // BFS from the sources over working nodes.
    std::fill(seen.begin(), seen.end(), false);
    std::deque<graph::NodeId> queue;
    for (graph::NodeId src : sources) {
      const auto si = static_cast<std::size_t>(src);
      if (up[si] && !seen[si]) {
        seen[si] = true;
        queue.push_back(src);
      }
    }
    while (!queue.empty()) {
      const graph::NodeId u = queue.front();
      queue.pop_front();
      for (graph::NodeId v : g.successors(u)) {
        const auto vi = static_cast<std::size_t>(v);
        if (up[vi] && !seen[vi]) {
          seen[vi] = true;
          queue.push_back(v);
        }
      }
    }
    if (!seen[static_cast<std::size_t>(sink)]) {
      ++tally.failures;
      tally.sum_w += weight;
      tally.sum_w2 += weight * weight;
    }
  }
  return tally;
}

/// Inflated sampling distribution q_v = max(p_v, bias) for failable nodes;
/// perfect nodes stay perfect (no weight contribution).
std::vector<double> biased_distribution(const std::vector<double>& p,
                                        double bias) {
  std::vector<double> q(p.size());
  for (std::size_t v = 0; v < p.size(); ++v) {
    q[v] = p[v] > 0.0 ? std::max(p[v], bias) : 0.0;
  }
  return q;
}

MonteCarloResult finish_plain(long failures, long samples) {
  MonteCarloResult out;
  out.samples = samples;
  out.estimate = static_cast<double>(failures) / static_cast<double>(samples);
  out.std_error = std::sqrt(out.estimate * (1.0 - out.estimate) /
                            static_cast<double>(samples));
  return out;
}

MonteCarloResult finish_biased(double sum_w, double sum_w2, long samples) {
  MonteCarloResult out;
  out.samples = samples;
  const auto ns = static_cast<double>(samples);
  out.estimate = sum_w / ns;
  const double variance =
      std::max(0.0, sum_w2 / ns - out.estimate * out.estimate);
  out.std_error = std::sqrt(variance / ns);
  return out;
}

void validate_inputs(const graph::Digraph& g, const std::vector<double>& p,
                     long samples) {
  ARCHEX_REQUIRE(samples > 0, "sample count must be positive");
  ARCHEX_REQUIRE(static_cast<int>(p.size()) == g.num_nodes(),
                 "failure-probability vector must cover every node");
}

}  // namespace

MonteCarloResult monte_carlo_failure(const graph::Digraph& g,
                                     const std::vector<graph::NodeId>& sources,
                                     graph::NodeId sink,
                                     const std::vector<double>& p,
                                     long samples, Rng& rng) {
  validate_inputs(g, p, samples);
  const Tally tally =
      run_trials(g, sources, sink, p, {}, /*biased=*/false, samples, rng);
  return finish_plain(tally.failures, samples);
}

MonteCarloResult monte_carlo_failure_biased(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    graph::NodeId sink, const std::vector<double>& p, long samples, Rng& rng,
    double bias) {
  validate_inputs(g, p, samples);
  ARCHEX_REQUIRE(bias > 0.0 && bias < 1.0, "bias must lie in (0, 1)");
  const std::vector<double> q = biased_distribution(p, bias);
  const Tally tally =
      run_trials(g, sources, sink, p, q, /*biased=*/true, samples, rng);
  return finish_biased(tally.sum_w, tally.sum_w2, samples);
}

MonteCarloResult monte_carlo_failure_sharded(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    graph::NodeId sink, const std::vector<double>& p,
    const MonteCarloOptions& options) {
  validate_inputs(g, p, options.samples);
  ARCHEX_REQUIRE(options.num_shards >= 1, "need at least one shard");
  const bool biased = options.bias > 0.0;
  if (biased) {
    ARCHEX_REQUIRE(options.bias < 1.0, "bias must lie in (0, 1)");
  }

  const auto shards = static_cast<std::size_t>(options.num_shards);
  // Per-shard sample counts and RNG seeds are fixed up front: the
  // decomposition, and therefore the estimate, depends only on the options.
  std::vector<long> shard_samples(shards);
  const long base = options.samples / options.num_shards;
  const long extra = options.samples % options.num_shards;
  for (std::size_t i = 0; i < shards; ++i) {
    shard_samples[i] = base + (static_cast<long>(i) < extra ? 1 : 0);
  }
  std::vector<std::uint64_t> shard_seeds(shards);
  SplitMix64 mix(options.seed);
  for (std::size_t i = 0; i < shards; ++i) shard_seeds[i] = mix.next();

  const std::vector<double> q =
      biased ? biased_distribution(p, options.bias) : std::vector<double>{};

  // Run and merge in ascending shard order.
  long failures = 0;
  double sum_w = 0.0;
  double sum_w2 = 0.0;
  for (std::size_t i = 0; i < shards; ++i) {
    if (shard_samples[i] == 0) continue;
    Rng rng(shard_seeds[i]);
    const Tally tally = run_trials(g, sources, sink, p, q, biased,
                                   shard_samples[i], rng);
    failures += tally.failures;
    sum_w += tally.sum_w;
    sum_w2 += tally.sum_w2;
  }
  return biased ? finish_biased(sum_w, sum_w2, options.samples)
                : finish_plain(failures, options.samples);
}

}  // namespace archex::rel
