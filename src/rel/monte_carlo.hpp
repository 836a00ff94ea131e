// archex/rel/monte_carlo.hpp
//
// Monte-Carlo estimator of the source-to-sink failure probability. Never
// used inside the synthesis algorithms (they rely on the exact analyzers);
// it exists to cross-validate the exact methods in the test suite and to
// sanity-check large instances where exact analysis is expensive.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "support/rng.hpp"

namespace archex::rel {

struct MonteCarloResult {
  double estimate = 0.0;
  /// One standard error of the estimate (binomial).
  double std_error = 0.0;
  long samples = 0;
};

/// Configuration of the sharded estimator.
///
/// Determinism contract: the estimate is a pure function of (samples, seed,
/// num_shards, bias). Each shard owns an independent RNG stream derived
/// from `seed` via SplitMix64, and the shards run and merge in ascending
/// shard order.
struct MonteCarloOptions {
  long samples = 100000;
  std::uint64_t seed = 0x5eed5eed5eed5eedULL;
  /// Fixed work decomposition; shards beyond `samples` draw nothing.
  int num_shards = 64;
  /// 0 disables failure biasing; a value in (0, 1) switches every shard to
  /// the importance-sampled estimator (see monte_carlo_failure_biased).
  double bias = 0.0;
};

/// Sharded estimator of P(sink disconnected from all sources); see
/// MonteCarloOptions for the determinism contract.
[[nodiscard]] MonteCarloResult monte_carlo_failure_sharded(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    graph::NodeId sink, const std::vector<double>& p,
    const MonteCarloOptions& options);

/// Estimate P(sink disconnected from all sources) by sampling node states.
[[nodiscard]] MonteCarloResult monte_carlo_failure(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    graph::NodeId sink, const std::vector<double>& p, long samples, Rng& rng);

/// Importance-sampled estimator for *rare* failures. Plain Monte Carlo is
/// blind below ~1/samples (an EPS architecture at r = 1e-10 produces zero
/// failing samples); failure biasing samples each component down with an
/// inflated probability q_v = max(p_v, bias) and reweights each sample by
/// the likelihood ratio prod_v (p_v/q_v or (1-p_v)/(1-q_v)). Unbiased for
/// any bias in (0, 1); a bias near the per-sample failure scale (e.g. 0.05
/// to 0.3) gives useful variance for the EPS magnitudes.
[[nodiscard]] MonteCarloResult monte_carlo_failure_biased(
    const graph::Digraph& g, const std::vector<graph::NodeId>& sources,
    graph::NodeId sink, const std::vector<double>& p, long samples, Rng& rng,
    double bias = 0.1);

}  // namespace archex::rel
