// Tests for the reliability-evaluation cache: the EvalCache unit behaviour
// (hits, capacity, invalidation, sharding), the determinism contract of the
// cached factoring analyzer (cold, warm and concurrently shared runs must be
// bit-identical to the plain evaluation for the same inputs), and the
// sharded Monte Carlo estimator.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "rel/eval_cache.hpp"
#include "rel/exact.hpp"
#include "rel/monte_carlo.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace archex::rel {
namespace {

using graph::Digraph;
using graph::NodeId;
using support::ThreadPool;

// The determinism contract below is about the factoring engine's
// pivot-subproblem caching, so those tests name it rather than run under
// the default exact method (BDD).
constexpr ExactMethod kFactoring = ExactMethod::kFactoring;

EvalKey sample_key(int salt = 0) {
  EvalKey key;
  key.edges = {{0, 1}, {1, 2 + salt}};
  key.probs = {0.1, 0.2, 0.3};
  key.sources = {0};
  key.sink = 2;
  return key;
}

// Random DAG with sources {0, 1} and sink n-1, mirroring the rel_test
// agreement fixture; dense enough that factoring recurses several levels.
Digraph random_dag(std::uint64_t seed, int n, std::vector<double>& p) {
  Rng rng(seed);
  Digraph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.next_bernoulli(0.5)) g.add_edge(u, v);
    }
  }
  p.assign(static_cast<std::size_t>(n), 0.0);
  for (auto& v : p) v = rng.next_double() * 0.5;
  return g;
}

// ---- cache unit behaviour ---------------------------------------------------

TEST(EvalCache, MissThenHit) {
  EvalCache cache;
  const EvalKey key = sample_key();
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.store(key, 0.25);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0.25);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(EvalCache, DistinctKeysDoNotAlias) {
  EvalCache cache;
  cache.store(sample_key(0), 1.0);
  EXPECT_FALSE(cache.lookup(sample_key(1)).has_value());

  // Same structure but different probabilities is a different subproblem.
  EvalKey tweaked = sample_key(0);
  tweaked.probs[1] = 0.75;
  EXPECT_FALSE(cache.lookup(tweaked).has_value());
  EXPECT_NE(sample_key(0).hash(), tweaked.hash());
}

TEST(EvalCache, DuplicateStoreKeepsFirstValue) {
  EvalCache cache;
  const EvalKey key = sample_key();
  cache.store(key, 0.5);
  cache.store(key, 0.9);
  EXPECT_EQ(*cache.lookup(key), 0.5);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(EvalCache, CapacityRejectsNewKeysButNotExisting) {
  EvalCache cache(/*max_entries=*/2);
  cache.store(sample_key(0), 0.0);
  cache.store(sample_key(1), 1.0);
  cache.store(sample_key(2), 2.0);  // over capacity: dropped
  EXPECT_FALSE(cache.lookup(sample_key(2)).has_value());
  EXPECT_TRUE(cache.lookup(sample_key(0)).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.rejected, 1u);

  // Re-storing a resident key at capacity is not a rejection.
  cache.store(sample_key(0), 0.0);
  EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST(EvalCache, ClearInvalidatesEntriesButKeepsCounters) {
  EvalCache cache;
  cache.store(sample_key(), 0.5);
  (void)cache.lookup(sample_key());
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Entries are gone: the same key misses and can be restored with a new
  // value (this is the invalidation path for changed inputs).
  EXPECT_FALSE(cache.lookup(sample_key()).has_value());
  cache.store(sample_key(), 0.75);
  EXPECT_EQ(*cache.lookup(sample_key()), 0.75);
}

// ---- sharded table vs single-lock table -------------------------------------

TEST(EvalCacheSharding, ShardCountIsClampedPowerOfTwo) {
  EXPECT_EQ(EvalCache(16, 1).num_shards(), 1);
  EXPECT_EQ(EvalCache(16, 3).num_shards(), 4);
  EXPECT_EQ(EvalCache(16, 16).num_shards(), 16);
  EXPECT_EQ(EvalCache(16, 100000).num_shards(), 256);
  EXPECT_EQ(EvalCache().num_shards(), EvalCache::kDefaultShards);
}

TEST(EvalCacheSharding, UnitBehaviourIdenticalAcrossShardCounts) {
  for (const int shards : {1, 2, 16}) {
    EvalCache cache(/*max_entries=*/2, shards);
    cache.store(sample_key(0), 0.0);
    cache.store(sample_key(1), 1.0);
    cache.store(sample_key(2), 2.0);  // over the *global* cap: dropped
    EXPECT_FALSE(cache.lookup(sample_key(2)).has_value()) << shards;
    EXPECT_EQ(*cache.lookup(sample_key(0)), 0.0) << shards;
    EXPECT_EQ(*cache.lookup(sample_key(1)), 1.0) << shards;
    const auto stats = cache.stats();
    EXPECT_EQ(stats.size, 2u) << shards;
    EXPECT_EQ(stats.rejected, 1u) << shards;
    EXPECT_EQ(stats.hits, 2u) << shards;
    EXPECT_EQ(stats.misses, 1u) << shards;
  }
}

// The regression guard for the archex_server refactor: on the randomized
// DAG corpus of the PR 3 differential harness, factoring through a sharded
// table must return bit-identical values to the historical single-lock
// table (shards == 1), cold and warm — results must be a pure function of
// the key set, never of the lock layout.
TEST(EvalCacheSharding, DifferentialShardedVsSingleLockOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<double> p;
    const Digraph g = random_dag(seed * 7919, 10, p);
    const std::vector<NodeId> sources{0, 1};
    const NodeId sink = g.num_nodes() - 1;

    EvalCache single(1u << 20, /*num_shards=*/1);
    EvalContext single_ctx;
    single_ctx.cache = &single;
    const double reference = failure_probability(g, sources, sink, p,
                                                 single_ctx, kFactoring);

    for (const int shards : {2, 16}) {
      EvalCache sharded(1u << 20, shards);
      EvalContext ctx;
      ctx.cache = &sharded;
      EXPECT_EQ(reference,
                failure_probability(g, sources, sink, p, ctx, kFactoring))
          << "seed " << seed << " shards " << shards;  // cold serial
      EXPECT_EQ(reference,
                failure_probability(g, sources, sink, p, ctx, kFactoring))
          << "seed " << seed << " shards " << shards;  // warm serial

      // Same key set -> same resident subproblems, however they stripe.
      EXPECT_EQ(sharded.stats().size, single.stats().size)
          << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(EvalCacheSharding, ConcurrentMixedWorkloadStaysConsistent) {
  // Four pool workers hammer one sharded cache with overlapping
  // evaluations; every value read back must equal the serial reference
  // (first-writer-wins stores identical bits). Factoring stores every pivot
  // subproblem, BDD (the default) one whole-graph entry. Exercised under
  // TSan via the `parallel` label.
  std::vector<double> p;
  const Digraph g = random_dag(4242, 10, p);
  const std::vector<NodeId> sources{0, 1};
  const NodeId sink = g.num_nodes() - 1;
  constexpr int kWorkers = 4;
  ThreadPool pool(kWorkers);
  for (const ExactMethod method : {kFactoring, ExactMethod::kBdd}) {
    const double reference = failure_probability(g, sources, sink, p, method);
    EvalCache cache(1u << 20, 8);
    pool.run_workers(kWorkers, [&](int) {
      EvalContext ctx;
      ctx.cache = &cache;
      for (int rep = 0; rep < 4; ++rep) {
        EXPECT_EQ(reference,
                  failure_probability(g, sources, sink, p, ctx, method));
      }
    });
    EXPECT_GT(cache.stats().hits, 0u) << to_string(method);
  }
}

// ---- determinism contract: factoring ----------------------------------------

TEST(EvalCacheDeterminism, CachedFactoringBitIdenticalToPlain) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::vector<double> p;
    const Digraph g = random_dag(seed * 7919, 9, p);
    const std::vector<NodeId> sources{0, 1};
    const NodeId sink = g.num_nodes() - 1;

    const double plain = failure_probability(g, sources, sink, p, kFactoring);

    EvalCache cache;
    EvalContext ctx;
    ctx.cache = &cache;
    const double cold =
        failure_probability(g, sources, sink, p, ctx, kFactoring);
    const double warm =
        failure_probability(g, sources, sink, p, ctx, kFactoring);

    EXPECT_EQ(plain, cold) << "seed " << seed;   // bit-identical, not NEAR
    EXPECT_EQ(plain, warm) << "seed " << seed;
    // The second evaluation must be answered from the cache.
    EXPECT_GT(cache.stats().hits, 0u);
  }
}

TEST(EvalCacheDeterminism, CacheSharedAcrossSimilarGraphs) {
  // Two graphs differing in one edge can share factoring subproblems (once
  // the recursion conditions the edge's endpoint Down, the canonical keys
  // coincide): the second evaluation must see hits even though the
  // top-level key differs. Sharing depends on pivot order, so this pins a
  // (seed, edge) pair verified to overlap on ~20 subproblems.
  std::vector<double> p;
  const Digraph g = random_dag(7, 10, p);
  Digraph g2 = g;
  g2.add_edge(0, 5);

  EvalCache cache;
  EvalContext ctx;
  ctx.cache = &cache;
  (void)failure_probability(g, {0, 1}, g.num_nodes() - 1, p, ctx, kFactoring);
  const auto before = cache.stats();
  const double accelerated =
      failure_probability(g2, {0, 1}, g.num_nodes() - 1, p, ctx, kFactoring);
  const auto after = cache.stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(accelerated,
            failure_probability(g2, {0, 1}, g.num_nodes() - 1, p, kFactoring));
}

TEST(EvalCacheDeterminism, WorstSinkEvaluationUsesContext) {
  std::vector<double> p;
  const Digraph g = random_dag(31337, 9, p);
  const graph::Partition part({0, 0, 1, 1, 1, 1, 1, 2, 2});
  const std::vector<NodeId> sinks{7, 8};

  const double plain = worst_failure_probability(g, part, sinks, p, kFactoring);
  EvalCache cache;
  EvalContext ctx;
  ctx.cache = &cache;
  const double accelerated =
      worst_failure_probability(g, part, sinks, p, kFactoring, ctx);
  EXPECT_EQ(plain, accelerated);
  EXPECT_GT(cache.stats().misses, 0u);
}

// ---- determinism contract: sharded Monte Carlo ------------------------------

TEST(ShardedMonteCarlo, MatchesExactWithinError) {
  std::vector<double> p;
  const Digraph g = random_dag(512, 9, p);
  const double exact = failure_probability(g, {0, 1}, g.num_nodes() - 1, p);

  for (const double bias : {0.0, 0.2}) {  // plain, then failure-biased
    MonteCarloOptions opt;
    opt.samples = 50000;
    opt.bias = bias;
    const MonteCarloResult mc =
        monte_carlo_failure_sharded(g, {0, 1}, g.num_nodes() - 1, p, opt);
    EXPECT_EQ(mc.samples, opt.samples) << "bias " << bias;
    EXPECT_NEAR(mc.estimate, exact, 5.0 * mc.std_error + 1e-3)
        << "bias " << bias;
  }
}

TEST(ShardedMonteCarlo, MoreShardsThanSamples) {
  std::vector<double> p;
  const Digraph g = random_dag(7, 6, p);
  MonteCarloOptions opt;
  opt.samples = 5;
  opt.num_shards = 64;  // most shards draw nothing
  const MonteCarloResult mc =
      monte_carlo_failure_sharded(g, {0, 1}, g.num_nodes() - 1, p, opt);
  EXPECT_EQ(mc.samples, 5);
  EXPECT_GE(mc.estimate, 0.0);
  EXPECT_LE(mc.estimate, 1.0);
}

TEST(ShardedMonteCarlo, ValidatesOptions) {
  Digraph g(2);
  g.add_edge(0, 1);
  const std::vector<double> p{0.1, 0.1};
  MonteCarloOptions opt;
  opt.samples = 0;
  EXPECT_THROW((void)monte_carlo_failure_sharded(g, {0}, 1, p, opt),
               PreconditionError);
  opt.samples = 10;
  opt.num_shards = 0;
  EXPECT_THROW((void)monte_carlo_failure_sharded(g, {0}, 1, p, opt),
               PreconditionError);
  opt.num_shards = 4;
  opt.bias = 1.5;
  EXPECT_THROW((void)monte_carlo_failure_sharded(g, {0}, 1, p, opt),
               PreconditionError);
}

}  // namespace
}  // namespace archex::rel
