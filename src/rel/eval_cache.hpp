// archex/rel/eval_cache.hpp
//
// Memoization cache for exact K-terminal reliability subproblems. The
// synthesis loops (ILP-MR iterates, Pareto sweep points) evaluate many
// configurations whose induced subgraphs overlap heavily, and the factoring
// analyzer itself re-derives identical pivot subproblems along different
// branches of its recursion tree. Both levels hit this cache.
//
// A subproblem is identified by its *canonical form*: live nodes relabeled
// densely in ascending original order, the sorted induced edge list, the
// per-node failure probabilities (already-conditioned "up" nodes carry 0.0),
// the live source set, and the sink. The canonical form fully determines the
// factoring result — the analyzer evaluates on an adjacency-sorted graph, so
// the stored value is bit-identical to what any later evaluation of the same
// canonical form would compute (see DESIGN.md, determinism contract).
//
// Thread safety and sharding: the table is split into a fixed power-of-two
// number of independently locked shards selected by the top bits of the
// structural key hash (the bottom bits index buckets inside the shard's
// map, so shard choice and bucket choice stay uncorrelated). Concurrent
// lookups/stores only contend when they land on the same shard, so one
// process-lifetime cache can back many parallel solves (the archex_server
// serving path) without the former single mutex becoming the concurrency
// ceiling. Values are pure functions of their keys; racing writers store
// identical bits, making the first-writer-wins policy harmless — and making
// results independent of the shard count (pinned by the sharded-vs-single-
// lock differential in tests/eval_cache_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace archex::rel {

/// Canonical subproblem identity. Equality is structural (hash collisions
/// can never alias two distinct subproblems).
struct EvalKey {
  std::vector<std::pair<int, int>> edges;  // canonical ids, lexicographic
  std::vector<double> probs;               // per canonical node
  std::vector<int> sources;                // canonical ids, ascending
  int sink = 0;                            // canonical id

  bool operator==(const EvalKey&) const = default;

  /// 64-bit structural hash: a word-wise multiply-xor mix over the packed
  /// representation with a final avalanche, so the top bits (shard choice)
  /// and the low bits (bucket choice) both depend on every field.
  [[nodiscard]] std::uint64_t hash() const;
};

class EvalCache {
 public:
  /// Default shard count: enough stripes that a handful of solver workers
  /// rarely collide, small enough that stats aggregation stays cheap.
  static constexpr int kDefaultShards = 16;

  /// `max_entries` bounds memory: stores beyond it are dropped (counted in
  /// stats().rejected) rather than evicting, because synthesis workloads
  /// revisit early iterates far more often than late ones. The cap is
  /// global across shards (tracked by a shared atomic), so shard count
  /// never changes capacity semantics. `num_shards` is rounded up to a
  /// power of two and clamped to [1, 256]; 1 reproduces the historical
  /// single-lock table exactly (the differential-testing baseline).
  explicit EvalCache(std::size_t max_entries = 1u << 20,
                     int num_shards = kDefaultShards);

  /// The cached value for `key`, or nullopt. Updates hit/miss counters.
  [[nodiscard]] std::optional<double> lookup(const EvalKey& key);

  /// Insert key -> value. Duplicate stores keep the existing entry.
  void store(const EvalKey& key, double value);

  /// Drop every entry (invalidation). Counters survive so observability
  /// spans invalidation boundaries; size() resets to 0.
  void clear();

  /// Number of lock stripes the table actually runs with.
  [[nodiscard]] int num_shards() const {
    return static_cast<int>(shards_.size());
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t rejected = 0;  // stores dropped by the max_entries cap
    std::size_t size = 0;        // resident entries

    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };
  /// Aggregated over all shards. Counters from different shards are read
  /// under their own locks, so concurrent updates can make the totals
  /// momentarily inconsistent with each other — fine for observability.
  [[nodiscard]] Stats stats() const;

 private:
  /// A resident key with its hash computed once at store time. Lookups
  /// probe with a (key, hash) pair through the transparent functors below,
  /// so neither the shard pick nor the map ever rehashes a key.
  struct Stored {
    EvalKey key;
    std::uint64_t hash = 0;
  };
  struct Probe {
    const EvalKey& key;
    std::uint64_t hash = 0;
  };
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const Stored& s) const {
      return static_cast<std::size_t>(s.hash);
    }
    std::size_t operator()(const Probe& p) const {
      return static_cast<std::size_t>(p.hash);
    }
  };
  struct KeyEqual {
    using is_transparent = void;
    bool operator()(const Stored& a, const Stored& b) const {
      return a.hash == b.hash && a.key == b.key;
    }
    bool operator()(const Probe& a, const Stored& b) const {
      return a.hash == b.hash && a.key == b.key;
    }
    bool operator()(const Stored& a, const Probe& b) const {
      return a.hash == b.hash && a.key == b.key;
    }
  };

  /// One lock stripe: a map plus its observability counters.
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Stored, double, KeyHash, KeyEqual> entries;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t rejected = 0;
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t hash) {
    // Top bits: the map consumes the low bits for bucket placement.
    return *shards_[(hash >> shard_shift_) & shard_mask_];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t shard_mask_ = 0;
  int shard_shift_ = 0;
  std::size_t max_entries_;
  /// Resident entries across shards; maintained under the owning shard's
  /// lock, read lock-free by the capacity check.
  std::atomic<std::size_t> total_entries_{0};
};

}  // namespace archex::rel
