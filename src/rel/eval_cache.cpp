#include "rel/eval_cache.hpp"

#include <bit>
#include <cstring>
#include <memory>

namespace archex::rel {

namespace {

constexpr std::uint64_t kSeed = 0x243f6a8885a308d3ULL;
constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;

inline void mix(std::uint64_t& h, std::uint64_t word) {
  h = (h ^ word) * kMul;
  h ^= h >> 29;
}

/// MurmurHash3's 64-bit finalizer: every input bit reaches every output bit.
inline std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::uint64_t EvalKey::hash() const {
  std::uint64_t h = kSeed;
  mix(h, static_cast<std::uint64_t>(sink));
  mix(h, probs.size());
  for (double p : probs) mix(h, std::bit_cast<std::uint64_t>(p));
  mix(h, edges.size());
  for (const auto& [u, v] : edges) {
    mix(h, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
               static_cast<std::uint32_t>(v));
  }
  mix(h, sources.size());
  for (int s : sources) mix(h, static_cast<std::uint64_t>(s));
  return avalanche(h);
}

EvalCache::EvalCache(std::size_t max_entries, int num_shards)
    : max_entries_(max_entries) {
  int count = 1;
  while (count < num_shards && count < 256) count <<= 1;
  shards_.reserve(static_cast<std::size_t>(count));
  for (int s = 0; s < count; ++s) shards_.push_back(std::make_unique<Shard>());
  shard_mask_ = static_cast<std::uint64_t>(count - 1);
  const int bits = std::countr_zero(static_cast<unsigned>(count));
  shard_shift_ = bits == 0 ? 0 : 64 - bits;  // a 64-bit shift would be UB
}

std::optional<double> EvalCache::lookup(const EvalKey& key) {
  const Probe probe{key, key.hash()};
  Shard& shard = shard_for(probe.hash);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(probe);
  if (it == shard.entries.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  return it->second;
}

void EvalCache::store(const EvalKey& key, double value) {
  const Probe probe{key, key.hash()};
  Shard& shard = shard_for(probe.hash);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.entries.contains(probe)) return;
  if (total_entries_.load(std::memory_order_relaxed) >= max_entries_) {
    ++shard.rejected;
    return;
  }
  shard.entries.emplace(Stored{key, probe.hash}, value);
  total_entries_.fetch_add(1, std::memory_order_relaxed);
}

void EvalCache::clear() {
  for (auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total_entries_.fetch_sub(shard->entries.size(),
                             std::memory_order_relaxed);
    shard->entries.clear();
  }
}

EvalCache::Stats EvalCache::stats() const {
  Stats out;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.rejected += shard->rejected;
    out.size += shard->entries.size();
  }
  return out;
}

}  // namespace archex::rel
