// Conflict-driven nogood store. See nogood.hpp for the validity contract of
// each source and the eviction policy.
#include "ilp/nogood.hpp"

#include <algorithm>
#include <utility>

namespace archex::ilp {

namespace {

/// Multiplier decay() applies to every activity; the solver calls it once
/// per solve.
constexpr double kActivityDecay = 0.5;

[[nodiscard]] std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

std::uint64_t nogood_signature(const Nogood& nogood) {
  std::vector<int> ones = nogood.ones;
  std::vector<int> zeros = nogood.zeros;
  std::sort(ones.begin(), ones.end());
  std::sort(zeros.begin(), zeros.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const int v : ones) {
    h = mix64(h, (static_cast<std::uint64_t>(v) << 1) | 1ULL);
  }
  h = mix64(h, 0xfeedULL);  // separator: {ones:{a}, zeros:{b}} != swapped
  for (const int v : zeros) {
    h = mix64(h, static_cast<std::uint64_t>(v) << 1);
  }
  return h;
}

bool nogood_matches(const Nogood& nogood, const std::vector<double>& lo,
                    const std::vector<double>& up, double tol) {
  for (const int v : nogood.ones) {
    if (lo[static_cast<std::size_t>(v)] < 1.0 - tol) return false;
  }
  for (const int v : nogood.zeros) {
    if (up[static_cast<std::size_t>(v)] > tol) return false;
  }
  return true;
}

NogoodStore::NogoodStore(int max_nogoods)
    : max_nogoods_(std::max(1, max_nogoods)) {}

int NogoodStore::insert(Nogood nogood) {
  const std::uint64_t sig = nogood_signature(nogood);
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = index_.find(sig); it != index_.end()) {
    Entry& existing = entries_[static_cast<std::size_t>(it->second)];
    existing.activity += 1.0;
    // A permanent re-derivation upgrades a transient duplicate: the same
    // literal set proved dead without leaning on the incumbent must not be
    // purged at the next solve boundary.
    if (existing.nogood.source == NogoodSource::kDominance &&
        nogood.source != NogoodSource::kDominance) {
      existing.nogood.source = nogood.source;
    }
    ++stats_.deduped;
    return -1;
  }
  const int index = static_cast<int>(entries_.size());
  entries_.push_back(Entry{std::move(nogood), sig, 1.0, false});
  index_.emplace(sig, index);
  ++live_;
  ++stats_.inserted;
  if (live_ > max_nogoods_) evict_locked();
  return index;
}

void NogoodStore::bump(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || index >= static_cast<int>(entries_.size())) return;
  Entry& entry = entries_[static_cast<std::size_t>(index)];
  if (!entry.dead) entry.activity += 1.0;
}

void NogoodStore::decay() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& entry : entries_) entry.activity *= kActivityDecay;
}

void NogoodStore::purge_transient() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (entry.dead || entry.nogood.source != NogoodSource::kDominance) {
      continue;
    }
    kill_entry(i);
    ++stats_.purged;
  }
}

void NogoodStore::purge_non_oracle() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (entry.dead || entry.nogood.source == NogoodSource::kOracle) continue;
    kill_entry(i);
    ++stats_.purged;
  }
}

void NogoodStore::snapshot(std::vector<std::pair<int, Nogood>>& out) const {
  out.clear();
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(static_cast<std::size_t>(live_));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].dead) continue;
    out.emplace_back(static_cast<int>(i), entries_[i].nogood);
  }
}

void NogoodStore::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  const auto dead = [](const Entry& entry) { return entry.dead; };
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(), dead),
                 entries_.end());
  index_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_.emplace(entries_[i].signature, static_cast<int>(i));
  }
}

int NogoodStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

std::size_t NogoodStore::slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

NogoodStore::Stats NogoodStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void NogoodStore::kill_entry(std::size_t index) {
  Entry& entry = entries_[index];
  entry.dead = true;
  entry.nogood.ones.clear();
  entry.nogood.ones.shrink_to_fit();
  entry.nogood.zeros.clear();
  entry.nogood.zeros.shrink_to_fit();
  index_.erase(entry.signature);
  --live_;
}

void NogoodStore::evict_locked() {
  // Activity sweep: keep the top ~3/4 of the cap, oracle entries exempt.
  const int target = std::max(1, max_nogoods_ * 3 / 4);
  std::vector<std::pair<double, std::size_t>> victims;
  victims.reserve(static_cast<std::size_t>(live_));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (entry.dead || entry.nogood.source == NogoodSource::kOracle) continue;
    victims.emplace_back(entry.activity, i);
  }
  const int excess = live_ - target;
  if (excess <= 0 || victims.empty()) return;
  const std::size_t cut =
      std::min(victims.size(), static_cast<std::size_t>(excess));
  std::nth_element(victims.begin(),
                   victims.begin() + static_cast<std::ptrdiff_t>(cut - 1),
                   victims.end());
  for (std::size_t k = 0; k < cut; ++k) {
    kill_entry(victims[k].second);
    ++stats_.evicted;
  }
}

std::shared_ptr<NogoodStore> NogoodStoreRegistry::acquire(std::uint64_t key) {
  std::shared_ptr<NogoodStore> store;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = stores_[key];
    if (!slot) slot = std::make_shared<NogoodStore>();
    // Only the registry holds the store, so no solve keeps an entry index
    // into it, and none can take the store before the lock is released.
    if (slot.use_count() == 1) slot->compact();
    store = slot;
  }
  // Outside the registry lock: the purge takes the store's own mutex and
  // may do per-entry work proportional to the store size.
  store->purge_non_oracle();
  return store;
}

std::size_t NogoodStoreRegistry::families() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stores_.size();
}

}  // namespace archex::ilp
