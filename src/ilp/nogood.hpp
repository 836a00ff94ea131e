// archex/ilp/nogood.hpp
//
// Conflict-driven nogood store for the branch & bound core (DESIGN.md §4g).
//
// A nogood is a partial 0/1 assignment over the *model's* variables that
// provably cannot be extended to an improving feasible solution: "x_j = 1
// for every j in `ones` and x_j = 0 for every j in `zeros` together are
// dead". The search prunes any node whose bound box already implies all of
// a nogood's literals. Nogoods arrive from three sources:
//
//  * kInfeasible — a node LP proved infeasible; the Farkas certificate
//    (SimplexEngine::farkas_ray) was reduced against the node's branching
//    decisions to a minimal literal set. The model's constraint set only
//    grows (learncons and counterexample rows), so these stay valid
//    forever: across restarts, across ILP-MR synthesis iterations, across
//    workers.
//  * kDominance — a node LP was feasible but its bound could not beat the
//    incumbent. Valid only while the pruning threshold keeps tightening,
//    i.e. within one solve: purged at the next solve's start.
//  * kOracle — the reliability oracle rejected a full architecture; the
//    selected-edge assignment is dead in every later synthesis iteration
//    (reliability depends only on the selection, and learncons only adds
//    rows). Never evicted: the ILP-MR progress argument needs each rejected
//    configuration to stay excluded.
//
// The store is shared mutable state across work-stealing workers; every
// public method is thread-safe. Entries are evicted by marking them dead
// (indices stay stable, so concurrent activity bumps against an evicted
// index are harmless), lowest activity first, oracle entries exempt.
// Deduplication is by order-independent signature; an evicted signature is
// released so the search may re-learn the nogood if it proves useful again.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace archex::ilp {

enum class NogoodSource : unsigned char { kInfeasible, kDominance, kOracle };

/// One nogood: the conjunction (all of `ones` at 1, all of `zeros` at 0)
/// admits no improving feasible completion. Variable indices refer to the
/// *model* columns (pre-presolve), so an entry is meaningful across solves
/// that presolve differently. An empty literal set is the root nogood —
/// nothing is feasible — and matches every node.
struct Nogood {
  std::vector<int> ones;
  std::vector<int> zeros;
  NogoodSource source = NogoodSource::kInfeasible;

  [[nodiscard]] std::size_t num_literals() const {
    return ones.size() + zeros.size();
  }
};

/// Order-independent signature for dedup across workers and solves.
/// Normalizes (sorts) literal order; `source` does not participate, so the
/// same assignment learned from two sources dedupes to one entry.
[[nodiscard]] std::uint64_t nogood_signature(const Nogood& nogood);

/// True when the box [lo, up] over the model columns implies every literal
/// of the nogood: lo[j] >= 1 - tol for each `ones` literal and
/// up[j] <= tol for each `zeros` literal. Such a box holds no improving
/// feasible point and the node may be pruned.
[[nodiscard]] bool nogood_matches(const Nogood& nogood,
                                  const std::vector<double>& lo,
                                  const std::vector<double>& up,
                                  double tol = 1e-9);

/// Widest nogood the branch & bound installs: conflicts that stay wider
/// after minimization are discarded (long nogoods almost never fire again
/// and slow every node check).
inline constexpr int kMaxNogoodLiterals = 16;

/// Default live-entry cap of a NogoodStore.
inline constexpr int kMaxNogoods = 20000;

/// Thread-safe, activity-scored nogood store shared by the B&B workers and,
/// through BranchAndBoundSolver::set_nogood_store, by consecutive ILP-MR /
/// ILP-AR solves (warm restarts: conflicts learned in iteration k prune
/// iteration k+1's tree).
class NogoodStore {
 public:
  /// `max_nogoods` caps the live entries; exceeding it evicts the
  /// lowest-activity non-oracle entries down to ~3/4 of the cap.
  explicit NogoodStore(int max_nogoods = kMaxNogoods);

  /// Insert with signature dedup. Returns the entry's stable index when the
  /// nogood is new, or -1 when an identical live entry exists (the existing
  /// entry's activity is bumped instead). May trigger eviction.
  int insert(Nogood nogood);

  /// Record a pruning hit against entry `index` (from any worker; stale
  /// indices of evicted entries are accepted and ignored).
  void bump(int index);

  /// Halve every activity (solve boundary), so recently useful entries
  /// outrank stale ones.
  void decay();

  /// Drop every kDominance entry: incumbent-relative nogoods do not survive
  /// into a solve with a fresh (or reset) incumbent. Call at solve start.
  void purge_transient();

  /// Drop everything except kOracle entries. Oracle nogoods record "the
  /// reliability analysis rejected this exact selection against this
  /// requirement" — a pure function of template and target, valid for any
  /// future request over the same pair. kInfeasible entries are NOT: they
  /// were minimized against iteration-k models whose learncons rows a fresh
  /// request's base model lacks. Call before reusing a persisted store for
  /// a new request (NogoodStoreRegistry does this).
  void purge_non_oracle();

  /// Copy the live entries with their stable indices (solve-start compile).
  void snapshot(std::vector<std::pair<int, Nogood>>& out) const;

  /// Reclaim the slots of dead entries: live entries keep their relative
  /// order (and activities) but get new indices. Only call while no solve
  /// holds indices into the store (NogoodStoreRegistry::acquire does it
  /// when no request holds the store).
  void compact();

  /// Live-entry count.
  [[nodiscard]] int size() const;
  /// Entry slots held, dead ones included (what compact() reclaims).
  [[nodiscard]] std::size_t slots() const;

  struct Stats {
    long inserted = 0;   // entries accepted (post-dedup)
    long deduped = 0;    // inserts dropped against a live duplicate
    long evicted = 0;    // entries marked dead by the activity sweep
    long purged = 0;     // kDominance entries dropped by purge_transient
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    Nogood nogood;
    std::uint64_t signature = 0;
    double activity = 0.0;
    bool dead = false;
  };

  // Callers hold mu_.
  void kill_entry(std::size_t index);
  void evict_locked();

  int max_nogoods_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  /// signature -> entry index, live entries only.
  std::unordered_map<std::uint64_t, int> index_;
  int live_ = 0;
  Stats stats_;
};

/// Process-lifetime map from an opaque problem-family key to its persistent
/// NogoodStore, so a long-lived service reuses oracle-learned conflicts
/// across requests over the same synthesis problem. The caller owns the key
/// semantics (the archex_server keys by template signature mixed with the
/// solve mode and reliability target, which together pin the variable
/// numbering and the oracle predicate). acquire() purges every non-oracle
/// entry before handing the store out — see NogoodStore::purge_non_oracle()
/// for why only oracle entries survive a model reset — and compacts a
/// store no request holds, so a family's store does not keep one dead slot
/// per entry every earlier request learned. Thread-safe.
class NogoodStoreRegistry {
 public:
  /// Fetch (creating on first use) the store for `key`, purged down to its
  /// oracle entries and ready for a fresh request's base model.
  [[nodiscard]] std::shared_ptr<NogoodStore> acquire(std::uint64_t key);

  /// Number of distinct problem families seen.
  [[nodiscard]] std::size_t families() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<NogoodStore>> stores_;
};

}  // namespace archex::ilp
