// LP-relaxation branch & bound for 0/1 mixed-integer programs.
//
// Serial mode (BranchAndBoundOptions::threads <= 1, the default) is a
// depth-first search with best-incumbent pruning: at each node the LP
// relaxation (bounded-variable simplex, archex::lp) is solved with the
// branching decisions imposed as variable-bound changes; fractional integral
// variables trigger a two-way branch ordered toward the LP value's rounding
// direction, which tends to find feasible architectures early on the
// synthesis models produced by ILP-MR / ILP-AR.
//
// Parallel mode (threads >= 2) is a best-first/DFS hybrid with work
// stealing (DESIGN.md §4e): a lock-guarded global NodePool ordered by
// relaxation bound feeds workers that dive depth-first with their *own*
// SimplexEngine (private LU basis and warm-start state). While diving, a
// worker donates the non-preferred branch child to the pool whenever the
// pool runs low, so idle workers steal near-root, high-potential subtrees.
// The incumbent is shared through an atomic objective bound
// (compare-exchange acceptance, relaxed-order reads while pruning) plus a
// mutex-published assignment; a node stolen from the pool is re-checked
// against the freshest bound *under the pool lock* before it is expanded.
// Any worker tripping a limit (time, nodes, numerics) records the abort
// status with a first-writer-wins compare-exchange, so a kTimeLimit from
// one worker is never masked by another worker draining its subtree to
// completion afterwards.
//
// options.deterministic turns the pool into a serialized LIFO: nodes are
// expanded one at a time through a single shared engine in exactly the
// serial DFS preorder, which reproduces the serial run bit-for-bit (node
// ordering, incumbent sequence, statistics, solution) for debugging
// parallel-search discrepancies.
//
// Both modes rank branching by shared pseudocost statistics
// (ilp/branching.hpp) with a most-fractional fallback, and every incumbent
// improvement re-derives reduced-cost fixings from the root duals, published
// as a lock-free prune filter all workers consult. In deterministic mode
// this shared state evolves in the serial preorder, so bit-for-bit
// reproduction is preserved.
//
// The conflict-driven learning layer (DESIGN.md §4g) turns pruned subtrees
// into reusable knowledge: an infeasible node LP yields a Farkas certificate
// (lp::SimplexEngine::farkas_ray) and a bound-dominated node a Lagrangian
// bound from its true reduced costs; either is reduced against the node's
// branching path — free drops while the certificate's margin covers them,
// then a few bounded LP probes — to a minimal 0/1 nogood over the *model's*
// variables. Nogoods live in a shared ilp/nogood.hpp store (and optionally
// persist across solves, see BranchAndBoundSolver::set_nogood_store);
// workers keep a reduced-column compilation of the store, synced at dive
// boundaries, and prune any node whose box implies all of a nogood's
// literals before solving its LP.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "ilp/branching.hpp"
#include "ilp/nogood.hpp"
#include "ilp/solver.hpp"
#include "lp/engine.hpp"
#include "lp/presolve.hpp"
#include "lp/simplex.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace archex::ilp {

std::string to_string(IlpStatus status) {
  switch (status) {
    case IlpStatus::kOptimal: return "optimal";
    case IlpStatus::kInfeasible: return "infeasible";
    case IlpStatus::kNodeLimit: return "node-limit";
    case IlpStatus::kTimeLimit: return "time-limit";
    case IlpStatus::kNumericFailure: return "numeric-failure";
  }
  return "unknown";
}

namespace {

constexpr double kInfObj = std::numeric_limits<double>::infinity();

// One acceptance rule for every incumbent candidate — the integral-leaf
// path and the root rounding heuristic used to apply different feasibility
// and improvement tolerances, so which of two equal-cost incumbents
// survived depended on where it was found.
constexpr double kFeasTol = 1e-5;
constexpr double kImproveTol = 1e-9;

/// LP re-solves spent per infeasibility conflict probing whether a
/// certificate-supported literal is nonetheless redundant.
constexpr int kMaxNogoodProbes = 4;

/// Lower the model to an LP and presolve it (or wrap it in an identity
/// reduction when presolve is off). Branching and incumbent checks all
/// happen in the model's variable space via pre.postsolve()/var_map.
lp::PresolveResult make_presolve(const Model& model,
                                 const BranchAndBoundOptions& opt) {
  lp::Problem full = model.to_lp();
  if (!opt.presolve) {
    lp::PresolveResult identity;
    identity.var_map.resize(static_cast<std::size_t>(model.num_variables()));
    for (int j = 0; j < model.num_variables(); ++j) {
      identity.var_map[static_cast<std::size_t>(j)] = j;
    }
    identity.fixed_value.assign(
        static_cast<std::size_t>(model.num_variables()), 0.0);
    identity.reduced = std::move(full);
    return identity;
  }
  std::vector<bool> integer_cols(
      static_cast<std::size_t>(full.num_variables()), false);
  for (int j = 0; j < model.num_variables(); ++j) {
    if (model.is_integral(Var{j})) {
      integer_cols[static_cast<std::size_t>(j)] = true;
    }
  }
  return lp::presolve(full, integer_cols);
}

bool detect_integral_objective(const Model& model) {
  for (const lp::Term& t : model.objective().terms()) {
    if (!model.is_integral(Var{t.var})) return false;
    if (std::abs(t.coef - std::round(t.coef)) > 1e-12) return false;
  }
  return true;
}

/// Strict lexicographic order on assignments: the canonical tie-break that
/// keeps which of two equal-cost incumbents survives independent of the
/// (possibly parallel, nondeterministic) order in which they were found.
bool lex_less(const std::vector<double>& a, const std::vector<double>& b) {
  for (std::size_t j = 0; j < a.size() && j < b.size(); ++j) {
    if (a[j] != b[j]) return a[j] < b[j];
  }
  return false;
}

/// One branching decision: column `col` of the reduced problem narrowed to
/// [lo, up]. A node is identified by the list of changes from the root.
struct BoundChange {
  int col;
  double lo;
  double up;
};

/// Search state shared by every worker (and used single-threaded by the
/// serial path — the atomics are uncontended there).
struct SearchShared {
  const Model& model;
  const BranchAndBoundOptions& opt;
  lp::PresolveResult pre;
  std::vector<int> integral;
  bool objective_integral = false;
  /// Column boxes of the reduced problem before any branching — the state a
  /// worker restores to when it abandons one subtree for a stolen node.
  std::vector<std::pair<double, double>> root_bounds;
  Stopwatch watch;
  std::chrono::steady_clock::time_point deadline{};

  std::atomic<long> nodes{0};
  /// First limit/failure wins: -1 while running, else the IlpStatus that
  /// aborted the search. A worker hitting kTimeLimit mid-dive publishes it
  /// here with compare-exchange, so another worker later finishing its own
  /// subtree cleanly cannot overwrite the status back to "optimal".
  std::atomic<int> abort_status{-1};

  std::atomic<bool> have_incumbent{false};
  /// Published incumbent objective for pruning; reads on the hot path are
  /// memory_order_relaxed (a stale value only delays pruning, never breaks
  /// correctness).
  std::atomic<double> best_obj{kInfObj};
  std::mutex incumbent_mutex;
  std::vector<double> incumbent;  // guarded by incumbent_mutex
  double incumbent_obj = 0.0;     // guarded by incumbent_mutex

  /// Reduced columns that are integral with root box exactly [0, 1] (the
  /// candidates for reduced-cost fixing).
  std::vector<bool> reduced_binary;

  std::unique_ptr<PseudocostTable> pseudo;  // null when pseudocost is off
  std::mutex pseudo_mutex;
  std::atomic<long> pseudocost_branches{0};

  // Conflict-driven nogood learning (DESIGN.md §4g). The store speaks the
  // model's variable space (so entries survive per-solve presolve
  // differences); `compiled` is this solve's translation into reduced
  // columns, append-only under nogood_mutex. Workers keep private copies
  // (EngineSlot::nogoods) synced at dive boundaries so the per-node match
  // check is lock-free.
  NogoodStore* nogoods = nullptr;  // null when learning is off
  /// A store nogood lowered to this solve's reduced columns. Literals whose
  /// model variable presolve fixed *at* the literal's value are dropped
  /// (they hold at every node); a nogood with a literal fixed at the
  /// opposite value can never match this solve and is skipped entirely.
  struct CompiledNogood {
    std::vector<int> ones;   // reduced columns the nogood pins at 1
    std::vector<int> zeros;  // reduced columns the nogood pins at 0
    int store_index = -1;    // stable NogoodStore index (activity bumps)
  };
  std::mutex nogood_mutex;
  std::vector<CompiledNogood> compiled;  // append-only during the search
  std::vector<int> model_of_reduced;     // reduced column -> model variable
  std::atomic<long> nogoods_learned{0};
  std::atomic<long> nogood_prunings{0};
  std::atomic<long> nogood_probes{0};

  // Reduced-cost fixing state. After the root LP solves, capture_root_info
  // stores the exact duality bound L = sum_j min(d_j lo_j, d_j up_j) over
  // the engine's columns (valid because the engine's row form a'x - s = 0
  // makes c'x = sum_j d_j x_j for *any* feasible x) plus the structural
  // reduced costs. rc_fix publishes the fixings: -1 unfixed, else the
  // forced 0/1 value. Hot-path reads are relaxed — a stale miss only
  // delays pruning.
  bool have_root_info = false;        // written before workers start
  double root_dual_bound = -kInfObj;  // L, offset-corrected
  std::vector<double> root_red_cost;  // per reduced structural column
  std::unique_ptr<std::atomic<signed char>[]> rc_fix;
  std::mutex rc_mutex;
  std::atomic<long> rc_fixed{0};

  SearchShared(const Model& m, const BranchAndBoundOptions& o,
               NogoodStore* store)
      : model(m), opt(o), pre(make_presolve(m, o)) {
    for (int j = 0; j < m.num_variables(); ++j) {
      if (m.is_integral(Var{j})) integral.push_back(j);
    }
    objective_integral = detect_integral_objective(m);
    root_bounds.reserve(static_cast<std::size_t>(pre.reduced.num_variables()));
    for (int j = 0; j < pre.reduced.num_variables(); ++j) {
      root_bounds.emplace_back(pre.reduced.col_lo(j), pre.reduced.col_up(j));
    }
    const std::size_t n = static_cast<std::size_t>(pre.reduced.num_variables());
    reduced_binary.assign(n, false);
    model_of_reduced.assign(n, -1);
    for (int j = 0; j < m.num_variables(); ++j) {
      const int rj = pre.var_map[static_cast<std::size_t>(j)];
      if (rj >= 0) model_of_reduced[static_cast<std::size_t>(rj)] = j;
      if (!m.is_integral(Var{j})) continue;
      if (rj < 0) continue;
      if (pre.reduced.col_lo(rj) == 0.0 && pre.reduced.col_up(rj) == 1.0) {
        reduced_binary[static_cast<std::size_t>(rj)] = true;
      }
    }
    if (opt.pseudocost) {
      pseudo = std::make_unique<PseudocostTable>(m.num_variables());
    }
    if (store != nullptr && !integral.empty() && !pre.infeasible) {
      nogoods = store;
      // Incumbent-relative (dominance) nogoods from a previous solve were
      // valid only against that solve's tightening cutoff trajectory.
      nogoods->purge_transient();
      compile_store();
    }
  }

  /// Lower every live store entry into this solve's reduced columns (see
  /// CompiledNogood for the presolve-fixed literal rules).
  void compile_store() {
    std::vector<std::pair<int, Nogood>> live;
    nogoods->snapshot(live);
    for (const auto& [index, ng] : live) {
      CompiledNogood cng;
      cng.store_index = index;
      bool applicable = true;
      for (const int v : ng.ones) {
        const int rj = pre.var_map[static_cast<std::size_t>(v)];
        if (rj >= 0) {
          cng.ones.push_back(rj);
        } else if (pre.fixed_value[static_cast<std::size_t>(v)] < 0.5) {
          applicable = false;  // literal contradicted at every node
          break;
        }
      }
      if (applicable) {
        for (const int v : ng.zeros) {
          const int rj = pre.var_map[static_cast<std::size_t>(v)];
          if (rj >= 0) {
            cng.zeros.push_back(rj);
          } else if (pre.fixed_value[static_cast<std::size_t>(v)] > 0.5) {
            applicable = false;
            break;
          }
        }
      }
      if (applicable) compiled.push_back(std::move(cng));
    }
  }

  [[nodiscard]] bool aborted() const {
    return abort_status.load(std::memory_order_relaxed) >= 0;
  }

  void abort_with(IlpStatus status) {
    int expected = -1;
    abort_status.compare_exchange_strong(expected, static_cast<int>(status),
                                         std::memory_order_relaxed);
  }

  /// Prune nodes whose LP bound cannot beat the incumbent. With an
  /// all-integer objective the next-better value is at least 1 lower.
  [[nodiscard]] double prune_threshold() const {
    if (!have_incumbent.load(std::memory_order_relaxed)) return kInfObj;
    const double best = best_obj.load(std::memory_order_relaxed);
    if (objective_integral) return best - 1.0 + 1e-6;
    return best - 1e-9;
  }

  /// True when a published reduced-cost fixing contradicts the branching
  /// decision `c`: a subtree forcing a fixed 0/1 column to the opposite
  /// value can only contain solutions the bound rule would prune anyway.
  [[nodiscard]] bool fixing_conflict(const BoundChange& c) const {
    if (rc_fix == nullptr) return false;
    const signed char v =
        rc_fix[static_cast<std::size_t>(c.col)].load(std::memory_order_relaxed);
    if (v < 0) return false;
    const double fixed = static_cast<double>(v);
    return fixed < c.lo - 0.5 || fixed > c.up + 0.5;
  }

  [[nodiscard]] bool fixing_conflict(const std::vector<BoundChange>& path)
      const {
    if (rc_fix == nullptr) return false;
    for (const BoundChange& c : path) {
      if (fixing_conflict(c)) return true;
    }
    return false;
  }

  /// Re-derive reduced-cost fixings against the freshest prune threshold.
  /// Root LP duality: for any feasible x, c'x = sum_j d_j x_j (true reduced
  /// costs at the root basis; the engine's rows are a'x - s = 0, so the
  /// dual term y'b vanishes), hence flipping a 0/1 column away from the
  /// bound its reduced cost points at costs at least |d_j| on top of the
  /// box minimum L. Once L + |d_j| reaches the prune threshold no solution
  /// the search still cares about can flip column j — identical in strength
  /// to the node bound rule, so pruning on it preserves the reported
  /// optimum (including the tie-break semantics the bound rule implies).
  void try_rc_fixings() {
    if (!have_root_info || rc_fix == nullptr) return;
    const double cutoff = prune_threshold();
    if (cutoff == kInfObj) return;
    for (std::size_t rj = 0; rj < root_red_cost.size(); ++rj) {
      if (!reduced_binary[rj]) continue;
      if (rc_fix[rj].load(std::memory_order_relaxed) >= 0) continue;
      const double d = root_red_cost[rj];
      if (std::abs(d) <= 1e-9) continue;
      if (root_dual_bound + std::abs(d) < cutoff + 1e-7) continue;
      const std::lock_guard<std::mutex> lock(rc_mutex);
      if (rc_fix[rj].load(std::memory_order_relaxed) >= 0) continue;
      rc_fix[rj].store(d > 0.0 ? 0 : 1, std::memory_order_relaxed);
      rc_fixed.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Round the integral variables of a relaxation point and accept it as
  /// the incumbent iff it satisfies the model and either strictly improves
  /// or ties the objective with a lexicographically smaller assignment.
  bool try_accept_incumbent(std::vector<double> x) {
    for (int j : integral) {
      x[static_cast<std::size_t>(j)] =
          std::round(x[static_cast<std::size_t>(j)]);
    }
    const double obj =
        model.eval_objective(x) - model.objective_constant();
    double published = best_obj.load(std::memory_order_acquire);
    if (obj > published + kImproveTol) return false;  // strictly worse
    if (!model.is_feasible(x, kFeasTol)) return false;
    // Claim a strict improvement on the atomic bound before taking the
    // mutex, so concurrent workers prune against the new value immediately.
    while (obj < published - kImproveTol &&
           !best_obj.compare_exchange_weak(published, obj,
                                           std::memory_order_acq_rel)) {
    }
    {
      const std::lock_guard<std::mutex> lock(incumbent_mutex);
      const bool have = have_incumbent.load(std::memory_order_relaxed);
      const bool improves = !have || obj < incumbent_obj - kImproveTol;
      const bool ties_smaller = have && obj <= incumbent_obj + kImproveTol &&
                                lex_less(x, incumbent);
      if (!improves && !ties_smaller) return false;
      incumbent = std::move(x);
      incumbent_obj = obj;
      have_incumbent.store(true, std::memory_order_release);
      // Keep the published pruning bound at the minimum accepted objective
      // (a tie acceptance does not move it).
      double bound = best_obj.load(std::memory_order_relaxed);
      while (obj < bound && !best_obj.compare_exchange_weak(
                                bound, obj, std::memory_order_acq_rel)) {
      }
    }
    // Republish reduced-cost fixings outside the incumbent mutex: fixings
    // read only the atomic bound, and a fixing derived from a stale
    // (higher) cutoff satisfied a *harder* condition than the fresh one —
    // L + |d_j| >= cutoff is monotone in the incumbent, so a better
    // incumbent landing concurrently (possibly republishing first) can
    // never invalidate a fixing already derived, only add to it.
    try_rc_fixings();
    return true;
  }
};

/// A donated (stealable) subtree root.
struct PoolNode {
  /// Safe objective lower bound inherited from the parent relaxation
  /// (already offset-corrected and perturbation-slack-adjusted).
  double bound = -kInfObj;
  long seq = 0;   // push order: heap tie-break / LIFO key
  int owner = -1; // donating worker, -1 for the root node
  int depth = 0;
  std::vector<BoundChange> path;  // bound changes from the root, in order
  // Pseudocost bookkeeping: the branching that created this node (model
  // variable, direction, fractional distance moved) and the parent's LP
  // bound, so the stealing worker can record the observation.
  int pc_var = -1;
  bool pc_up = false;
  double pc_dist = 0.0;
  double parent_bound = -kInfObj;
};

/// The shared lock-guarded global node pool. Best-first (lowest inherited
/// bound pops first) in normal operation; a serialized LIFO in
/// deterministic mode, which — together with children being donated in
/// reverse preference order — reproduces the serial DFS preorder exactly.
class NodePool {
 public:
  NodePool(bool deterministic, int hunger)
      : lifo_(deterministic), hunger_(hunger) {}

  void push(PoolNode node) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      node.seq = next_seq_++;
      nodes_.push_back(std::move(node));
      if (!lifo_) std::push_heap(nodes_.begin(), nodes_.end(), WorseBound{});
      ++outstanding_;
      approx_size_.store(static_cast<int>(nodes_.size()),
                         std::memory_order_relaxed);
    }
    cv_.notify_one();
  }

  /// Pop the next node, blocking until one is available, the whole tree has
  /// been drained, or the search aborted (the latter two return nullopt).
  /// Best-first mode re-checks the node's inherited bound against the
  /// freshest incumbent *under the lock* and discards prunable nodes here
  /// (counted in `pruned`); deterministic mode expands every node so its
  /// statistics stay bit-identical to the serial search, and additionally
  /// admits only one expansion at a time.
  std::optional<PoolNode> pop(const SearchShared& shared, long& pruned) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [&] {
        return shared.aborted() || outstanding_ == 0 ||
               (!nodes_.empty() && (!lifo_ || active_ == 0));
      });
      if (shared.aborted() || outstanding_ == 0) return std::nullopt;
      if (nodes_.empty() || (lifo_ && active_ > 0)) continue;
      PoolNode node = take();
      if (!lifo_ && node.bound >= shared.prune_threshold()) {
        ++pruned;
        if (--outstanding_ == 0) cv_.notify_all();
        continue;
      }
      ++active_;
      return node;
    }
  }

  /// The dive rooted at the last popped node has fully finished.
  void finish() {
    bool wake;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      --outstanding_;
      wake = outstanding_ == 0 || (lifo_ && !nodes_.empty());
    }
    if (wake) cv_.notify_all();
  }

  /// Wake every blocked worker (used after an abort).
  void kick() {
    { const std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }

  /// Cheap relaxed signal for the donation policy: true while the pool has
  /// fewer ready nodes than the hunger watermark.
  [[nodiscard]] bool hungry() const {
    return approx_size_.load(std::memory_order_relaxed) < hunger_;
  }

 private:
  /// Max-heap comparator under which the "largest" element is the node
  /// with the smallest inherited bound (oldest first on ties).
  struct WorseBound {
    bool operator()(const PoolNode& a, const PoolNode& b) const {
      if (a.bound != b.bound) return a.bound > b.bound;
      return a.seq > b.seq;
    }
  };

  PoolNode take() {
    if (!lifo_) std::pop_heap(nodes_.begin(), nodes_.end(), WorseBound{});
    PoolNode node = std::move(nodes_.back());
    nodes_.pop_back();
    approx_size_.store(static_cast<int>(nodes_.size()),
                       std::memory_order_relaxed);
    return node;
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<PoolNode> nodes_;  // heap (best-first) or stack (LIFO)
  long outstanding_ = 0;         // queued nodes + dives in flight
  int active_ = 0;               // dives in flight (gates LIFO mode)
  long next_seq_ = 0;
  const bool lifo_;
  const int hunger_;
  std::atomic<int> approx_size_{0};
};

/// A simplex engine plus the branching path currently imposed on it. Owned
/// by one worker — except in deterministic mode, where all workers take
/// turns on a single slot (handoff is ordered by the pool mutex, and the
/// pool admits only one expansion at a time).
struct EngineSlot {
  lp::SimplexEngine engine;
  std::vector<BoundChange> applied;
  bool used = false;  // first solve goes from scratch, as in the serial path
  /// Private copy of SearchShared::compiled for lock-free per-node checks,
  /// plus the append-only cursor it is synced up to (dive boundaries, and
  /// immediately after this worker's own learns).
  std::vector<SearchShared::CompiledNogood> nogoods;
  std::size_t nogoods_synced = 0;

  EngineSlot(const lp::Problem& problem, const lp::SimplexOptions& options)
      : engine(problem, options) {}
};

class Worker {
 public:
  Worker(SearchShared& shared, NodePool* pool, EngineSlot& slot, int id)
      : sh_(shared), pool_(pool), slot_(slot), id_(id) {}

  /// Parallel worker loop: steal nodes from the pool until the tree is
  /// drained or the search aborts.
  void run_pool() {
    for (;;) {
      std::optional<PoolNode> node = pool_->pop(sh_, pruned_);
      if (!node) return;
      if (node->owner >= 0 && node->owner != id_) ++steals_;
      dive_from(*node);
      pool_->finish();
      if (sh_.aborted()) pool_->kick();
    }
  }

  /// Serial entry point: dive straight from the root, no pool.
  void run_root() {
    PoolNode root;
    dive_from(root);
  }

  [[nodiscard]] long nodes() const { return nodes_; }
  [[nodiscard]] long pruned() const { return pruned_; }
  [[nodiscard]] long steals() const { return steals_; }
  [[nodiscard]] long lp_pivots() const { return lp_pivots_; }

 private:
  /// The branching that produced the node being expanded, for pseudocost
  /// observation (var < 0 at the root / when pseudocost is off).
  struct BranchOrigin {
    int var = -1;
    bool up = false;
    double dist = 0.0;
    double parent_bound = -kInfObj;
  };

  /// Move the engine from the previous dive's box to `node`'s: restore
  /// every column the old path touched to its root bounds, then impose the
  /// new path in order.
  void dive_from(PoolNode& node) {
    for (const BoundChange& c : slot_.applied) {
      const auto& [lo, up] = sh_.root_bounds[static_cast<std::size_t>(c.col)];
      slot_.engine.set_variable_bounds(c.col, lo, up);
    }
    slot_.applied = std::move(node.path);
    for (const BoundChange& c : slot_.applied) {
      slot_.engine.set_variable_bounds(c.col, c.lo, c.up);
    }
    sync_nogoods();
    const BranchOrigin origin{node.pc_var, node.pc_up, node.pc_dist,
                              node.parent_bound};
    recurse(node.depth, origin);
  }

  /// Copy any compiled nogoods this slot is missing. In deterministic mode
  /// the single shared slot is always current, so this is a no-op.
  void sync_nogoods() {
    if (sh_.nogoods == nullptr) return;
    const std::lock_guard<std::mutex> lock(sh_.nogood_mutex);
    sync_nogoods_locked();
  }

  void sync_nogoods_locked() {
    while (slot_.nogoods_synced < sh_.compiled.size()) {
      slot_.nogoods.push_back(sh_.compiled[slot_.nogoods_synced++]);
    }
  }

  /// True when the engine's current box implies every literal of a known
  /// nogood — the subtree holds no improving feasible point. Bumps the
  /// firing entry's activity so eviction keeps what actually prunes.
  [[nodiscard]] bool nogood_pruned() {
    if (slot_.nogoods.empty()) return false;
    for (const SearchShared::CompiledNogood& ng : slot_.nogoods) {
      bool match = true;
      for (const int col : ng.ones) {
        if (slot_.engine.col_lo(col) < 0.5) { match = false; break; }
      }
      if (match) {
        for (const int col : ng.zeros) {
          if (slot_.engine.col_up(col) > 0.5) { match = false; break; }
        }
      }
      if (match) {
        sh_.nogoods->bump(ng.store_index);
        sh_.nogood_prunings.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  // ---- conflict-driven learning (DESIGN.md §4g) ----------------------------

  /// One candidate literal: reduced binary column `col` pinned at 1 (`one`)
  /// or 0 by the branching path, and the certificate damage `weight` that
  /// relaxing it back to its root box would cost.
  struct ConflictLit {
    int col = 0;
    bool one = false;
    double weight = 0.0;
  };

  /// Columns the branching path touched, deduped: nested narrowings leave
  /// the innermost box in the engine, which is all the learners read.
  [[nodiscard]] std::vector<int> path_columns() const {
    std::vector<int> cols;
    cols.reserve(slot_.applied.size());
    for (const BoundChange& c : slot_.applied) cols.push_back(c.col);
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    return cols;
  }

  /// Weight-ascending order with a column tie-break, so the greedy drop
  /// sequence is identical in every search mode.
  static void sort_lits(std::vector<ConflictLit>& lits) {
    std::sort(lits.begin(), lits.end(),
              [](const ConflictLit& a, const ConflictLit& b) {
                if (a.weight != b.weight) return a.weight < b.weight;
                return a.col < b.col;
              });
  }

  /// Translate reduced-column literals to the model's variable space and
  /// install them into the shared store (plus this solve's compiled list,
  /// which also refreshes this worker's private copy immediately).
  void install_nogood(const std::vector<ConflictLit>& lits,
                      NogoodSource source) {
    Nogood ng;
    ng.source = source;
    SearchShared::CompiledNogood cng;
    for (const ConflictLit& lit : lits) {
      const int mv = sh_.model_of_reduced[static_cast<std::size_t>(lit.col)];
      if (mv < 0) return;  // branch column without a model variable
      (lit.one ? ng.ones : ng.zeros).push_back(mv);
      (lit.one ? cng.ones : cng.zeros).push_back(lit.col);
    }
    const int index = sh_.nogoods->insert(std::move(ng));
    if (index < 0) return;  // live duplicate: the store bumped its activity
    cng.store_index = index;
    {
      const std::lock_guard<std::mutex> lock(sh_.nogood_mutex);
      sh_.compiled.push_back(std::move(cng));
      sync_nogoods_locked();  // the learner sees its own nogood at once
    }
    sh_.nogoods_learned.fetch_add(1, std::memory_order_relaxed);
  }

  /// Infeasible node LP -> permanent 0/1 nogood. The Farkas weights z
  /// satisfy z'x = 0 for every point of the row system while
  /// sup{z'x : node boxes} = -margin < 0. Relaxing a path column back to
  /// its root box raises that supremum by z_j * (root_up - up) when
  /// z_j > 0 (the proof leans on the upper bound) or |z_j| * (lo - root_lo)
  /// when z_j < 0; a branch the certificate ignores is dropped outright,
  /// and further literals are dropped greedily while the margin covers
  /// their damage. Conflicts still wider than kMaxNogoodLiterals spend up
  /// to kMaxNogoodProbes LP re-solves testing certificate-supported
  /// literals for redundancy. The result persists across solves: the rows
  /// the proof uses (model rows, presolve tightenings, learncons rows) are
  /// all valid for every integral feasible point of the model, and later
  /// solves only add to them.
  void learn_infeasible() {
    if (sh_.nogoods == nullptr || slot_.applied.empty()) return;
    lp::SimplexEngine& engine = slot_.engine;
    std::vector<double> z;
    double margin = 0.0;
    if (!engine.farkas_ray(z, margin)) return;

    std::vector<ConflictLit> cand;
    for (const int col : path_columns()) {
      const auto& [root_lo, root_up] =
          sh_.root_bounds[static_cast<std::size_t>(col)];
      const double lo = engine.col_lo(col);
      const double up = engine.col_up(col);
      const double zj = z[static_cast<std::size_t>(col)];
      double weight = 0.0;
      if (zj > 0.0 && up < root_up - 1e-12) {
        weight = zj * (root_up - up);
      } else if (zj < 0.0 && lo > root_lo + 1e-12) {
        weight = -zj * (lo - root_lo);
      }
      if (weight <= 0.0) continue;  // certificate ignores this branch
      // Only clean 0/1 fixings of binary columns become literals; a
      // participating general-integer branch has no 0/1 encoding -- bail.
      if (root_lo != 0.0 || root_up != 1.0 || lo != up) return;
      cand.push_back({col, lo > 0.5, weight});
    }
    sort_lits(cand);
    std::vector<ConflictLit> keep;
    double budget = margin - 1e-7;
    for (const ConflictLit& lit : cand) {
      if (lit.weight <= budget) {
        budget -= lit.weight;  // margin still certifies the relaxation
      } else {
        keep.push_back(lit);
      }
    }

    if (static_cast<int>(keep.size()) >
        kMaxNogoodLiterals + kMaxNogoodProbes) {
      return;  // cannot reach the cap even if every probe succeeds
    }
    if (static_cast<int>(keep.size()) > kMaxNogoodLiterals) {
      if (!probe_drops(keep)) return;
    }
    install_nogood(keep, NogoodSource::kInfeasible);
  }

  /// LP re-check minimization: relax everything already dropped, then test
  /// kept literals lightest-first — a re-solve that stays infeasible
  /// LP-certifies the smaller set directly. Returns false when the
  /// conflict stays over the literal cap (no install). The engine is
  /// restored to the node's exact box either way: the parent's backtracking
  /// undoes only its own branch column.
  bool probe_drops(std::vector<ConflictLit>& keep) {
    lp::SimplexEngine& engine = slot_.engine;
    std::vector<std::pair<int, std::pair<double, double>>> touched;
    const auto relax = [&](int col) {
      touched.emplace_back(
          col, std::make_pair(engine.col_lo(col), engine.col_up(col)));
      const auto& [rl, ru] = sh_.root_bounds[static_cast<std::size_t>(col)];
      engine.set_variable_bounds(col, rl, ru);
    };
    std::vector<bool> kept_col(sh_.root_bounds.size(), false);
    for (const ConflictLit& lit : keep) {
      kept_col[static_cast<std::size_t>(lit.col)] = true;
    }
    for (const int col : path_columns()) {
      if (!kept_col[static_cast<std::size_t>(col)]) relax(col);
    }
    int probes = 0;
    std::size_t next = 0;
    while (next < keep.size() && probes < kMaxNogoodProbes &&
           static_cast<int>(keep.size()) > kMaxNogoodLiterals) {
      const ConflictLit lit = keep[next];
      const std::pair<double, double> saved = {engine.col_lo(lit.col),
                                               engine.col_up(lit.col)};
      relax(lit.col);
      const lp::Solution probe = engine.reoptimize();
      lp_pivots_ += probe.iterations;
      ++probes;
      sh_.nogood_probes.fetch_add(1, std::memory_order_relaxed);
      if (probe.status == lp::SolveStatus::kInfeasible) {
        keep.erase(keep.begin() + static_cast<std::ptrdiff_t>(next));
        continue;  // literal redundant; leave the column relaxed
      }
      engine.set_variable_bounds(lit.col, saved.first, saved.second);
      if (probe.status == lp::SolveStatus::kTimeLimit) {
        sh_.abort_with(IlpStatus::kTimeLimit);
        break;
      }
      if (probe.status != lp::SolveStatus::kOptimal) break;  // numerics
      ++next;
    }
    for (const auto& [col, box] : touched) {
      engine.set_variable_bounds(col, box.first, box.second);
    }
    return static_cast<int>(keep.size()) <= kMaxNogoodLiterals &&
           !sh_.aborted();
  }

  /// Bound-dominated node -> transient 0/1 nogood. With true reduced costs
  /// d = c - y'A at the node's optimal basis (the engine's rows read
  /// a'x - s = 0, so y'b vanishes and c'x = sum_j d_j x_j for every
  /// row-feasible point), B = sum_j min(d_j lo_j, d_j up_j) bounds every
  /// feasible point of the node's box from below. When B clears the
  /// incumbent cutoff, the slack is a budget: a path literal whose
  /// relaxation to the root box lowers B by less than the remaining budget
  /// is dropped for free (no LP probes here — dominance conflicts are
  /// plentiful and each probe would cost a scratch solve). Valid only while
  /// the cutoff it beat keeps tightening, i.e. for the rest of *this*
  /// solve -> kDominance, purged at the next solve's start.
  void learn_dominance() {
    if (sh_.nogoods == nullptr || slot_.applied.empty()) return;
    lp::SimplexEngine& engine = slot_.engine;
    std::vector<double> d;
    if (!engine.reduced_costs(d)) return;
    double box_min = 0.0;
    for (std::size_t j = 0; j < d.size(); ++j) {
      const double dj = d[j];
      if (dj == 0.0) continue;
      const double bnd = dj > 0.0 ? engine.column_lower(static_cast<int>(j))
                                  : engine.column_upper(static_cast<int>(j));
      if (bnd == -lp::kInf || bnd == lp::kInf) return;
      box_min += dj * bnd;
    }
    double budget =
        box_min + sh_.pre.objective_offset - sh_.prune_threshold() - 1e-7;
    if (budget < 0.0) return;  // perturbation slack ate the margin
    std::vector<ConflictLit> cand;
    for (const int col : path_columns()) {
      const auto& [root_lo, root_up] =
          sh_.root_bounds[static_cast<std::size_t>(col)];
      const double lo = engine.col_lo(col);
      const double up = engine.col_up(col);
      const double dj = d[static_cast<std::size_t>(col)];
      const double weight = std::min(dj * lo, dj * up) -
                            std::min(dj * root_lo, dj * root_up);
      if (weight <= 1e-12) continue;  // relaxing costs the bound nothing
      if (root_lo != 0.0 || root_up != 1.0 || lo != up) return;
      cand.push_back({col, lo > 0.5, weight});
    }
    sort_lits(cand);
    std::vector<ConflictLit> keep;
    for (const ConflictLit& lit : cand) {
      if (lit.weight <= budget) {
        budget -= lit.weight;
      } else {
        keep.push_back(lit);
      }
    }
    if (static_cast<int>(keep.size()) > kMaxNogoodLiterals) return;
    install_nogood(keep, NogoodSource::kDominance);
  }

  /// Branch-variable selection at a model-space point (pseudocost table
  /// under its mutex when enabled, historical most-fractional otherwise).
  [[nodiscard]] BranchChoice pick(const std::vector<double>& full_x) {
    if (sh_.pseudo != nullptr) {
      const std::lock_guard<std::mutex> lock(sh_.pseudo_mutex);
      return select_branch_variable(sh_.model, sh_.integral, full_x,
                                    sh_.pseudo.get());
    }
    return select_branch_variable(sh_.model, sh_.integral, full_x, nullptr);
  }

  /// One node: solve the relaxation, prune or branch. Bound changes are
  /// applied/undone around the local recursion; the non-preferred child is
  /// donated to the pool instead whenever the pool runs hungry.
  void recurse(int depth, const BranchOrigin& origin) {
    if (sh_.aborted()) return;
    // Reduced-cost fixings published after this node was generated: the
    // serial path skips such children at generation time, the pool path at
    // expansion time. Either way the child is counted as pruned and never
    // solved, so serial and deterministic statistics agree.
    if (sh_.fixing_conflict(slot_.applied)) {
      ++pruned_;
      return;
    }
    // A stored nogood matching the node's box proves the subtree holds no
    // improving feasible point; like a fixing conflict, the node counts as
    // pruned and its LP is never solved.
    if (sh_.nogoods != nullptr && nogood_pruned()) {
      ++pruned_;
      return;
    }
    if (sh_.nodes.fetch_add(1, std::memory_order_relaxed) >=
        sh_.opt.max_nodes) {
      sh_.nodes.fetch_sub(1, std::memory_order_relaxed);
      sh_.abort_with(IlpStatus::kNodeLimit);
      return;
    }
    if (std::chrono::steady_clock::now() >= sh_.deadline) {
      sh_.abort_with(IlpStatus::kTimeLimit);
      return;
    }
    ++nodes_;

    // Warm start: the previous optimal basis stays dual feasible after any
    // variable-bound change, so this is a short dual-simplex run (with an
    // automatic scratch-solve fallback inside the engine). The first solve
    // on an engine has no basis and goes from scratch.
    lp::SimplexEngine& engine = slot_.engine;
    const lp::Solution rel =
        slot_.used ? engine.reoptimize() : engine.solve_from_scratch();
    slot_.used = true;
    lp_pivots_ += rel.iterations;

    if (rel.status == lp::SolveStatus::kInfeasible) {
      learn_infeasible();
      return;
    }
    if (rel.status == lp::SolveStatus::kTimeLimit) {
      sh_.abort_with(IlpStatus::kTimeLimit);
      return;
    }
    if (rel.status != lp::SolveStatus::kOptimal) {
      // Unbounded relaxations cannot occur on our bounded models; iteration
      // limits and numeric failures abort the search conservatively.
      sh_.abort_with(IlpStatus::kNumericFailure);
      return;
    }

    // The engine's anti-degeneracy perturbation can inflate the reported
    // bound by at most bound_slack(); subtract it so pruning stays safe.
    // rel.objective lives in reduced space: add the presolve offset to
    // compare against the incumbent.
    const double bound =
        rel.objective + sh_.pre.objective_offset - engine.bound_slack();

    // Pseudocost observation: bound degradation relative to the parent per
    // unit of fractional distance branched away, identical in every search
    // mode.
    if (sh_.pseudo != nullptr && origin.var >= 0 && origin.dist > 1e-12 &&
        origin.parent_bound > -kInfObj) {
      const double per_unit =
          std::max(0.0, bound - origin.parent_bound) / origin.dist;
      const std::lock_guard<std::mutex> lock(sh_.pseudo_mutex);
      sh_.pseudo->observe(origin.var, origin.up, per_unit);
    }

    if (bound >= sh_.prune_threshold()) {
      learn_dominance();
      ++pruned_;
      return;
    }

    // Branching and incumbent tests use the model's variable space.
    const std::vector<double> full_x = sh_.pre.postsolve(rel.x);
    const BranchChoice choice = pick(full_x);

    const int frac = choice.var;
    if (frac < 0) {
      // Integral solution: snap and record.
      sh_.try_accept_incumbent(full_x);
      return;
    }
    if (choice.used_pseudocost) {
      sh_.pseudocost_branches.fetch_add(1, std::memory_order_relaxed);
    }

    if (depth == 0 && sh_.opt.root_rounding_heuristic) {
      sh_.try_accept_incumbent(full_x);
    }

    // Presolve never fixes a column at a fractional value (it would have
    // declared infeasibility), so a fractional variable maps to a live
    // reduced column.
    const int rj = sh_.pre.var_map[static_cast<std::size_t>(frac)];
    ARCHEX_ASSERT(rj >= 0, "fractional variable was presolved away");
    const double value = full_x[static_cast<std::size_t>(frac)];
    const double saved_lo = engine.col_lo(rj);
    const double saved_up = engine.col_up(rj);
    const double floor_v = std::floor(value);
    const double ceil_v = floor_v + 1.0;

    // Explore the rounding direction first.
    const bool down_first = (value - floor_v) <= 0.5;

    if (pool_ != nullptr && sh_.opt.deterministic) {
      // Donate both children, non-preferred first: the LIFO pool pops the
      // preferred child next, reproducing the serial DFS preorder.
      for (int side = 1; side >= 0; --side) {
        const bool down = (side == 0) == down_first;
        if (down && floor_v < saved_lo) continue;
        if (!down && ceil_v > saved_up) continue;
        const BoundChange change = down ? BoundChange{rj, saved_lo, floor_v}
                                        : BoundChange{rj, ceil_v, saved_up};
        donate(bound, depth, change, frac, !down,
               down ? value - floor_v : ceil_v - value);
      }
      return;
    }

    for (int side = 0; side < 2; ++side) {
      const bool down = (side == 0) == down_first;
      if (down && floor_v < saved_lo) continue;
      if (!down && ceil_v > saved_up) continue;
      const BoundChange change = down ? BoundChange{rj, saved_lo, floor_v}
                                      : BoundChange{rj, ceil_v, saved_up};
      if (sh_.fixing_conflict(change)) {
        ++pruned_;
        continue;
      }
      if (side == 1 && pool_ != nullptr && pool_->hungry()) {
        // Donate the non-preferred child for stealing; keep diving locally
        // on the preferred side so warm starts stay intact.
        donate(bound, depth, change, frac, !down,
               down ? value - floor_v : ceil_v - value);
        continue;
      }
      engine.set_variable_bounds(change.col, change.lo, change.up);
      slot_.applied.push_back(change);
      const BranchOrigin child_origin{frac, !down,
                                      down ? value - floor_v : ceil_v - value,
                                      bound};
      recurse(depth + 1, child_origin);
      slot_.applied.pop_back();
      engine.set_variable_bounds(rj, saved_lo, saved_up);
      if (sh_.aborted()) return;
    }
  }

  void donate(double bound, int depth, const BoundChange& change, int pc_var,
              bool pc_up, double pc_dist) {
    PoolNode child;
    child.bound = bound;
    child.owner = id_;
    child.depth = depth + 1;
    child.path = slot_.applied;
    child.path.push_back(change);
    child.pc_var = pc_var;
    child.pc_up = pc_up;
    child.pc_dist = pc_dist;
    child.parent_bound = bound;
    pool_->push(std::move(child));
  }

  SearchShared& sh_;
  NodePool* pool_;  // null for the serial path (never donate)
  EngineSlot& slot_;
  const int id_;

  long nodes_ = 0;
  long pruned_ = 0;
  long steals_ = 0;
  long lp_pivots_ = 0;
};

/// Snapshot the root LP's reduced costs for reduced-cost fixing. The box
/// minimum L = sum_j min(d_j lo_j, d_j up_j) runs over *all* engine columns
/// (structural and logical) at their root bounds; a nonzero reduced cost on
/// a column with the relevant bound infinite makes L useless, so fixing is
/// disabled then (rc_fix stays null).
void capture_root_info(SearchShared& sh, lp::SimplexEngine& engine) {
  if (!sh.opt.rc_fixing || sh.integral.empty()) return;
  std::vector<double> d;
  if (!engine.reduced_costs(d)) return;
  double L = 0.0;
  for (std::size_t j = 0; j < d.size(); ++j) {
    const double dj = d[j];
    if (dj == 0.0) continue;
    const double bnd = dj > 0.0 ? engine.column_lower(static_cast<int>(j))
                                : engine.column_upper(static_cast<int>(j));
    if (bnd == -lp::kInf || bnd == lp::kInf) return;
    L += dj * bnd;
  }
  const int n = sh.pre.reduced.num_variables();
  sh.root_dual_bound = L + sh.pre.objective_offset;
  sh.root_red_cost.assign(d.begin(), d.begin() + n);
  sh.rc_fix =
      std::make_unique<std::atomic<signed char>[]>(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    sh.rc_fix[static_cast<std::size_t>(j)].store(-1, std::memory_order_relaxed);
  }
  sh.have_root_info = true;
}

IlpResult run_search(const Model& model, const BranchAndBoundOptions& opt,
                     NogoodStore* store) {
  SearchShared shared(model, opt, store);
  shared.watch.start();
  // The LP engines honour the same wall-clock budget as the tree search,
  // so a node relaxation that overruns the limit aborts within a few dozen
  // pivots instead of running to completion first.
  shared.deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opt.time_limit_seconds));
  // A caller-supplied absolute deadline tightens (never extends) the
  // relative budget: whichever expires first governs the whole search.
  if (opt.deadline && *opt.deadline < shared.deadline) {
    shared.deadline = *opt.deadline;
  }

  const int threads = std::max(opt.threads, 1);
  const bool parallel = threads >= 2;

  std::vector<std::unique_ptr<EngineSlot>> slots;
  std::vector<std::unique_ptr<Worker>> workers;

  // Presolve can prove infeasibility outright (conflicting bounds, an
  // integral column fixed at a fractional value, an unsatisfiable row).
  long root_lp_pivots = 0;
  if (!shared.pre.infeasible) {
    slots.push_back(std::make_unique<EngineSlot>(shared.pre.reduced, opt.lp));
    slots[0]->engine.set_deadline(shared.deadline);
    if (opt.rc_fixing && !shared.integral.empty()) {
      // Solve the root once on slot 0 and
      // snapshot its reduced costs; the first tree node then warm-starts
      // off the same basis at zero extra cost.
      const lp::Solution rel = slots[0]->engine.solve_from_scratch();
      root_lp_pivots += rel.iterations;
      slots[0]->used = true;
      if (rel.status == lp::SolveStatus::kOptimal) {
        capture_root_info(shared, slots[0]->engine);
      }
    }
    if (!parallel) {
      workers.push_back(std::make_unique<Worker>(shared, nullptr, *slots[0],
                                                 /*id=*/0));
      workers[0]->run_root();
    } else {
      NodePool pool(opt.deterministic, /*hunger=*/2 * threads);
      const int num_slots = opt.deterministic ? 1 : threads;
      for (int s = 1; s < num_slots; ++s) {
        slots.push_back(
            std::make_unique<EngineSlot>(shared.pre.reduced, opt.lp));
        slots.back()->engine.set_deadline(shared.deadline);
      }
      for (int w = 0; w < threads; ++w) {
        workers.push_back(std::make_unique<Worker>(
            shared, &pool, *slots[opt.deterministic ? 0 : static_cast<std::size_t>(w)],
            w));
      }
      pool.push(PoolNode{});  // the root: empty path, unbounded inherited bound
      support::ThreadPool tp(threads);
      tp.run_workers(threads, [&](int w) {
        workers[static_cast<std::size_t>(w)]->run_pool();
      });
    }
  }

  IlpResult out;
  out.threads_used = parallel ? threads : 1;
  out.nodes_explored = shared.nodes.load(std::memory_order_relaxed);
  for (const auto& worker : workers) {
    out.nodes_pruned += worker->pruned();
    out.steal_count += worker->steals();
    out.lp_pivots += worker->lp_pivots();
    out.worker_nodes.push_back(worker->nodes());
    out.worker_lp_iterations.push_back(worker->lp_pivots());
  }
  for (const auto& slot : slots) {
    const lp::SimplexEngine::Stats& stats = slot->engine.stats();
    out.lp_scratch_solves += stats.scratch_solves;
    out.lp_dual_reopts += stats.dual_reopts;
    out.lp_dual_fallbacks += stats.dual_fallbacks;
    out.lp_dual_limit += stats.dual_limit;
    out.lp_dual_numeric += stats.dual_numeric;
    out.lp_restore_fallbacks += stats.restore_fallbacks;
    out.lp_factorizations += stats.factorizations;
    out.lp_eta_updates += stats.eta_updates;
    out.lp_refactor_eta += stats.refactor_eta;
    out.lp_refactor_drift += stats.refactor_drift;
    out.lp_max_eta_len = std::max(out.lp_max_eta_len, stats.max_eta_len);
  }
  out.presolve_fixed_variables = shared.pre.stats.fixed_variables;
  out.presolve_rows_removed = shared.pre.stats.rows_removed();
  out.presolve_bound_tightenings = shared.pre.stats.bound_tightenings;
  out.lp_pivots += root_lp_pivots;
  out.rc_fixings = shared.rc_fixed.load(std::memory_order_relaxed);
  out.pseudocost_branches =
      shared.pseudocost_branches.load(std::memory_order_relaxed);
  out.nogoods_learned = shared.nogoods_learned.load(std::memory_order_relaxed);
  out.nogood_prunings = shared.nogood_prunings.load(std::memory_order_relaxed);
  out.nogood_probes = shared.nogood_probes.load(std::memory_order_relaxed);
  if (shared.nogoods != nullptr) {
    // Solve boundary: age activities so the entries that pruned *recently*
    // outrank long-quiet ones at the next eviction sweep.
    shared.nogoods->decay();
    out.nogood_store_size = shared.nogoods->size();
  }
  out.solve_seconds = shared.watch.elapsed_seconds();

  const int abort_status =
      shared.abort_status.load(std::memory_order_relaxed);
  const bool aborted = abort_status >= 0;
  if (shared.have_incumbent.load(std::memory_order_acquire)) {
    // A limit may have stopped the proof of optimality, but an incumbent
    // still exists; report it together with the limit status.
    const std::lock_guard<std::mutex> lock(shared.incumbent_mutex);
    out.status =
        aborted ? static_cast<IlpStatus>(abort_status) : IlpStatus::kOptimal;
    out.objective = shared.incumbent_obj + model.objective_constant();
    out.x = shared.incumbent;
  } else {
    out.status = aborted ? static_cast<IlpStatus>(abort_status)
                         : IlpStatus::kInfeasible;
  }
  return out;
}

}  // namespace

IlpResult BranchAndBoundSolver::solve(const Model& model) {
  if (!options_.learning) return run_search(model, options_, nullptr);
  if (store_ != nullptr) return run_search(model, options_, store_.get());
  // No external store installed: learn within this solve only.
  NogoodStore local;
  return run_search(model, options_, &local);
}

}  // namespace archex::ilp
