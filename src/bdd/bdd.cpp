#include "bdd/bdd.hpp"

#include <algorithm>

namespace archex::bdd {

namespace {

constexpr Ref kInvalid = 0xFFFFFFFFu;

/// Mix of a (var, low, high) triple — also the computed-table index hash.
/// SplitMix64 finalizer over the packed fields: cheap and well distributed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL +
                    c * 0x94d049bb133111ebULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

BddManager::BddManager(int num_vars, int computed_table_bits)
    : num_vars_(num_vars) {
  ARCHEX_REQUIRE(num_vars >= 0, "variable count must be non-negative");
  ARCHEX_REQUIRE(computed_table_bits >= 4 && computed_table_bits <= 28,
                 "computed table must hold 2^4..2^28 entries");
  // Terminals occupy arena slots 0 (false) and 1 (true); var == num_vars_
  // sentinels them below every real variable in the ordering comparisons.
  nodes_.push_back(Node{num_vars_, kFalse, kFalse, 0});
  nodes_.push_back(Node{num_vars_, kTrue, kTrue, 0});
  buckets_.assign(std::size_t{1} << 10, 0);
  computed_.assign(std::size_t{1} << computed_table_bits, ComputedEntry{});
  computed_mask_ = computed_.size() - 1;
  var_refs_.assign(static_cast<std::size_t>(num_vars), kInvalid);
  stats_.nodes_allocated = nodes_.size();
  stats_.unique_buckets = buckets_.size();
}

Ref BddManager::var(int index) {
  ARCHEX_REQUIRE(index >= 0 && index < num_vars_, "variable out of range");
  Ref& memo = var_refs_[static_cast<std::size_t>(index)];
  if (memo == kInvalid) memo = make_node(index, kFalse, kTrue);
  return memo;
}

Ref BddManager::make_node(int var, Ref low, Ref high) {
  if (low == high) return low;  // reduction rule: redundant test
  const std::uint64_t h =
      mix(static_cast<std::uint64_t>(var), low, high);
  std::size_t bucket = static_cast<std::size_t>(h) & (buckets_.size() - 1);
  for (Ref it = buckets_[bucket]; it != 0; it = nodes_[it].next) {
    const Node& node = nodes_[it];
    if (node.var == var && node.low == low && node.high == high) {
      ++stats_.unique_hits;
      return it;
    }
  }
  ARCHEX_REQUIRE(nodes_.size() < kInvalid,
                 "BDD arena exhausted (2^32 - 1 nodes)");
  const Ref ref = static_cast<Ref>(nodes_.size());
  nodes_.push_back(Node{var, low, high, buckets_[bucket]});
  buckets_[bucket] = ref;
  stats_.nodes_allocated = nodes_.size();
  stats_.unique_entries = nodes_.size() - 2;
  if (stats_.unique_entries > buckets_.size()) {
    grow_unique_table();
  }
  return ref;
}

void BddManager::grow_unique_table() {
  buckets_.assign(buckets_.size() * 2, 0);
  stats_.unique_buckets = buckets_.size();
  for (Ref ref = 2; ref < static_cast<Ref>(nodes_.size()); ++ref) {
    Node& node = nodes_[ref];
    const std::uint64_t h =
        mix(static_cast<std::uint64_t>(node.var), node.low, node.high);
    const std::size_t bucket =
        static_cast<std::size_t>(h) & (buckets_.size() - 1);
    node.next = buckets_[bucket];
    buckets_[bucket] = ref;
  }
}

void BddManager::poll_deadline() {
  if (!deadline_.has_value()) return;
  if (++steps_since_poll_ < 4096) return;
  steps_since_poll_ = 0;
  if (std::chrono::steady_clock::now() >= *deadline_) {
    throw BddTimeoutError("BDD operation exceeded its deadline");
  }
}

Ref BddManager::ite(Ref f, Ref g, Ref h) {
  ARCHEX_REQUIRE(f < nodes_.size() && g < nodes_.size() && h < nodes_.size(),
                 "foreign Ref passed to ite()");
  return ite_step(f, g, h);
}

Ref BddManager::ite_step(Ref f, Ref g, Ref h) {
  // Terminal rules resolve most recursion leaves without touching tables.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  poll_deadline();
  ++stats_.computed_lookups;
  const std::size_t slot =
      static_cast<std::size_t>(mix(f, g, h)) & computed_mask_;
  {
    const ComputedEntry& entry = computed_[slot];
    if (entry.valid && entry.f == f && entry.g == g && entry.h == h) {
      ++stats_.computed_hits;
      return entry.result;
    }
  }

  const int top = std::min({nodes_[f].var, nodes_[g].var, nodes_[h].var});
  const auto cofactor = [&](Ref r, bool positive) {
    const Node& node = nodes_[r];
    if (node.var != top) return r;
    return positive ? node.high : node.low;
  };
  const Ref r0 = ite_step(cofactor(f, false), cofactor(g, false),
                          cofactor(h, false));
  const Ref r1 = ite_step(cofactor(f, true), cofactor(g, true),
                          cofactor(h, true));
  const Ref result = make_node(top, r0, r1);

  // Lossy direct-mapped store: a collision overwrites. Bounded memory by
  // construction; correctness is unaffected (the table is a pure cache).
  computed_[slot] = ComputedEntry{f, g, h, result, true};
  return result;
}

Ref BddManager::restrict(Ref f, int index, bool value) {
  ARCHEX_REQUIRE(f < nodes_.size(), "foreign Ref passed to restrict()");
  ARCHEX_REQUIRE(index >= 0 && index < num_vars_, "variable out of range");
  // Memo over the pre-call arena: the recursion only visits nodes of f,
  // which all predate any node the rebuild creates.
  std::vector<Ref> memo(nodes_.size(), kInvalid);
  return restrict_step(f, index, value, memo);
}

Ref BddManager::restrict_step(Ref f, int index, bool value,
                              std::vector<Ref>& memo) {
  const Node& node = nodes_[f];
  if (node.var > index) return f;  // f does not depend on the variable
  if (node.var == index) return value ? node.high : node.low;
  if (memo[f] != kInvalid) return memo[f];
  poll_deadline();
  const Ref r0 = restrict_step(node.low, index, value, memo);
  const Ref r1 = restrict_step(node.high, index, value, memo);
  const Ref result = make_node(node.var, r0, r1);
  memo[f] = result;
  return result;
}

double BddManager::prob_false(Ref f,
                              const std::vector<double>& p_false) const {
  return prob_false(std::vector<Ref>{f}, p_false).front();
}

std::vector<double> BddManager::prob_false(
    const std::vector<Ref>& roots, const std::vector<double>& p_false) const {
  ARCHEX_REQUIRE(p_false.size() == static_cast<std::size_t>(num_vars_),
                 "probability vector must cover every variable");
  for (double p : p_false) {
    ARCHEX_REQUIRE(p >= 0.0 && p <= 1.0,
                   "variable probabilities must lie in [0, 1]");
  }
  Ref top = kTrue;
  for (const Ref f : roots) {
    ARCHEX_REQUIRE(f < nodes_.size(), "foreign Ref passed to prob_false()");
    top = std::max(top, f);
  }
  // Children always precede parents in the arena, so one forward sweep is a
  // complete memoization of P[node = 0] over the shared DAG. A node's value
  // reads only its own sub-DAG, so it does not depend on which other roots
  // share the sweep.
  std::vector<double> value(static_cast<std::size_t>(top) + 1);
  value[kFalse] = 1.0;
  value[kTrue] = 0.0;
  for (Ref ref = 2; ref <= top; ++ref) {
    const Node& node = nodes_[ref];
    const double pv = p_false[static_cast<std::size_t>(node.var)];
    value[ref] = pv * value[node.low] + (1.0 - pv) * value[node.high];
  }
  std::vector<double> out;
  out.reserve(roots.size());
  for (const Ref f : roots) out.push_back(value[f]);
  return out;
}

std::size_t BddManager::num_nodes(Ref f) const {
  ARCHEX_REQUIRE(f < nodes_.size(), "foreign Ref passed to num_nodes()");
  if (is_terminal(f)) return 0;
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<Ref> stack{f};
  seen[f] = true;
  std::size_t count = 0;
  while (!stack.empty()) {
    const Ref ref = stack.back();
    stack.pop_back();
    ++count;
    for (const Ref child : {nodes_[ref].low, nodes_[ref].high}) {
      if (!is_terminal(child) && !seen[child]) {
        seen[child] = true;
        stack.push_back(child);
      }
    }
  }
  return count;
}

}  // namespace archex::bdd
