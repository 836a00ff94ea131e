// Tests for the conflict-learning layer (DESIGN.md §4g): the nogood store's
// dedup/eviction/purge mechanics, Farkas certificates extracted from the
// simplex engine on hand-built and randomized infeasible LPs, and the
// end-to-end validity of every nogood the branch & bound learns on seeded
// random 0/1 programs (a learned assignment must really be dead: fixing its
// literals leaves no solution better than the proven optimum).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ilp/model.hpp"
#include "ilp/nogood.hpp"
#include "ilp/solver.hpp"
#include "lp/engine.hpp"
#include "support/rng.hpp"

namespace archex::ilp {
namespace {

// ---- store mechanics -----------------------------------------------------------

Nogood make_nogood(std::vector<int> ones, std::vector<int> zeros,
                   NogoodSource source = NogoodSource::kInfeasible) {
  Nogood n;
  n.ones = std::move(ones);
  n.zeros = std::move(zeros);
  n.source = source;
  return n;
}

TEST(NogoodStore, SignatureIsOrderIndependentAndSideSensitive) {
  const Nogood a = make_nogood({3, 1, 7}, {2, 5});
  const Nogood b = make_nogood({7, 3, 1}, {5, 2});
  EXPECT_EQ(nogood_signature(a), nogood_signature(b));

  // Moving a literal across the ones/zeros divide is a different nogood.
  const Nogood c = make_nogood({3, 1}, {7, 2, 5});
  EXPECT_NE(nogood_signature(a), nogood_signature(c));
  // ... and so is swapping the sides wholesale.
  const Nogood d = make_nogood({2, 5}, {3, 1, 7});
  EXPECT_NE(nogood_signature(a), nogood_signature(d));
}

TEST(NogoodStore, InsertDeduplicatesByAssignment) {
  NogoodStore store;
  EXPECT_GE(store.insert(make_nogood({0, 2}, {1})), 0);
  // Same assignment, permuted literals, different source: still a duplicate.
  EXPECT_EQ(store.insert(make_nogood({2, 0}, {1}, NogoodSource::kDominance)),
            -1);
  EXPECT_EQ(store.size(), 1);
  EXPECT_EQ(store.stats().inserted, 1);
  EXPECT_EQ(store.stats().deduped, 1);
}

TEST(NogoodStore, PurgeDropsOnlyDominanceEntries) {
  NogoodStore store;
  ASSERT_GE(store.insert(make_nogood({0}, {}, NogoodSource::kInfeasible)), 0);
  ASSERT_GE(store.insert(make_nogood({1}, {}, NogoodSource::kDominance)), 0);
  ASSERT_GE(store.insert(make_nogood({2}, {}, NogoodSource::kOracle)), 0);
  store.purge_transient();
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.stats().purged, 1);

  std::vector<std::pair<int, Nogood>> live;
  store.snapshot(live);
  ASSERT_EQ(live.size(), 2u);
  for (const auto& [index, nogood] : live) {
    EXPECT_NE(nogood.source, NogoodSource::kDominance) << "index " << index;
  }
}

TEST(NogoodStore, PurgeNonOracleKeepsOnlyOracleEntries) {
  NogoodStore store;
  ASSERT_GE(store.insert(make_nogood({0}, {}, NogoodSource::kInfeasible)), 0);
  ASSERT_GE(store.insert(make_nogood({1}, {}, NogoodSource::kDominance)), 0);
  ASSERT_GE(store.insert(make_nogood({2}, {}, NogoodSource::kOracle)), 0);
  store.purge_non_oracle();
  EXPECT_EQ(store.size(), 1);
  EXPECT_EQ(store.stats().purged, 2);

  std::vector<std::pair<int, Nogood>> live;
  store.snapshot(live);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].second.source, NogoodSource::kOracle);

  // A purged signature may be re-learned.
  EXPECT_GE(store.insert(make_nogood({0}, {}, NogoodSource::kInfeasible)), 0);
  EXPECT_EQ(store.size(), 2);
}

TEST(NogoodStoreRegistry, AcquireSharesStoresPerKeyAndPurgesNonOracle) {
  NogoodStoreRegistry registry;
  const auto a = registry.acquire(7);
  ASSERT_GE(a->insert(make_nogood({0}, {}, NogoodSource::kOracle)), 0);
  ASSERT_GE(a->insert(make_nogood({1}, {}, NogoodSource::kInfeasible)), 0);

  // Same key: same store, but only oracle entries survive the re-acquire.
  const auto b = registry.acquire(7);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(b->size(), 1);

  // Different key: fresh store.
  const auto c = registry.acquire(8);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c->size(), 0);
  EXPECT_EQ(registry.families(), 2u);
}

TEST(NogoodStoreRegistry, RepeatedRequestsKeepStoreSlotsBounded) {
  // Each cycle is one request: acquire the family store, learn transient
  // and infeasibility nogoods plus an occasional oracle one, release. The
  // next acquire purges the non-oracle entries; without compaction their
  // dead slots would pile up for the life of the process.
  NogoodStoreRegistry registry;
  std::size_t max_slots = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    const auto store = registry.acquire(42);
    for (int k = 0; k < 30; ++k) {
      const int v = 1000 + cycle * 30 + k;
      (void)store->insert(make_nogood({v}, {}, NogoodSource::kInfeasible));
      (void)store->insert(make_nogood({}, {v}, NogoodSource::kDominance));
    }
    // Oracle nogoods repeat across requests (dedup) and a few are new.
    (void)store->insert(make_nogood({cycle % 7}, {}, NogoodSource::kOracle));
    max_slots = std::max(max_slots, store->slots());
  }
  const auto store = registry.acquire(42);
  EXPECT_EQ(store->size(), 7);  // every oracle nogood survives
  EXPECT_LE(max_slots, 7u + 2u * 30u + 60u);
  // Live entries keep their order: the oracle ones in first-seen order.
  std::vector<std::pair<int, Nogood>> live;
  store->snapshot(live);
  ASSERT_EQ(live.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(live[static_cast<std::size_t>(i)].second.ones,
              std::vector<int>{i});
  }
}

TEST(NogoodStoreRegistry, HeldStoreIsNotCompacted) {
  // A request in flight holds entry indices; a concurrent acquire of the
  // same family must not move them.
  NogoodStoreRegistry registry;
  const auto first = registry.acquire(9);
  ASSERT_GE(first->insert(make_nogood({0}, {}, NogoodSource::kInfeasible)), 0);
  const int oracle = first->insert(make_nogood({1}, {}, NogoodSource::kOracle));
  ASSERT_EQ(oracle, 1);
  const auto second = registry.acquire(9);  // purges entry 0, keeps slot
  EXPECT_EQ(second->slots(), 2u);
  std::vector<std::pair<int, Nogood>> live;
  second->snapshot(live);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].first, oracle);
}

TEST(NogoodStore, DuplicateFromPermanentSourceUpgradesDominanceEntry) {
  // An assignment first learned against the incumbent (transient) and later
  // proven infeasible outright must survive the next purge.
  NogoodStore store;
  ASSERT_GE(store.insert(make_nogood({0, 1}, {}, NogoodSource::kDominance)),
            0);
  EXPECT_EQ(store.insert(make_nogood({0, 1}, {}, NogoodSource::kInfeasible)),
            -1);
  store.purge_transient();
  EXPECT_EQ(store.size(), 1);
}

TEST(NogoodStore, EvictionKeepsActiveEntriesAndOracles) {
  NogoodStore store(8);

  const int oracle =
      store.insert(make_nogood({100}, {101}, NogoodSource::kOracle));
  ASSERT_GE(oracle, 0);
  std::vector<int> indices;
  for (int j = 0; j < 7; ++j) {
    indices.push_back(store.insert(make_nogood({j}, {})));
    ASSERT_GE(indices.back(), 0);
  }
  // Entries 0 and 1 are hot; the rest never fire.
  for (int hit = 0; hit < 5; ++hit) {
    store.bump(indices[0]);
    store.bump(indices[1]);
  }

  // Overflow the cap: the sweep must shed low-activity entries down to 3/4
  // of the cap while keeping the hot ones and the oracle entry.
  ASSERT_GE(store.insert(make_nogood({7}, {})), 0);
  EXPECT_LE(store.size(), 8);
  EXPECT_GT(store.stats().evicted, 0);

  std::vector<std::pair<int, Nogood>> live;
  store.snapshot(live);
  bool oracle_alive = false, hot0_alive = false, hot1_alive = false;
  for (const auto& [index, nogood] : live) {
    if (index == oracle) oracle_alive = true;
    if (index == indices[0]) hot0_alive = true;
    if (index == indices[1]) hot1_alive = true;
  }
  EXPECT_TRUE(oracle_alive);
  EXPECT_TRUE(hot0_alive);
  EXPECT_TRUE(hot1_alive);

  // Dead indices are recyclable: bumping one is a no-op, and the same
  // assignment may be learned again.
  std::vector<bool> alive(32, false);
  for (const auto& [index, nogood] : live) {
    alive[static_cast<std::size_t>(index)] = true;
  }
  for (int j = 0; j < 7; ++j) {
    if (!alive[static_cast<std::size_t>(indices[j])]) {
      store.bump(indices[j]);  // stale hit against an evicted entry
      EXPECT_GE(store.insert(make_nogood({j}, {})), 0) << "relearn " << j;
      break;
    }
  }
}

TEST(NogoodStore, MatchRequiresBoxImpliedLiterals) {
  const Nogood n = make_nogood({0}, {2});
  // Box fixes x0 = 1 and x2 = 0: every point in it hits the nogood.
  EXPECT_TRUE(nogood_matches(n, {1.0, 0.0, 0.0}, {1.0, 1.0, 0.0}));
  // x2 free: points with x2 = 1 escape, so the node must not be pruned.
  EXPECT_FALSE(nogood_matches(n, {1.0, 0.0, 0.0}, {1.0, 1.0, 1.0}));
  // x0 free likewise.
  EXPECT_FALSE(nogood_matches(n, {0.0, 0.0, 0.0}, {1.0, 1.0, 0.0}));
  // The empty nogood (root conflict) matches any box.
  EXPECT_TRUE(nogood_matches(Nogood{}, {0.0}, {1.0}));
}

// ---- Farkas certificates -------------------------------------------------------

/// Certificate validity: z must price every column, and leaning each weight
/// against its bound must show the box holds no row-feasible point
/// (sup { z'x : box } = -margin < 0). `box_support` is the reference
/// evaluation of that supremum. The box is the engine's *current* structural
/// bounds (col_lo/col_up track tightenings) plus the logical columns' row
/// ranges from the problem, which branching never moves.
void expect_valid_certificate(const lp::Problem& p,
                              lp::SimplexEngine& engine) {
  std::vector<double> z;
  double margin = 0.0;
  ASSERT_TRUE(engine.farkas_ray(z, margin));
  ASSERT_EQ(z.size(), static_cast<std::size_t>(engine.num_structural() +
                                               engine.num_rows()));
  EXPECT_GT(margin, 0.0);

  std::vector<double> lo, up;
  for (int j = 0; j < engine.num_structural(); ++j) {
    lo.push_back(engine.col_lo(j));
    up.push_back(engine.col_up(j));
  }
  for (int i = 0; i < engine.num_rows(); ++i) {
    lo.push_back(p.row_lo(i));
    up.push_back(p.row_up(i));
  }
  EXPECT_NEAR(lp::box_support(z, lo, up), -margin, 1e-7);
}

TEST(FarkasRay, CertifiesHandBuiltInfeasibleBoxes) {
  // x + y >= 2 with both variables boxed into [0, 0.4].
  lp::Problem p;
  const int x = p.add_variable(0.0, 0.4, 1.0);
  const int y = p.add_variable(0.0, 0.4, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, 2.0, lp::kInf);
  lp::SimplexEngine engine(p, lp::SimplexOptions{});
  ASSERT_EQ(engine.solve_from_scratch().status, lp::SolveStatus::kInfeasible);
  expect_valid_certificate(p, engine);
}

TEST(FarkasRay, CertifiesInfeasibilityAfterBoundTightening) {
  // Feasible at first; branching-style bound fixes then cut off every
  // completion, which is exactly the B&B learning scenario.
  lp::Problem p;
  const int x = p.add_variable(0.0, 1.0, 3.0);
  const int y = p.add_variable(0.0, 1.0, 2.0);
  const int w = p.add_variable(0.0, 1.0, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}, {w, 1.0}}, 2.0, lp::kInf);
  lp::SimplexEngine engine(p, lp::SimplexOptions{});
  ASSERT_EQ(engine.solve_from_scratch().status, lp::SolveStatus::kOptimal);

  engine.set_variable_bounds(x, 0.0, 0.0);
  engine.set_variable_bounds(y, 0.0, 0.0);
  ASSERT_EQ(engine.reoptimize().status, lp::SolveStatus::kInfeasible);
  expect_valid_certificate(p, engine);

  // Relaxing the bounds again discards the stale certificate.
  engine.set_variable_bounds(x, 0.0, 1.0);
  ASSERT_EQ(engine.reoptimize().status, lp::SolveStatus::kOptimal);
  std::vector<double> z;
  double margin = 0.0;
  EXPECT_FALSE(engine.farkas_ray(z, margin));
}

TEST(FarkasRay, CertifiesRandomizedInfeasibleInstances) {
  // Random inequality systems over 0/1 boxes, with variables successively
  // fixed until the LP turns infeasible; every reported certificate must
  // check out against box_support.
  Rng rng(0xfa54a5ce7ULL);
  int certified = 0;
  for (int trial = 0; trial < 60; ++trial) {
    lp::Problem p;
    const int n = 3 + static_cast<int>(rng.next_below(5));
    for (int j = 0; j < n; ++j) {
      p.add_variable(0.0, 1.0, 1.0 + rng.next_double());
    }
    const int rows = 2 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < rows; ++i) {
      std::vector<lp::Term> terms;
      double sum = 0.0;
      for (int j = 0; j < n; ++j) {
        if (!rng.next_bernoulli(0.6)) continue;
        const double c = 1.0 + static_cast<double>(rng.next_below(4));
        terms.push_back({j, c});
        sum += c;
      }
      if (terms.empty()) terms.push_back({0, 1.0});
      p.add_constraint(terms, 0.4 * sum, lp::kInf);
    }

    lp::SimplexEngine engine(p, lp::SimplexOptions{});
    lp::Solution s = engine.solve_from_scratch();
    for (int j = 0; j < n && s.status == lp::SolveStatus::kOptimal; ++j) {
      engine.set_variable_bounds(j, 0.0, 0.0);
      s = engine.reoptimize();
    }
    if (s.status != lp::SolveStatus::kInfeasible) continue;

    std::vector<double> z;
    double margin = 0.0;
    if (!engine.farkas_ray(z, margin)) continue;  // "no certificate" is legal
    expect_valid_certificate(p, engine);
    ++certified;
  }
  // The generator must actually exercise the certificate path.
  EXPECT_GE(certified, 20);
}

// ---- end-to-end: everything the solver learns is really dead --------------------

/// Compact random 0/1 programs in the synthesis shape (integer objective,
/// mixed <= / >= / == rows anchored at a reference point).
Model make_model(Rng& rng) {
  Model m;
  const int n = 7 + static_cast<int>(rng.next_below(8));
  std::vector<Var> xs;
  for (int j = 0; j < n; ++j) {
    xs.push_back(m.add_binary("x" + std::to_string(j)));
  }
  std::vector<double> z(static_cast<std::size_t>(n));
  for (auto& v : z) v = rng.next_bernoulli(0.5) ? 1.0 : 0.0;

  const int rows = 4 + static_cast<int>(rng.next_below(7));
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    double at_z = 0.0;
    for (int j = 0; j < n; ++j) {
      if (!rng.next_bernoulli(0.5)) continue;
      double c = 1.0 + static_cast<double>(rng.next_below(5));
      if (rng.next_bernoulli(0.35)) c = -c;
      e.add_term(xs[static_cast<std::size_t>(j)], c);
      at_z += c * z[static_cast<std::size_t>(j)];
    }
    if (e.empty()) e.add_term(xs[0], 1.0);
    switch (rng.next_below(3)) {
      case 0: m.add_row(e <= at_z + static_cast<double>(rng.next_below(3)));
              break;
      case 1: m.add_row(e >= at_z - static_cast<double>(rng.next_below(3)));
              break;
      default: m.add_row(e == at_z); break;
    }
  }
  LinExpr obj;
  for (Var v : xs) {
    obj.add_term(v, static_cast<double>(1 + rng.next_below(20)));
  }
  m.set_objective(obj);
  return m;
}

TEST(NogoodLearning, EveryLearnedNogoodIsDeadAndWithinTheWidthCap) {
  Rng rng(0xdead900d5ULL);
  long validated = 0;
  for (int i = 0; i < 40; ++i) {
    const Model m = make_model(rng);

    auto store = std::make_shared<NogoodStore>();
    BranchAndBoundSolver solver;
    solver.set_nogood_store(store);
    const IlpResult res = solver.solve(m);
    ASSERT_TRUE(res.status == IlpStatus::kOptimal ||
                res.status == IlpStatus::kInfeasible)
        << "instance " << i;

    std::vector<std::pair<int, Nogood>> learned;
    store->snapshot(learned);
    for (const auto& [index, nogood] : learned) {
      EXPECT_LE(nogood.num_literals(),
                static_cast<std::size_t>(kMaxNogoodLiterals))
          << "instance " << i << " nogood " << index;

      // Replay the assignment: fixing the literals must leave nothing
      // better than the proven optimum (kInfeasible: nothing at all).
      Model fixed = m;
      for (const int j : nogood.ones) fixed.fix(Var{j}, 1.0);
      for (const int j : nogood.zeros) fixed.fix(Var{j}, 0.0);
      BranchAndBoundOptions plain;
      plain.learning = false;
      const IlpResult replay = BranchAndBoundSolver(plain).solve(fixed);
      if (nogood.source == NogoodSource::kInfeasible) {
        EXPECT_EQ(replay.status, IlpStatus::kInfeasible)
            << "instance " << i << " nogood " << index;
      } else {
        ASSERT_EQ(nogood.source, NogoodSource::kDominance);
        if (replay.status == IlpStatus::kOptimal) {
          EXPECT_GE(replay.objective, res.objective - 1e-6)
              << "instance " << i << " nogood " << index;
        } else {
          EXPECT_EQ(replay.status, IlpStatus::kInfeasible)
              << "instance " << i << " nogood " << index;
        }
      }
      ++validated;
    }
  }
  // The suite is vacuous unless the search actually learned something.
  EXPECT_GE(validated, 50);
}

TEST(NogoodLearning, StorePersistsAcrossSolvesAndReportsCounters) {
  // Re-solving the same model with a shared store must start from the
  // previous solve's permanent conflicts (store size carries over) and keep
  // the result identical.
  Rng rng(0x5701e5ULL);
  for (int i = 0; i < 10; ++i) {
    const Model m = make_model(rng);
    auto store = std::make_shared<NogoodStore>();
    BranchAndBoundSolver solver{BranchAndBoundOptions{}};
    solver.set_nogood_store(store);

    const IlpResult first = solver.solve(m);
    EXPECT_EQ(first.nogood_store_size, store->size());
    // Transient (incumbent-relative) entries are purged when the next solve
    // starts; only the permanent ones must survive the restart.
    std::vector<std::pair<int, Nogood>> live;
    store->snapshot(live);
    long permanent = 0;
    for (const auto& [index, nogood] : live) {
      if (nogood.source != NogoodSource::kDominance) ++permanent;
    }

    const IlpResult second = solver.solve(m);
    EXPECT_EQ(first.status, second.status) << "instance " << i;
    if (first.optimal()) {
      EXPECT_NEAR(first.objective, second.objective, 1e-9)
          << "instance " << i;
    }
    EXPECT_GE(second.nogood_store_size, permanent) << "instance " << i;
  }
}

}  // namespace
}  // namespace archex::ilp
