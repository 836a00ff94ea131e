// Differential tests: the sparse LU + eta-file simplex engine against the
// dense explicit-inverse oracle (SimplexOptions::dense_basis). Same pivot
// rules, different linear algebra — statuses must match exactly and
// objectives within tolerance, on random bounded LPs, on the real
// synthesis models (EPS base ILP and ILP-AR encodings), and across
// warm-start reoptimize() sequences mimicking branch-and-bound bound flips.
//
// BasisFactor itself is checked bit for bit against a reference copy of
// the straightforward factorization (full candidate scan at every
// elimination step, fresh vectors per solve): same singular verdicts and
// bitwise-equal FTRAN/BTRAN results, also after eta updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/arch_ilp.hpp"
#include "core/ilp_ar.hpp"
#include "eps/eps_template.hpp"
#include "ilp/solver.hpp"
#include "lp/basis_lu.hpp"
#include "lp/engine.hpp"
#include "support/rng.hpp"

namespace archex::lp {
namespace {

SimplexOptions dense_options() {
  SimplexOptions opt;
  opt.dense_basis = true;
  return opt;
}

/// Random bounded LP in the style of the engine's warm-start property test,
/// but larger and with a mix of boxed / one-sided rows.
Problem random_lp(Rng& rng) {
  const int n = 4 + static_cast<int>(rng.next_below(14));
  const int m = 3 + static_cast<int>(rng.next_below(12));
  Problem p;
  for (int j = 0; j < n; ++j) {
    p.add_variable(0.0, 1.0 + std::floor(rng.next_double() * 3.0),
                   std::floor(rng.next_double() * 21.0) - 10.0);
  }
  for (int i = 0; i < m; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.next_bernoulli(0.6)) continue;
      terms.push_back({j, std::floor(rng.next_double() * 7.0) - 3.0});
    }
    const double rhs = std::floor(rng.next_double() * 5.0) - 1.0;
    if (rng.next_bernoulli(0.4)) {
      p.add_constraint(terms, -kInf, rhs);
    } else if (rng.next_bernoulli(0.5)) {
      p.add_constraint(terms, rhs - 4.0, kInf);
    } else {
      p.add_constraint(terms, rhs - 4.0, rhs);  // boxed (range) row
    }
  }
  return p;
}

void expect_agreement(const Problem& p, const char* what) {
  const Solution sparse = solve(p, SimplexOptions{});
  const Solution dense = solve(p, dense_options());
  ASSERT_EQ(sparse.status, dense.status) << what;
  if (sparse.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-6) << what;
    ASSERT_TRUE(p.is_feasible(sparse.x, 1e-6)) << what;
  }
}

class SparseDenseAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SparseDenseAgreement, ScratchSolvesMatch) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151u + 17);
  const Problem p = random_lp(rng);
  expect_agreement(p, "random LP");
}

TEST_P(SparseDenseAgreement, WarmStartSequencesMatch) {
  // Branch-and-bound-style bound flips: fix a column to an extreme, later
  // relax it, reoptimizing after every change on both representations.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9973u + 5);
  const Problem p = random_lp(rng);
  SimplexEngine sparse(p);
  SimplexEngine dense(p, dense_options());
  if (sparse.solve_from_scratch().status != SolveStatus::kOptimal) return;
  (void)dense.solve_from_scratch();

  const int n = p.num_variables();
  for (int step = 0; step < 24; ++step) {
    const int j = static_cast<int>(rng.next_below(static_cast<unsigned>(n)));
    if (rng.next_bernoulli(0.3)) {
      sparse.set_variable_bounds(j, p.col_lo(j), p.col_up(j));  // relax
      dense.set_variable_bounds(j, p.col_lo(j), p.col_up(j));
    } else {
      const double v = rng.next_bernoulli(0.5) ? p.col_up(j) : p.col_lo(j);
      sparse.set_variable_bounds(j, v, v);  // fix (branching decision)
      dense.set_variable_bounds(j, v, v);
    }
    const Solution ws = sparse.reoptimize();
    const Solution wd = dense.reoptimize();
    ASSERT_EQ(ws.status, wd.status) << "step " << step;
    if (ws.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(ws.objective, wd.objective, 1e-6) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseDenseAgreement, ::testing::Range(0, 40));

TEST(SparseEngine, MatchesDenseOnEpsBaseModel) {
  for (const int generators : {1, 2}) {
    eps::EpsSpec spec;
    spec.num_generators = generators;
    const eps::EpsTemplate eps = eps::make_eps_template(spec);
    const core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
    expect_agreement(ilp.model().to_lp(), "EPS base relaxation");
  }
}

TEST(SparseEngine, MatchesDenseOnIlpArEncoding) {
  eps::EpsSpec spec;
  spec.num_generators = 1;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);
  core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
  core::IlpArOptions options;
  options.target_failure = 2e-3;
  core::encode_ilp_ar(ilp, options);
  expect_agreement(ilp.model().to_lp(), "ILP-AR relaxation");
}

TEST(SparseEngine, FullPricingOptionAgrees) {
  // pricing_candidates <= 0 restores full Dantzig/Devex scans on the
  // sparse path; the optimum must not move.
  Rng rng(12345);
  const Problem p = random_lp(rng);
  SimplexOptions full;
  full.pricing_candidates = 0;
  const Solution a = solve(p, SimplexOptions{});
  const Solution b = solve(p, full);
  ASSERT_EQ(a.status, b.status);
  if (a.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(a.objective, b.objective, 1e-6);
  }
}

TEST(SparseEngine, TightEtaBudgetForcesRefactorization) {
  // A one-eta budget must refactorize after (almost) every pivot and still
  // land on the same optimum.
  Rng rng(777);
  const Problem p = random_lp(rng);
  SimplexOptions tight;
  tight.max_eta = 1;
  SimplexEngine engine(p, tight);
  const Solution s = engine.solve_from_scratch();
  const Solution ref = solve(p, dense_options());
  ASSERT_EQ(s.status, ref.status);
  if (s.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(s.objective, ref.objective, 1e-6);
    EXPECT_GT(engine.stats().refactor_eta, 0);
  }
}

TEST(SparseEngine, StatsReportBasisMaintenance) {
  eps::EpsSpec spec;
  spec.num_generators = 1;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);
  const core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
  const Problem p = ilp.model().to_lp();

  SimplexEngine sparse(p);
  ASSERT_EQ(sparse.solve_from_scratch().status, SolveStatus::kOptimal);
  EXPECT_GT(sparse.stats().factorizations, 0);
  EXPECT_GT(sparse.stats().eta_updates, 0);
  // Bound-flip pivots touch no basis column, so etas never exceed pivots.
  EXPECT_LE(sparse.stats().eta_updates, sparse.stats().total_pivots);
  EXPECT_GE(sparse.stats().max_eta_len, 1);

  SimplexEngine dense(p, dense_options());
  ASSERT_EQ(dense.solve_from_scratch().status, SolveStatus::kOptimal);
  EXPECT_EQ(dense.stats().eta_updates, 0);  // the oracle keeps no eta file
}

// ---- BasisFactor vs the full-scan reference ---------------------------------

/// The reference factorization: every elimination step rescans all columns
/// for the kCandidates sparsest active ones (ties to the lowest index), and
/// the factors and eta file are vectors of vectors. Pivot rule, drop and
/// singularity tolerances and every summation order are the ones
/// BasisFactor must reproduce.
class ReferenceFactor {
 public:
  bool factorize(int m, const std::vector<SparseColumn>& columns) {
    constexpr double kPivotThreshold = 0.1;
    constexpr double kDropTolerance = 1e-14;
    constexpr double kSingularTolerance = 1e-11;
    constexpr int kCandidates = 4;
    const auto mm = static_cast<std::size_t>(m);
    m_ = m;
    perm_row_.assign(mm, -1);
    perm_col_.assign(mm, -1);
    diag_.assign(mm, 0.0);
    l_cols_.assign(mm, {});
    u_rows_.assign(mm, {});
    etas_.clear();
    std::vector<std::vector<std::pair<int, double>>> rows(mm);
    std::vector<std::vector<int>> col_rows(mm);
    std::vector<int> col_count(mm, 0);
    std::vector<bool> row_active(mm, true), col_active(mm, true);
    for (int c = 0; c < m; ++c) {
      for (const auto& [r, v] : columns[static_cast<std::size_t>(c)]) {
        if (v == 0.0) continue;
        rows[static_cast<std::size_t>(r)].push_back({c, v});
        col_rows[static_cast<std::size_t>(c)].push_back(r);
        ++col_count[static_cast<std::size_t>(c)];
      }
    }
    const auto at = [](int i) { return static_cast<std::size_t>(i); };
    const auto find_in_row = [&](int r, int c) -> double* {
      for (auto& e : rows[at(r)]) {
        if (e.first == c) return &e.second;
      }
      return nullptr;
    };
    const auto remove_from_row = [&](int r, int c) {
      auto& row = rows[at(r)];
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i].first == c) {
          row[i] = row.back();
          row.pop_back();
          return;
        }
      }
    };
    for (int step = 0; step < m; ++step) {
      int cand[kCandidates];
      int cand_n = 0;
      for (int c = 0; c < m; ++c) {
        if (!col_active[at(c)]) continue;
        if (col_count[at(c)] == 0) return false;  // singular
        int pos = cand_n < kCandidates ? cand_n : kCandidates - 1;
        if (pos == kCandidates - 1 && cand_n == kCandidates &&
            col_count[at(c)] >= col_count[at(cand[pos])]) {
          continue;
        }
        while (pos > 0 && col_count[at(c)] < col_count[at(cand[pos - 1])]) {
          if (pos < kCandidates) cand[pos] = cand[pos - 1];
          --pos;
        }
        cand[pos] = c;
        if (cand_n < kCandidates) ++cand_n;
      }
      if (cand_n == 0) return false;
      int best_row = -1, best_col = -1;
      double best_val = 0.0;
      long best_score = 0;
      for (int ci = 0; ci < cand_n; ++ci) {
        const int c = cand[ci];
        double col_max = 0.0;
        for (const int r : col_rows[at(c)]) {
          if (!row_active[at(r)]) continue;
          if (const double* v = find_in_row(r, c)) {
            col_max = std::max(col_max, std::abs(*v));
          }
        }
        if (col_max < kSingularTolerance) continue;
        for (const int r : col_rows[at(c)]) {
          if (!row_active[at(r)]) continue;
          const double* v = find_in_row(r, c);
          if (v == nullptr || std::abs(*v) < kPivotThreshold * col_max) {
            continue;
          }
          const long score = (static_cast<long>(rows[at(r)].size()) - 1) *
                             (static_cast<long>(col_count[at(c)]) - 1);
          if (best_row < 0 || score < best_score ||
              (score == best_score && std::abs(*v) > std::abs(best_val))) {
            best_row = r;
            best_col = c;
            best_val = *v;
            best_score = score;
          }
        }
      }
      if (best_row < 0) return false;
      const auto ks = at(step);
      perm_row_[ks] = best_row;
      perm_col_[ks] = best_col;
      diag_[ks] = best_val;
      auto& pivot_row = rows[at(best_row)];
      auto& urow = u_rows_[ks];
      for (const auto& [c, v] : pivot_row) {
        if (c == best_col) continue;
        urow.push_back({c, v});
        --col_count[at(c)];
      }
      --col_count[at(best_col)];
      auto& lcol = l_cols_[ks];
      for (const int r : col_rows[at(best_col)]) {
        if (r == best_row || !row_active[at(r)]) continue;
        const double* vp = find_in_row(r, best_col);
        if (vp == nullptr) continue;
        const double mult = *vp / best_val;
        lcol.push_back({r, mult});
        remove_from_row(r, best_col);
        --col_count[at(best_col)];
        if (mult == 0.0) continue;
        for (const auto& [c, v] : urow) {
          if (double* dst = find_in_row(r, c)) {
            *dst -= mult * v;
            if (std::abs(*dst) < kDropTolerance) {
              remove_from_row(r, c);
              --col_count[at(c)];
            }
          } else {
            const double fill = -mult * v;
            if (std::abs(fill) < kDropTolerance) continue;
            rows[at(r)].push_back({c, fill});
            col_rows[at(c)].push_back(r);
            ++col_count[at(c)];
          }
        }
      }
      row_active[at(best_row)] = false;
      col_active[at(best_col)] = false;
      pivot_row.clear();
    }
    return true;
  }

  [[nodiscard]] std::vector<double> ftran(const std::vector<double>& b) const {
    std::vector<double> work = b;
    for (int k = 0; k < m_; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      const double bp = work[static_cast<std::size_t>(perm_row_[ks])];
      if (bp == 0.0) continue;
      for (const auto& [r, mult] : l_cols_[ks]) {
        work[static_cast<std::size_t>(r)] -= mult * bp;
      }
    }
    std::vector<double> x(static_cast<std::size_t>(m_), 0.0);
    for (int k = m_ - 1; k >= 0; --k) {
      const auto ks = static_cast<std::size_t>(k);
      double v = work[static_cast<std::size_t>(perm_row_[ks])];
      for (const auto& [c, u] : u_rows_[ks]) {
        v -= u * x[static_cast<std::size_t>(c)];
      }
      x[static_cast<std::size_t>(perm_col_[ks])] = v / diag_[ks];
    }
    for (const Eta& e : etas_) {
      double xp = x[static_cast<std::size_t>(e.pivot_pos)];
      if (xp == 0.0) continue;
      xp /= e.pivot_value;
      for (const auto& [r, v] : e.entries) {
        x[static_cast<std::size_t>(r)] -= v * xp;
      }
      x[static_cast<std::size_t>(e.pivot_pos)] = xp;
    }
    return x;
  }

  [[nodiscard]] std::vector<double> btran(std::vector<double> c) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double s = c[static_cast<std::size_t>(it->pivot_pos)];
      for (const auto& [r, v] : it->entries) {
        s -= v * c[static_cast<std::size_t>(r)];
      }
      c[static_cast<std::size_t>(it->pivot_pos)] = s / it->pivot_value;
    }
    std::vector<double> w(static_cast<std::size_t>(m_), 0.0);
    for (int k = 0; k < m_; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      const double wk = c[static_cast<std::size_t>(perm_col_[ks])] / diag_[ks];
      w[ks] = wk;
      if (wk == 0.0) continue;
      for (const auto& [cc, u] : u_rows_[ks]) {
        c[static_cast<std::size_t>(cc)] -= u * wk;
      }
    }
    std::vector<double> y(static_cast<std::size_t>(m_), 0.0);
    for (int k = m_ - 1; k >= 0; --k) {
      const auto ks = static_cast<std::size_t>(k);
      double v = w[ks];
      for (const auto& [r, mult] : l_cols_[ks]) {
        v -= mult * y[static_cast<std::size_t>(r)];
      }
      y[static_cast<std::size_t>(perm_row_[ks])] = v;
    }
    return y;
  }

  void push_eta(int pivot_pos, const std::vector<double>& w) {
    Eta eta;
    eta.pivot_pos = pivot_pos;
    eta.pivot_value = w[static_cast<std::size_t>(pivot_pos)];
    for (int r = 0; r < m_; ++r) {
      if (r == pivot_pos) continue;
      const double v = w[static_cast<std::size_t>(r)];
      if (v != 0.0) eta.entries.push_back({r, v});
    }
    etas_.push_back(std::move(eta));
  }

 private:
  struct Eta {
    int pivot_pos = -1;
    double pivot_value = 0.0;
    std::vector<std::pair<int, double>> entries;
  };
  int m_ = 0;
  std::vector<int> perm_row_, perm_col_;
  std::vector<double> diag_;
  std::vector<std::vector<std::pair<int, double>>> l_cols_, u_rows_;
  std::vector<Eta> etas_;
};

/// Bitwise equality (distinguishes -0.0 from 0.0 and compares NaN bits).
::testing::AssertionResult BitwiseEqual(const std::vector<double>& a,
                                        const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

enum class BasisShape { kFill, kTies, kSingular };

/// A random sparse m x m matrix, column by column. kFill: 1-4 random
/// entries per column plus a random diagonal, so elimination creates fill.
/// kTies: exactly two entries per column (every count ties; the lowest
/// index must win). kSingular: a kFill matrix with one column copied,
/// emptied or scaled below the singularity tolerance.
std::vector<SparseColumn> random_basis(Rng& rng, int m, BasisShape shape) {
  const auto entry = [&] {
    const double v = std::floor(rng.next_double() * 17.0) - 8.0;
    return v == 0.0 ? 0.5 : v;
  };
  std::vector<SparseColumn> cols(static_cast<std::size_t>(m));
  for (int c = 0; c < m; ++c) {
    auto& col = cols[static_cast<std::size_t>(c)];
    std::vector<int> rows;
    if (shape == BasisShape::kTies) {
      rows.push_back(c);
      rows.push_back(static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(m))));
    } else {
      if (rng.next_bernoulli(0.8)) rows.push_back(c);
      const int extra = 1 + static_cast<int>(rng.next_below(4));
      for (int e = 0; e < extra; ++e) {
        rows.push_back(static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(m))));
      }
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    for (const int r : rows) col.push_back({r, entry()});
  }
  if (shape == BasisShape::kSingular && m > 1) {
    const auto a = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(m)));
    auto b = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(m - 1)));
    if (b >= a) ++b;
    switch (rng.next_below(3)) {
      case 0: cols[b] = cols[a]; break;
      case 1: cols[b].clear(); break;
      default:
        for (auto& e : cols[b]) e.second *= 1e-13;
        break;
    }
  }
  return cols;
}

std::vector<double> random_rhs(Rng& rng, int m) {
  std::vector<double> v(static_cast<std::size_t>(m), 0.0);
  if (rng.next_bernoulli(0.3)) {  // unit vector, as basis_row() solves
    v[static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(m)))] = 1.0;
    return v;
  }
  for (auto& x : v) {
    if (rng.next_bernoulli(0.4)) x = rng.next_double() * 4.0 - 2.0;
  }
  return v;
}

class FactorDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FactorDifferential, MatchesFullScanBitForBit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 3);
  for (const BasisShape shape :
       {BasisShape::kFill, BasisShape::kTies, BasisShape::kSingular}) {
    const int m = 1 + static_cast<int>(rng.next_below(70));
    const std::vector<SparseColumn> cols = random_basis(rng, m, shape);

    // BasisFactor reads column k from a larger store through the basis
    // heading; scatter the matrix's columns into one in random order.
    std::vector<int> heading(static_cast<std::size_t>(m));
    std::vector<SparseColumn> store(static_cast<std::size_t>(2 * m));
    for (int k = 0; k < m; ++k) {
      heading[static_cast<std::size_t>(k)] = 2 * m - 1 - 2 * k;
      store[static_cast<std::size_t>(2 * m - 1 - 2 * k)] =
          cols[static_cast<std::size_t>(k)];
    }

    ReferenceFactor ref;
    BasisFactor fast;
    const bool ref_ok = ref.factorize(m, cols);
    const bool fast_ok = fast.factorize(store, heading);
    ASSERT_EQ(fast_ok, ref_ok) << "m=" << m;
    if (shape == BasisShape::kSingular) continue;
    if (!ref_ok) continue;

    std::vector<double> work, out;
    const auto compare_solves = [&](const char* when) {
      for (int t = 0; t < 6; ++t) {
        const std::vector<double> b = random_rhs(rng, m);
        work = b;
        fast.ftran(work, out);
        ASSERT_TRUE(BitwiseEqual(out, ref.ftran(b))) << "ftran " << when;
        work = b;
        fast.btran(work, out);
        ASSERT_TRUE(BitwiseEqual(out, ref.btran(b))) << "btran " << when;
      }
    };
    compare_solves("after factorize");

    // A run of basis changes: FTRAN a random entering column and replace
    // a position with a usable pivot, on both representations.
    for (int pivot = 0; pivot < 12; ++pivot) {
      std::vector<double> a = random_rhs(rng, m);
      const std::vector<double> w = ref.ftran(a);
      fast.ftran(a, out);
      ASSERT_TRUE(BitwiseEqual(out, w)) << "entering column " << pivot;
      int pos = -1;
      for (int i = 0; i < m; ++i) {
        if (std::abs(w[static_cast<std::size_t>(i)]) > 1e-3) pos = i;
      }
      if (pos < 0) continue;
      ref.push_eta(pos, w);
      fast.push_eta(pos, w);
      compare_solves("after push_eta");
    }
    EXPECT_EQ(fast.eta_count() > 0, fast.eta_nonzeros() > 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FactorDifferential, ::testing::Range(0, 60));

TEST(FactorDifferential, ReusedFactorMatchesFreshOne) {
  // The elimination workspace and count buckets persist across calls,
  // including across a singular exit and a change of m; a reused factor
  // must behave exactly like a fresh one.
  Rng rng(4242);
  BasisFactor reused;
  for (int round = 0; round < 40; ++round) {
    const int m = 1 + static_cast<int>(rng.next_below(150));
    const BasisShape shape = static_cast<BasisShape>(rng.next_below(3));
    const std::vector<SparseColumn> cols = random_basis(rng, m, shape);
    std::vector<int> heading(static_cast<std::size_t>(m));
    for (int k = 0; k < m; ++k) heading[static_cast<std::size_t>(k)] = k;
    BasisFactor fresh;
    const bool ok = fresh.factorize(cols, heading);
    ASSERT_EQ(reused.factorize(cols, heading), ok) << "round " << round;
    if (!ok) continue;
    EXPECT_EQ(reused.lu_nonzeros(), fresh.lu_nonzeros());
    std::vector<double> b = random_rhs(rng, m), b2 = b, x1, x2;
    reused.btran(b, x1);
    fresh.btran(b2, x2);
    ASSERT_TRUE(BitwiseEqual(x1, x2)) << "round " << round;
  }
}

TEST(SparseEngine, PerturbedSolveWithBasicArtificialIsRepeatable) {
  // ILP-AR on EPS g2 reaches a perturbed phase 2 while a retired phase-1
  // artificial is still basic. Its cost must not be perturbed: reading the
  // perturbation past the base columns is out of bounds (ASan reports it),
  // and the garbage it picks up made B&B node counts differ between two
  // identical solves in one process.
  eps::EpsSpec spec;
  spec.num_generators = 2;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);
  long nodes[2] = {0, 0};
  for (long& n : nodes) {
    core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
    ilp::BranchAndBoundSolver solver;
    core::IlpArOptions options;
    options.target_failure = 1e-3;
    const core::IlpArReport rep = core::run_ilp_ar(ilp, solver, options);
    ASSERT_EQ(rep.status, core::SynthesisStatus::kSuccess);
    n = rep.solver_nodes;
  }
  EXPECT_GT(nodes[0], 0);
  EXPECT_EQ(nodes[0], nodes[1]);
}

// ---- warm re-optimization soundness ------------------------------------------
//
// A warm reoptimize() must report the same optimum as a scratch solve of the
// same bounds. The dual loop's bound flips move a column to its other bound
// without a dual step; an "optimal" basis reached that way could keep a
// reduced cost of the wrong sign and overstate the minimum, which makes
// branch and bound prune on a bound the LP does not have.

/// Scratch solve of `p` under the bounds `lo`/`up`.
Solution scratch_solve(const Problem& p, const std::vector<double>& lo,
                       const std::vector<double>& up, double& slack) {
  SimplexEngine cold(p);
  for (int k = 0; k < p.num_variables(); ++k) {
    cold.set_variable_bounds(k, lo[static_cast<std::size_t>(k)],
                             up[static_cast<std::size_t>(k)]);
  }
  Solution out = cold.solve_from_scratch();
  slack = cold.bound_slack();
  return out;
}

/// Depth-first branch and bound on the 0/1 columns of `p` with one warm
/// engine (branch down or up at random on a fractional column, backtrack by
/// restoring bounds), checking every warm optimum against a scratch solve
/// of the same bounds. Returns the number of warm optima checked.
int expect_warm_matches_scratch(const Problem& p, Rng& rng, int max_nodes,
                                const char* what) {
  SimplexEngine warm(p);
  const int n = p.num_variables();
  std::vector<double> lo(static_cast<std::size_t>(n));
  std::vector<double> up(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    lo[static_cast<std::size_t>(j)] = p.col_lo(j);
    up[static_cast<std::size_t>(j)] = p.col_up(j);
  }
  struct Change {
    int var;
    double lo, up;  // bounds to restore on backtrack
    double other_lo, other_up;  // the sibling branch, once
    bool sibling_done;
  };
  std::vector<Change> path;
  Solution s = warm.solve_from_scratch();
  int checked = 0;
  for (int node = 0; node < max_nodes; ++node) {
    int branch = -1;
    if (s.status == SolveStatus::kOptimal) {
      for (int j = 0; j < n && branch < 0; ++j) {
        const double v = s.x[static_cast<std::size_t>(j)];
        if (p.col_lo(j) == 0.0 && p.col_up(j) == 1.0 && v > 1e-6 &&
            v < 1.0 - 1e-6 && rng.next_bernoulli(0.5)) {
          branch = j;
        }
      }
    }
    if (branch >= 0) {
      const auto b = static_cast<std::size_t>(branch);
      const bool down = rng.next_bernoulli(0.5);
      path.push_back({branch, lo[b], up[b], down ? 1.0 : 0.0,
                      down ? 1.0 : 0.0, false});
      lo[b] = up[b] = down ? 0.0 : 1.0;
      warm.set_variable_bounds(branch, lo[b], up[b]);
    } else {
      // Leaf: backtrack to the deepest change with an unexplored sibling.
      while (!path.empty() && path.back().sibling_done) {
        const Change c = path.back();
        path.pop_back();
        lo[static_cast<std::size_t>(c.var)] = c.lo;
        up[static_cast<std::size_t>(c.var)] = c.up;
        warm.set_variable_bounds(c.var, c.lo, c.up);
      }
      if (path.empty()) break;
      Change& c = path.back();
      c.sibling_done = true;
      lo[static_cast<std::size_t>(c.var)] = c.other_lo;
      up[static_cast<std::size_t>(c.var)] = c.other_up;
      warm.set_variable_bounds(c.var, c.other_lo, c.other_up);
    }
    s = warm.reoptimize();
    double slack = 0.0;
    const Solution cs = scratch_solve(p, lo, up, slack);
    if (s.status == SolveStatus::kInfeasible ||
        cs.status == SolveStatus::kInfeasible) {
      EXPECT_EQ(s.status, cs.status) << what << " node " << node;
    }
    if (s.status != SolveStatus::kOptimal ||
        cs.status != SolveStatus::kOptimal) {
      continue;
    }
    slack += warm.bound_slack();
    EXPECT_NEAR(s.objective, cs.objective,
                1e-6 * (1.0 + std::abs(cs.objective)) + slack)
        << what << " node " << node;
    ++checked;
  }
  return checked;
}

TEST(WarmReoptimize, MatchesScratchOnIlpArRelaxation) {
  // The ILP-AR encoding of EPS g2: one of these dives reaches a dual
  // optimum that bound flips left dual infeasible (g1's root optimum
  // leaves too little to branch on).
  eps::EpsSpec spec;
  spec.num_generators = 2;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);
  core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
  core::IlpArOptions options;
  options.target_failure = 1e-3;
  core::encode_ilp_ar(ilp, options);
  const Problem p = ilp.model().to_lp();
  int checked = 0;
  for (int seq = 0; seq < 8; ++seq) {
    Rng rng(2000 + 17 * static_cast<std::uint64_t>(seq) + 1);
    const std::string what = "dive " + std::to_string(seq);
    checked += expect_warm_matches_scratch(p, rng, 40, what.c_str());
  }
  EXPECT_GT(checked, 100);
}

}  // namespace
}  // namespace archex::lp
