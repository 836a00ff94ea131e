// Sparse LU factorization of the simplex basis with Markowitz pivoting,
// plus the product-form eta file applied on top between refactorizations.
// See basis_lu.hpp for the index conventions.
#include "lp/basis_lu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "support/check.hpp"

namespace archex::lp {

namespace {

/// Relative pivot threshold: a candidate must reach this fraction of the
/// largest magnitude in its column, or it is rejected for stability even
/// when its Markowitz count is minimal.
constexpr double kPivotThreshold = 0.1;
/// Entries whose magnitude falls below this during elimination are dropped
/// (exact-cancellation cleanup; well under the engine's 1e-9 tolerances).
constexpr double kDropTolerance = 1e-14;
/// A column whose largest magnitude is below this is treated as singular,
/// matching the dense path's refactorization threshold.
constexpr double kSingularTolerance = 1e-11;
/// How many of the sparsest active columns are examined per elimination
/// step. A small window keeps selection near-linear while retaining the
/// fill-in control of full Markowitz search on these matrices.
constexpr int kCandidateColumns = 4;

[[nodiscard]] std::size_t at(int i) { return static_cast<std::size_t>(i); }

}  // namespace

// ---- candidate buckets -------------------------------------------------------
//
// The selection examines the kCandidateColumns active columns with the
// fewest active nonzeros, ties to the lowest index, in that order: the
// lowest (count, index) keys. Walking the count buckets upward and each
// bucket's bitset from bit 0 visits active columns in exactly that order,
// so the candidates are the ones a full ascending scan would pick.

void BasisFactor::bucket_insert(int column) {
  const int b = col_count_[at(column)];
  if (at(b) >= bucket_size_.size()) {
    bucket_size_.resize(at(b) + 1, 0);
    bucket_bits_.resize((at(b) + 1) * bucket_words_, 0);
  }
  bucket_bits_[at(b) * bucket_words_ + at(column) / 64] |=
      std::uint64_t{1} << (at(column) % 64);
  ++bucket_size_[at(b)];
  if (b > 0 && b < min_bucket_) min_bucket_ = b;
}

void BasisFactor::bucket_erase(int column) {
  const int b = col_count_[at(column)];
  bucket_bits_[at(b) * bucket_words_ + at(column) / 64] &=
      ~(std::uint64_t{1} << (at(column) % 64));
  --bucket_size_[at(b)];
}

int BasisFactor::lowest_columns(int* out, int max) {
  int n = 0;
  for (int b = min_bucket_; n < max && at(b) < bucket_size_.size(); ++b) {
    int left = bucket_size_[at(b)];
    if (left == 0) {
      if (b == min_bucket_) ++min_bucket_;
      continue;
    }
    const std::uint64_t* words = &bucket_bits_[at(b) * bucket_words_];
    for (std::size_t w = 0; left > 0 && n < max; ++w) {
      for (std::uint64_t bits = words[w]; bits != 0 && n < max;
           bits &= bits - 1) {
        out[n++] = static_cast<int>(w * 64) + std::countr_zero(bits);
        --left;
      }
    }
  }
  return n;
}

void BasisFactor::adjust_count(int column, int delta) {
  if (!col_active_[at(column)]) {
    col_count_[at(column)] += delta;
    return;
  }
  bucket_erase(column);
  col_count_[at(column)] += delta;
  bucket_insert(column);
}

// ---- factorization ----------------------------------------------------------

bool BasisFactor::factorize(const std::vector<SparseColumn>& columns,
                            const std::vector<int>& basis) {
  const int m = static_cast<int>(basis.size());
  const auto mm = static_cast<std::size_t>(m);
  m_ = m;
  valid_ = false;
  perm_row_.assign(mm, -1);
  perm_col_.assign(mm, -1);
  diag_.assign(mm, 0.0);
  l_start_.assign(1, 0);
  u_start_.assign(1, 0);
  l_.clear();
  u_.clear();
  eta_pos_.clear();
  eta_pivot_.clear();
  eta_start_.assign(1, 0);
  eta_entries_.clear();
  eta_nonzeros_ = 0;
  lu_nonzeros_ = mm;  // diagonals
  if (m == 0) {
    valid_ = true;
    return true;
  }

  // Active submatrix. The outer workspace vectors only grow, so the inner
  // ones keep their capacity from one factorization to the next.
  if (rows_.size() < mm) rows_.resize(mm);
  if (col_rows_.size() < mm) col_rows_.resize(mm);
  for (std::size_t i = 0; i < mm; ++i) {
    rows_[i].clear();
    col_rows_[i].clear();
  }
  col_count_.assign(mm, 0);
  row_active_.assign(mm, 1);
  col_active_.assign(mm, 1);
  for (int c = 0; c < m; ++c) {
    const int source = basis[at(c)];
    ARCHEX_REQUIRE(source >= 0 && at(source) < columns.size(),
                   "basis heading references an unknown column");
    for (const auto& [r, v] : columns[at(source)]) {
      ARCHEX_REQUIRE(r >= 0 && r < m, "basis column row index out of range");
      if (v == 0.0) continue;
      rows_[at(r)].push_back({c, v});
      col_rows_[at(c)].push_back(r);
      ++col_count_[at(c)];
    }
  }
  const std::size_t words = (mm + 63) / 64;
  if (words != bucket_words_ || bucket_size_.empty()) {
    bucket_words_ = words;
    bucket_size_.assign(1, 0);
    bucket_bits_.assign(words, 0);
  }
  min_bucket_ = 1;
  for (int c = 0; c < m; ++c) bucket_insert(c);

  valid_ = eliminate();
  if (!valid_) {
    // Leave the buckets empty for the next call.
    for (int c = 0; c < m; ++c) {
      if (col_active_[at(c)]) bucket_erase(c);
    }
  }
  return valid_;
}

bool BasisFactor::eliminate() {
  const auto find_in_row = [&](int r, int c) -> double* {
    for (auto& e : rows_[at(r)]) {
      if (e.first == c) return &e.second;
    }
    return nullptr;
  };
  const auto remove_from_row = [&](int r, int c) {
    auto& row = rows_[at(r)];
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].first == c) {
        row[i] = row.back();
        row.pop_back();
        return;
      }
    }
  };

  for (int step = 0; step < m_; ++step) {
    // ---- Markowitz pivot selection over the sparsest few columns --------
    // An active column without active nonzeros makes the matrix singular.
    if (bucket_size_[0] > 0) return false;
    int cand[kCandidateColumns];
    const int cand_n = lowest_columns(cand, kCandidateColumns);
    if (cand_n == 0) return false;

    int best_row = -1, best_col = -1;
    double best_val = 0.0;
    long best_score = 0;
    const auto consider = [&](int r, int c, double v) {
      const long score = (static_cast<long>(rows_[at(r)].size()) - 1) *
                         (static_cast<long>(col_count_[at(c)]) - 1);
      if (best_row < 0 || score < best_score ||
          (score == best_score && std::abs(v) > std::abs(best_val))) {
        best_row = r;
        best_col = c;
        best_val = v;
        best_score = score;
      }
    };
    for (int ci = 0; ci < cand_n; ++ci) {
      const int c = cand[ci];
      if (col_count_[at(c)] == 1) {
        // A singleton's one active entry is its own magnitude ceiling: the
        // two passes below would visit just that entry.
        for (const int r : col_rows_[at(c)]) {
          if (!row_active_[at(r)]) continue;
          if (const double* v = find_in_row(r, c)) {
            if (std::abs(*v) >= kSingularTolerance) consider(r, c, *v);
            break;
          }
        }
        continue;
      }
      // Validate the column's row list and find its magnitude ceiling.
      double col_max = 0.0;
      for (const int r : col_rows_[at(c)]) {
        if (!row_active_[at(r)]) continue;
        if (const double* v = find_in_row(r, c)) {
          col_max = std::max(col_max, std::abs(*v));
        }
      }
      if (col_max < kSingularTolerance) continue;
      for (const int r : col_rows_[at(c)]) {
        if (!row_active_[at(r)]) continue;
        const double* v = find_in_row(r, c);
        if (v == nullptr || std::abs(*v) < kPivotThreshold * col_max) continue;
        consider(r, c, *v);
      }
    }
    if (best_row < 0) return false;

    const auto ks = static_cast<std::size_t>(step);
    perm_row_[ks] = best_row;
    perm_col_[ks] = best_col;
    diag_[ks] = best_val;
    bucket_erase(best_col);
    col_active_[at(best_col)] = 0;

    // ---- record the reduced pivot row as a U row ------------------------
    auto& pivot_row = rows_[at(best_row)];
    const std::size_t u_begin = u_.size();
    for (const auto& [c, v] : pivot_row) {
      if (c == best_col) continue;
      u_.push_back({c, v});
      adjust_count(c, -1);  // row leaves the active set
    }
    --col_count_[at(best_col)];
    const std::size_t u_end = u_.size();
    u_start_.push_back(u_end);
    lu_nonzeros_ += u_end - u_begin;

    // ---- eliminate the pivot column from the remaining rows -------------
    const std::size_t l_begin = l_.size();
    for (const int r : col_rows_[at(best_col)]) {
      if (r == best_row || !row_active_[at(r)]) continue;
      const double* vp = find_in_row(r, best_col);
      if (vp == nullptr) continue;  // stale candidate
      const double mult = *vp / best_val;
      l_.push_back({r, mult});
      remove_from_row(r, best_col);
      --col_count_[at(best_col)];
      if (mult == 0.0) continue;
      for (std::size_t e = u_begin; e < u_end; ++e) {
        const auto [c, v] = u_[e];
        if (double* dst = find_in_row(r, c)) {
          *dst -= mult * v;
          if (std::abs(*dst) < kDropTolerance) {
            remove_from_row(r, c);
            adjust_count(c, -1);
          }
        } else {
          const double fill = -mult * v;
          if (std::abs(fill) < kDropTolerance) continue;
          rows_[at(r)].push_back({c, fill});
          col_rows_[at(c)].push_back(r);
          adjust_count(c, +1);
        }
      }
    }
    l_start_.push_back(l_.size());
    lu_nonzeros_ += l_.size() - l_begin;

    row_active_[at(best_row)] = 0;
    pivot_row.clear();
  }

  return true;
}

// ---- solves -----------------------------------------------------------------

void BasisFactor::ftran(std::vector<double>& b, std::vector<double>& w) const {
  ARCHEX_ASSERT(valid_, "ftran on an unfactorized basis");
  // L solve in place, skipping steps whose pivot entry is zero (hyper-
  // sparse path).
  for (int k = 0; k < m_; ++k) {
    const double bp = b[at(perm_row_[at(k)])];
    if (bp == 0.0) continue;
    for (std::size_t e = l_start_[at(k)]; e < l_start_[at(k) + 1]; ++e) {
      b[at(l_[e].first)] -= l_[e].second * bp;
    }
  }
  // U back-substitution into basis-position space.
  w.assign(at(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    const auto ks = static_cast<std::size_t>(k);
    double v = b[at(perm_row_[ks])];
    for (std::size_t e = u_start_[ks]; e < u_start_[ks + 1]; ++e) {
      v -= u_[e].second * w[at(u_[e].first)];
    }
    w[at(perm_col_[ks])] = v / diag_[ks];
  }
  // Eta file, oldest first: w <- E_k^{-1} w.
  for (std::size_t k = 0; k < eta_pos_.size(); ++k) {
    double wp = w[at(eta_pos_[k])];
    if (wp == 0.0) continue;  // E^{-1} fixes vectors with a zero pivot entry
    wp /= eta_pivot_[k];
    for (std::size_t e = eta_start_[k]; e < eta_start_[k + 1]; ++e) {
      w[at(eta_entries_[e].first)] -= eta_entries_[e].second * wp;
    }
    w[at(eta_pos_[k])] = wp;
  }
}

void BasisFactor::btran(std::vector<double>& c, std::vector<double>& y) const {
  ARCHEX_ASSERT(valid_, "btran on an unfactorized basis");
  // Eta transposes, newest first: c <- E_k^{-T} c.
  for (std::size_t k = eta_pos_.size(); k-- > 0;) {
    double s = c[at(eta_pos_[k])];
    for (std::size_t e = eta_start_[k]; e < eta_start_[k + 1]; ++e) {
      s -= eta_entries_[e].second * c[at(eta_entries_[e].first)];
    }
    c[at(eta_pos_[k])] = s / eta_pivot_[k];
  }
  // U' forward solve (scatter), step order. The step-k result lands in
  // c[perm_col_[k]]: no later step reads or writes that position.
  for (int k = 0; k < m_; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    const double wk = c[at(perm_col_[ks])] / diag_[ks];
    c[at(perm_col_[ks])] = wk;
    if (wk == 0.0) continue;
    for (std::size_t e = u_start_[ks]; e < u_start_[ks + 1]; ++e) {
      c[at(u_[e].first)] -= u_[e].second * wk;
    }
  }
  // L' backward solve into row space.
  y.assign(at(m_), 0.0);
  for (int k = m_ - 1; k >= 0; --k) {
    const auto ks = static_cast<std::size_t>(k);
    double v = c[at(perm_col_[ks])];
    for (std::size_t e = l_start_[ks]; e < l_start_[ks + 1]; ++e) {
      v -= l_[e].second * y[at(l_[e].first)];
    }
    y[at(perm_row_[ks])] = v;
  }
}

void BasisFactor::push_eta(int pivot_pos, const std::vector<double>& w) {
  ARCHEX_ASSERT(pivot_pos >= 0 && pivot_pos < m_, "eta pivot out of range");
  const double pivot_value = w[at(pivot_pos)];
  ARCHEX_ASSERT(std::abs(pivot_value) > 1e-12, "degenerate eta pivot");
  const std::size_t begin = eta_entries_.size();
  for (int r = 0; r < m_; ++r) {
    if (r == pivot_pos) continue;
    const double v = w[at(r)];
    if (v != 0.0) eta_entries_.push_back({r, v});
  }
  eta_pos_.push_back(pivot_pos);
  eta_pivot_.push_back(pivot_value);
  eta_start_.push_back(eta_entries_.size());
  eta_nonzeros_ += eta_entries_.size() - begin + 1;
}

}  // namespace archex::lp
