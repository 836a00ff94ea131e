// archex/lp/basis_lu.hpp
//
// Sparse basis factorization for the revised simplex: an LU decomposition
// of the basis matrix with Markowitz-style pivot selection (fill-in
// control), refreshed by a product-form eta file between refactorizations.
//
// Synthesis LPs (flow/reach encodings, Boolean linearizations) have a
// handful of nonzeros per row, so the basis factors stay extremely sparse;
// keeping B^{-1} as LU factors plus eta vectors makes every FTRAN/BTRAN
// cost O(factor nonzeros) instead of the O(m^2) dense sweeps of the
// explicit-inverse representation (which survives as the differential-
// testing oracle behind SimplexOptions::dense_basis).
//
// Index conventions match the engine's dense path:
//  * FTRAN solves B w = a; the input is row-indexed, the output is indexed
//    by basis position (the column of B holding each basic variable);
//  * BTRAN solves B' y = c; the input is basis-position-indexed, the
//    output is row-indexed (dual values).
//
// Nothing here allocates once the buffers have grown to the basis size:
// the factors and the eta file are flat arrays, the elimination workspace
// persists across factorize() calls, and FTRAN/BTRAN write into vectors
// the caller owns (DESIGN.md §4c).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace archex::lp {

/// One sparse column of the basis matrix: (row, coefficient) pairs.
using SparseColumn = std::vector<std::pair<int, double>>;

/// LU factors of one basis snapshot plus the eta file accumulated since.
class BasisFactor {
 public:
  /// Factorize the m x m matrix, m = basis.size(), whose k-th column is
  /// `columns[basis[k]]` (the engine hands over its column store and basis
  /// heading; nothing is copied). Clears the eta file. Returns false when
  /// the matrix is numerically singular (no acceptable pivot found for some
  /// elimination step).
  [[nodiscard]] bool factorize(const std::vector<SparseColumn>& columns,
                               const std::vector<int>& basis);

  [[nodiscard]] bool valid() const { return valid_; }

  /// Solve B w = b where B is the factored basis updated by the eta file.
  /// `b` is row-indexed and is consumed as workspace; `w` receives the
  /// basis-position-indexed solution. Zero regions of the right-hand side
  /// are skipped (the hyper-sparsity fast path: unit and near-unit columns
  /// touch only a few factor entries).
  void ftran(std::vector<double>& b, std::vector<double>& w) const;

  /// Solve B' y = c. `c` is basis-position-indexed and is consumed as
  /// workspace; `y` receives the row-indexed solution.
  void btran(std::vector<double>& c, std::vector<double>& y) const;

  /// Record a basis change: the column at basis position `pivot_pos` was
  /// replaced by a column whose FTRAN image is `w` (basis-position-indexed,
  /// exactly what the simplex pivot already computed). Appends one eta
  /// vector; O(m).
  void push_eta(int pivot_pos, const std::vector<double>& w);

  // ---- refactorization-policy inputs ---------------------------------------

  /// Number of eta vectors accumulated since the last factorize().
  [[nodiscard]] int eta_count() const {
    return static_cast<int>(eta_pos_.size());
  }
  /// Total nonzeros across the eta file.
  [[nodiscard]] std::size_t eta_nonzeros() const { return eta_nonzeros_; }
  /// Nonzeros in the L and U factors (fill-in included).
  [[nodiscard]] std::size_t lu_nonzeros() const { return lu_nonzeros_; }

 private:
  using Entries = std::vector<std::pair<int, double>>;

  // Candidate order of the Markowitz selection: active columns filed in
  // count buckets, each a bitset over column indices (DESIGN.md §4c).
  void bucket_insert(int column);
  void bucket_erase(int column);
  /// The up-to-`max` active columns with the lowest (count, index) keys,
  /// in ascending key order. Returns how many were written to `out`.
  int lowest_columns(int* out, int max);
  void adjust_count(int column, int delta);
  /// The elimination loop of factorize(); false when the basis is singular.
  [[nodiscard]] bool eliminate();

  int m_ = 0;
  bool valid_ = false;

  // Factors in elimination order: at step k, row perm_row_[k] and basis
  // position perm_col_[k] were pivotal with diagonal diag_[k]. L column k
  // is l_[l_start_[k] .. l_start_[k+1]): multipliers (original row, m) of
  // the Gauss elimination at step k. U row k is u_[u_start_[k] ..
  // u_start_[k+1]): the reduced pivot row's off-diagonal entries (basis
  // position, value), all pivoted at later steps.
  std::vector<int> perm_row_, perm_col_;
  std::vector<double> diag_;
  std::vector<std::size_t> l_start_, u_start_;
  Entries l_, u_;
  std::size_t lu_nonzeros_ = 0;

  // Eta file, oldest first: eta e replaced basis position eta_pos_[e]
  // (pivot eta_pivot_[e]); its off-pivot nonzeros are
  // eta_entries_[eta_start_[e] .. eta_start_[e+1]).
  std::vector<int> eta_pos_;
  std::vector<double> eta_pivot_;
  std::vector<std::size_t> eta_start_;
  Entries eta_entries_;
  std::size_t eta_nonzeros_ = 0;

  // Elimination workspace, kept across factorize() calls so its capacity
  // is reused. rows_ holds the active submatrix by row; col_rows_ lists
  // candidate rows per column (lazily maintained: stale entries are
  // validated against the row on use); col_count_ is exact.
  std::vector<Entries> rows_;
  std::vector<std::vector<int>> col_rows_;
  std::vector<int> col_count_;
  std::vector<char> row_active_, col_active_;
  // bucket_bits_[b * bucket_words_ + c / 64] holds bit c % 64 while active
  // column c has count b; bucket_size_[b] counts them. Both read all-zero
  // between factorizations, so no call pays to clear them. Every bucket
  // below min_bucket_, except the zero bucket, is empty.
  std::vector<std::uint64_t> bucket_bits_;
  std::vector<int> bucket_size_;
  std::size_t bucket_words_ = 0;
  int min_bucket_ = 1;
};

}  // namespace archex::lp
