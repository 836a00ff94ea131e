// Persistent bounded-variable simplex engine: two-phase primal for scratch
// solves plus a dual-simplex re-optimizer for warm starts after bound
// changes. See engine.hpp for the contract and simplex.cpp for the thin
// lp::solve() wrapper.
//
// The basis lives in one of two representations, selected by
// SimplexOptions::dense_basis:
//  * sparse (default): LU factors with Markowitz pivoting plus a
//    product-form eta file (basis_lu.hpp). FTRAN/BTRAN are sparse
//    triangular solves; a pivot appends one eta vector; refactorization is
//    triggered by eta-file growth, numeric drift, or the periodic pivot
//    schedule. Pricing uses a candidate-list partial scan and the row-wise
//    (CSR) matrix view keeps the dual ratio test and Devex updates
//    proportional to the nonzeros the pivot actually touches.
//  * dense (oracle): the original explicit m x m basis inverse with O(m^2)
//    product-form updates and full-scan pricing, kept bit-for-bit as the
//    slow reference the differential tests compare against.
//
// The tolerances and the refactorization schedule are fixed constants (top
// of the detail namespace); SimplexOptions carries only the settings the
// differential and stress tests vary.
#include "lp/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "lp/basis_lu.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace archex::lp {

namespace detail {

namespace {
enum class VarState : unsigned char { kBasic, kAtLower, kAtUpper, kFree };

/// Feasibility / optimality tolerance.
constexpr double kTol = 1e-9;
/// Rebuild the basis representation from scratch every this many pivots:
/// drift control only, kept rare (on the sparse path the eta-growth bounds
/// refactorize long before; the dense oracle's update and refactorization
/// cost O(m^2) and O(m^3)).
constexpr int kRefactorEvery = 4096;
/// Recompute basic values from the nonbasic assignment this often, to bound
/// error accumulation between refactorizations.
constexpr int kRecomputeEvery = 256;
/// Consecutive non-improving pivots before switching to Bland's
/// anti-cycling rule.
constexpr int kBlandAfter = 256;
/// Sparse basis: refactorize when the eta-file nonzeros exceed this
/// multiple of the LU factor nonzeros plus m (growth/fill control).
constexpr double kEtaGrowth = 2.0;
/// Refactorize when periodically recomputing the basic values moves one of
/// them by more than this (numeric-drift trigger).
constexpr double kDriftTol = 1e-6;
}  // namespace

class EngineImpl {
 public:
  EngineImpl(const Problem& problem, const SimplexOptions& options)
      : opt_(options), use_dense_(options.dense_basis) {
    n_ = problem.num_variables();
    m_ = problem.num_constraints();
    snapshot(problem);
    // Pivot cap across both phases, scaled with the problem size.
    max_iter_ = 4000 + 60L * (static_cast<long>(n_) + m_);
  }

  void set_variable_bounds(int var, double lo, double up) {
    ARCHEX_REQUIRE(var >= 0 && var < n_, "variable out of range");
    ARCHEX_REQUIRE(lo <= up, "variable bounds must satisfy lo <= up");
    cur_lo_[idx(var)] = lo;
    cur_up_[idx(var)] = up;
  }

  [[nodiscard]] double col_lo(int var) const {
    ARCHEX_REQUIRE(var >= 0 && var < n_, "variable out of range");
    return cur_lo_[idx(var)];
  }

  [[nodiscard]] double col_up(int var) const {
    ARCHEX_REQUIRE(var >= 0 && var < n_, "variable out of range");
    return cur_up_[idx(var)];
  }

  [[nodiscard]] int num_rows() const { return m_; }
  [[nodiscard]] int num_structural() const { return n_; }

  [[nodiscard]] double column_lower(int j) const {
    ARCHEX_REQUIRE(basis_valid_, "no valid basis");
    ARCHEX_REQUIRE(j >= 0 && j < n_ + m_, "column out of range");
    return lo_[idx(j)];
  }

  [[nodiscard]] double column_upper(int j) const {
    ARCHEX_REQUIRE(basis_valid_, "no valid basis");
    ARCHEX_REQUIRE(j >= 0 && j < n_ + m_, "column out of range");
    return up_[idx(j)];
  }

  [[nodiscard]] bool reduced_costs(std::vector<double>& d) {
    if (!basis_valid_) return false;
    const int nm = n_ + m_;
    // Duals from the true costs: the basis may have been selected under the
    // anti-degeneracy perturbation, but reduced-cost fixing needs bounds on
    // the *actual* objective, so the perturbation is left out here.
    std::vector<double>& y = rho_;
    if (use_dense_) {
      y.assign(static_cast<std::size_t>(m_), 0.0);
      for (int i = 0; i < m_; ++i) {
        const int b = basis_[static_cast<std::size_t>(i)];
        const double cb = is_artificial_[idx(b)] ? 0.0 : cost_[idx(b)];
        if (cb == 0.0) continue;
        for (int r = 0; r < m_; ++r) {
          y[static_cast<std::size_t>(r)] += cb * binv(i, r);
        }
      }
    } else {
      work_.resize(static_cast<std::size_t>(m_));
      for (int i = 0; i < m_; ++i) {
        const int b = basis_[static_cast<std::size_t>(i)];
        work_[static_cast<std::size_t>(i)] =
            is_artificial_[idx(b)] ? 0.0 : cost_[idx(b)];
      }
      factor_.btran(work_, y);
    }
    d.assign(static_cast<std::size_t>(nm), 0.0);
    for (int j = 0; j < nm; ++j) {
      if (state_[idx(j)] == VarState::kBasic) continue;
      double red = cost_[idx(j)];
      for (const auto& [row, coef] : cols_[idx(j)]) {
        red -= y[static_cast<std::size_t>(row)] * coef;
      }
      d[idx(j)] = red;
    }
    return true;
  }

  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    have_deadline_ = true;
  }

  void clear_deadline() { have_deadline_ = false; }

  [[nodiscard]] bool farkas_ray(std::vector<double>& z, double& margin) const {
    if (!farkas_valid_) return false;
    z = farkas_z_;
    margin = farkas_margin_;
    return true;
  }

  Solution solve_from_scratch() {
    ++stats_.scratch_solves;
    basis_valid_ = false;
    farkas_valid_ = false;
    iterations_ = 0;
    Solution out;
    if (m_ == 0) return solve_unconstrained();

    reset_working_state();
    initial_basis();
    const int num_artificials = install_artificials();
    // One factorization per scratch solve, of the final (diagonal) starting
    // basis: logicals patched with any artificials.
    if (!use_dense_ && !refactorize()) {
      out.status = SolveStatus::kNumericFailure;
      return out;
    }

    long phase1_pivots = 0;
    if (num_artificials > 0) {
      const SolveStatus s1 = primal_iterate(/*phase1=*/true);
      phase1_pivots = iterations_;
      if (s1 == SolveStatus::kIterationLimit ||
          s1 == SolveStatus::kTimeLimit ||
          s1 == SolveStatus::kNumericFailure) {
        out.status = s1;
        out.iterations = iterations_;
        return out;
      }
      if (phase1_objective() > 1e-7) {
        // Phase-1 optimality with a positive artificial sum: the phase-1
        // duals y1 = B^{-T} c1_B are the Farkas ray (sup over the boxes of
        // (y1'A)'x equals -phase1_objective < 0; see capture_farkas).
        capture_farkas(btran_cost(/*phase1=*/true), +1.0);
        out.status = SolveStatus::kInfeasible;
        out.iterations = iterations_;
        return out;
      }
      retire_artificials();
    }

    const SolveStatus s2 = primal_iterate(/*phase1=*/false);
    Solution result = finish(s2);
    result.phase1_iterations = phase1_pivots;
    return result;
  }

  Solution reoptimize() {
    if (!basis_valid_) return solve_from_scratch();
    farkas_valid_ = false;
    iterations_ = 0;

    // Publish the current structural bounds into the working arrays.
    std::copy(cur_lo_.begin(), cur_lo_.end(), lo_.begin());
    std::copy(cur_up_.begin(), cur_up_.end(), up_.begin());

    // Snap nonbasic variables onto their (possibly moved) bounds; basic
    // values are then recomputed. Dual feasibility is untouched by bound
    // changes, so the dual loop can restore primal feasibility directly.
    for (int j = 0; j < total_; ++j) {
      switch (state_[idx(j)]) {
        case VarState::kAtLower:
          if (lo_[idx(j)] == -kInf) {
            if (up_[idx(j)] != kInf) {
              state_[idx(j)] = VarState::kAtUpper;
              x_[idx(j)] = up_[idx(j)];
            } else {
              state_[idx(j)] = VarState::kFree;
              x_[idx(j)] = 0.0;
            }
          } else {
            x_[idx(j)] = lo_[idx(j)];
          }
          break;
        case VarState::kAtUpper:
          if (up_[idx(j)] == kInf) {
            if (lo_[idx(j)] != -kInf) {
              state_[idx(j)] = VarState::kAtLower;
              x_[idx(j)] = lo_[idx(j)];
            } else {
              state_[idx(j)] = VarState::kFree;
              x_[idx(j)] = 0.0;
            }
          } else {
            x_[idx(j)] = up_[idx(j)];
          }
          break;
        case VarState::kBasic:
        case VarState::kFree:
          break;
      }
    }
    // Restore dual feasibility. Bound relaxations (branch-and-bound
    // backtracking) can leave a nonbasic variable on a bound whose reduced-
    // cost sign is wrong; for boxed variables a bound flip fixes the sign,
    // otherwise only a scratch solve can.
    {
      const std::vector<double>& y = btran_cost(/*phase1=*/false);
      for (int j = 0; j < total_; ++j) {
        const VarState st = state_[idx(j)];
        if (st == VarState::kBasic) continue;
        if (lo_[idx(j)] == up_[idx(j)]) continue;  // fixed: any sign is fine
        double d = effective_cost(j, /*phase1=*/false);
        for (const auto& [row, coef] : cols_[idx(j)]) {
          d -= y[static_cast<std::size_t>(row)] * coef;
        }
        if (st == VarState::kAtLower && d < -kTol) {
          if (up_[idx(j)] == kInf) {
            ++stats_.restore_fallbacks;
            return solve_from_scratch();
          }
          state_[idx(j)] = VarState::kAtUpper;
          x_[idx(j)] = up_[idx(j)];
        } else if (st == VarState::kAtUpper && d > kTol) {
          if (lo_[idx(j)] == -kInf) {
            ++stats_.restore_fallbacks;
            return solve_from_scratch();
          }
          state_[idx(j)] = VarState::kAtLower;
          x_[idx(j)] = lo_[idx(j)];
        } else if (st == VarState::kFree && std::abs(d) > kTol) {
          ++stats_.restore_fallbacks;
          return solve_from_scratch();
        }
      }
    }
    recompute_basics();

    bool flipped = false;
    SolveStatus status = dual_iterate(flipped);
    if (status == SolveStatus::kOptimal && flipped && !dual_feasible()) {
      // A bound flip takes no dual step, so the dual loop can end primal
      // feasible at a basis whose reduced costs have the wrong sign: its
      // objective overstates the minimum. Finish with primal phase 2 from
      // this primal-feasible basis.
      status = primal_iterate(/*phase1=*/false);
    }
    if (status == SolveStatus::kOptimal ||
        status == SolveStatus::kInfeasible) {
      ++stats_.dual_reopts;
      return finish(status);
    }
    // A deadline abort must propagate, not trigger the scratch fallback
    // (which would keep pivoting past the limit).
    if (status == SolveStatus::kTimeLimit) return finish(status);
    // Stall, limit or numeric trouble: fall back to a clean solve.
    ++stats_.dual_fallbacks;
    if (status == SolveStatus::kIterationLimit) ++stats_.dual_limit;
    else ++stats_.dual_numeric;
    return solve_from_scratch();
  }

  [[nodiscard]] const SimplexEngine::Stats& stats() const { return stats_; }

 private:
  // Structural variables use the *current* (possibly overridden) bounds.
  void snapshot(const Problem& problem) {
    base_total_ = n_ + m_;
    base_cols_.assign(static_cast<std::size_t>(base_total_), {});
    base_lo_.assign(static_cast<std::size_t>(base_total_), 0.0);
    base_up_.assign(static_cast<std::size_t>(base_total_), 0.0);
    cost_.assign(static_cast<std::size_t>(base_total_), 0.0);
    for (int j = 0; j < n_; ++j) {
      base_lo_[idx(j)] = problem.col_lo(j);
      base_up_[idx(j)] = problem.col_up(j);
      cost_[idx(j)] = problem.objective_coef(j);
    }
    for (int i = 0; i < m_; ++i) {
      for (const Term& t : problem.row(i)) {
        if (t.coef != 0.0) base_cols_[idx(t.var)].push_back({i, t.coef});
      }
      const int s = n_ + i;
      base_cols_[idx(s)].push_back({i, -1.0});
      base_lo_[idx(s)] = problem.row_lo(i);
      base_up_[idx(s)] = problem.row_up(i);
    }
    cur_lo_.assign(base_lo_.begin(), base_lo_.begin() + n_);
    cur_up_.assign(base_up_.begin(), base_up_.begin() + n_);

    // Deterministic anti-degeneracy cost perturbation, activated lazily
    // when the pivot loop stalls (see iterate()). Scaled well below the
    // data so the perturbed optimum's true cost differs from the true
    // optimum by at most bound_slack().
    pert_.assign(static_cast<std::size_t>(base_total_), 0.0);
    pert_slack_ = 0.0;
    SplitMix64 mix(0x9e3779b97f4a7c15ULL);
    for (int j = 0; j < base_total_; ++j) {
      const double lo = base_lo_[idx(j)];
      const double up = base_up_[idx(j)];
      if (lo == -kInf || up == kInf) continue;  // keep unbounded vars exact
      const double u = 0.5 + static_cast<double>(mix.next() >> 11) * 0x1.0p-54;
      pert_[idx(j)] = 1e-9 * (1.0 + std::abs(cost_[idx(j)])) * u;
      pert_slack_ += pert_[idx(j)] * std::max(std::abs(lo), std::abs(up));
    }
  }

 public:
  /// Worst-case gap between the reported objective and the true LP optimum
  /// introduced by the active perturbation (0 when inactive).
  [[nodiscard]] double bound_slack() const {
    return perturbed_ ? pert_slack_ : 0.0;
  }

 private:

  void reset_working_state() {
    total_ = base_total_;
    cols_ = base_cols_;
    lo_ = base_lo_;
    up_ = base_up_;
    std::copy(cur_lo_.begin(), cur_lo_.end(), lo_.begin());
    std::copy(cur_up_.begin(), cur_up_.end(), up_.begin());
    cost_.resize(static_cast<std::size_t>(base_total_));
    is_artificial_.assign(static_cast<std::size_t>(base_total_), false);
    artificials_.clear();

    // Row-wise (CSR) view over all working columns; the sparse path's dual
    // ratio test and Devex updates walk rows a nonzero dual weight touches
    // instead of dotting every column.
    row_terms_.assign(static_cast<std::size_t>(m_), {});
    for (int j = 0; j < total_; ++j) {
      for (const auto& [row, coef] : cols_[idx(j)]) {
        row_terms_[static_cast<std::size_t>(row)].push_back({j, coef});
      }
    }
    alpha_.assign(static_cast<std::size_t>(total_), 0.0);
    touched_.clear();
  }

  Solution solve_unconstrained() {
    Solution out;
    out.x.assign(static_cast<std::size_t>(n_), 0.0);
    double obj = 0.0;
    for (int j = 0; j < n_; ++j) {
      const double c = cost_[idx(j)];
      const double lo = cur_lo_[idx(j)];
      const double up = cur_up_[idx(j)];
      double v = 0.0;
      if (c > 0.0) {
        if (lo == -kInf) { out.status = SolveStatus::kUnbounded; return out; }
        v = lo;
      } else if (c < 0.0) {
        if (up == kInf) { out.status = SolveStatus::kUnbounded; return out; }
        v = up;
      } else {
        if (lo != -kInf && 0.0 < lo) v = lo;
        else if (up != kInf && 0.0 > up) v = up;
      }
      out.x[idx(j)] = v;
      obj += c * v;
    }
    out.status = SolveStatus::kOptimal;
    out.objective = obj;
    return out;
  }

  /// All-logical starting basis: nonbasic structurals on their nearer
  /// bound, each logical basic at its row activity (B = -I, so x_s = A_i x).
  /// The sparse factors are built by the caller once artificials are in.
  void initial_basis() {
    x_.assign(static_cast<std::size_t>(total_), 0.0);
    state_.assign(static_cast<std::size_t>(total_), VarState::kAtLower);
    for (int j = 0; j < n_; ++j) {
      const double lo = lo_[idx(j)];
      const double up = up_[idx(j)];
      if (lo == -kInf && up == kInf) {
        state_[idx(j)] = VarState::kFree;
      } else if (lo == -kInf) {
        state_[idx(j)] = VarState::kAtUpper;
        x_[idx(j)] = up;
      } else if (up == kInf) {
        x_[idx(j)] = lo;
      } else {
        const bool lower = std::abs(lo) <= std::abs(up);
        state_[idx(j)] = lower ? VarState::kAtLower : VarState::kAtUpper;
        x_[idx(j)] = lower ? lo : up;
      }
    }
    basis_.resize(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      const int s = n_ + i;
      basis_[static_cast<std::size_t>(i)] = s;
      state_[idx(s)] = VarState::kBasic;
    }
    duals_valid_ = false;
    // Row activity in recompute_basics()'s summation order; B = -I makes its
    // solve an exact negation, so the values are the ones it would produce.
    std::vector<double>& activity = work_;
    activity.assign(static_cast<std::size_t>(m_), 0.0);
    for (int j = 0; j < n_; ++j) {
      const double v = x_[idx(j)];
      if (v == 0.0) continue;
      for (const auto& [row, coef] : cols_[idx(j)]) {
        activity[static_cast<std::size_t>(row)] += coef * v;
      }
    }
    for (int i = 0; i < m_; ++i) {
      x_[idx(n_ + i)] = activity[static_cast<std::size_t>(i)];
    }
    if (use_dense_) {
      binv_.assign(
          static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_), 0.0);
      for (int i = 0; i < m_; ++i) binv(i, i) = -1.0;  // B = -I (all logicals)
    }
  }

  int install_artificials() {
    int added = 0;
    for (int i = 0; i < m_; ++i) {
      const int s = n_ + i;
      if (state_[idx(s)] != VarState::kBasic) continue;
      const double v = x_[idx(s)];
      const double lo = lo_[idx(s)];
      const double up = up_[idx(s)];
      double target = v;
      if (v < lo - kTol) target = lo;
      else if (v > up + kTol) target = up;
      else continue;

      const double alpha = (target > v) ? 1.0 : -1.0;
      const int t = total_;
      ++total_;
      cols_.push_back({{i, alpha}});
      row_terms_[static_cast<std::size_t>(i)].push_back({t, alpha});
      lo_.push_back(0.0);
      up_.push_back(kInf);
      cost_.push_back(0.0);
      x_.push_back((target - v) / alpha);
      state_.push_back(VarState::kBasic);
      is_artificial_.push_back(true);
      alpha_.push_back(0.0);

      state_[idx(s)] = (target == lo) ? VarState::kAtLower : VarState::kAtUpper;
      x_[idx(s)] = target;
      basis_[static_cast<std::size_t>(i)] = t;
      if (use_dense_) binv(i, i) = 1.0 / alpha;
      duals_valid_ = false;
      ++added;
      artificials_.push_back(t);
    }
    return added;
  }

  double phase1_objective() const {
    double total = 0.0;
    for (int t : artificials_) total += x_[idx(t)];
    return total;
  }

  void retire_artificials() {
    for (int t : artificials_) {
      lo_[idx(t)] = 0.0;
      up_[idx(t)] = 0.0;
      if (state_[idx(t)] != VarState::kBasic) {
        state_[idx(t)] = VarState::kAtLower;
      }
      if (x_[idx(t)] < 1e-9) x_[idx(t)] = 0.0;
    }
  }

  Solution finish(SolveStatus status) {
    Solution out;
    out.status = status;
    out.iterations = iterations_;
    stats_.total_pivots += iterations_;
    if (status == SolveStatus::kOptimal) {
      out.x.assign(x_.begin(), x_.begin() + n_);
      polish(out.x);
      double obj = 0.0;
      for (int j = 0; j < n_; ++j) obj += cost_[idx(j)] * out.x[idx(j)];
      out.objective = obj;
      basis_valid_ = true;
    } else {
      basis_valid_ = false;
    }
    return out;
  }

  /// True once the caller's deadline has passed. The call sites poll every
  /// 64 pivots: a clock read costs a fraction of a pivot, so the abort lands
  /// within a few dozen pivots of the deadline.
  [[nodiscard]] bool past_deadline() const {
    return have_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  // ---- primal simplex (two-phase) ------------------------------------------

  SolveStatus primal_iterate(bool phase1) {
    int since_refactor = 0;
    int stalled = 0;
    double last_obj = current_objective(phase1);
    // Fresh Devex reference framework per phase.
    devex_.assign(static_cast<std::size_t>(total_), 1.0);

    while (true) {
      if ((iterations_ & 63) == 0 && past_deadline()) {
        return SolveStatus::kTimeLimit;
      }
      if (iterations_ >= max_iter_) return SolveStatus::kIterationLimit;

      const bool bland = stalled >= kBlandAfter;
      int entering = -1;
      int dir = 0;
      if (!price(phase1, bland, entering, dir)) return SolveStatus::kOptimal;

      const std::vector<double>& w = ftran(entering);

      const double pivot_tol = 1e-8;
      double best_t = kInf;
      double best_pivot = 0.0;
      double leave_t = kInf;  // ratio of the chosen leaving candidate
      int leave = -1;
      bool leave_at_upper = false;
      for (int i = 0; i < m_; ++i) {
        const double v = dir * w[static_cast<std::size_t>(i)];
        const int b = basis_[static_cast<std::size_t>(i)];
        double t = kInf;
        bool hits_upper = false;
        if (v > pivot_tol) {
          if (lo_[idx(b)] == -kInf) continue;
          t = (x_[idx(b)] - lo_[idx(b)]) / v;
        } else if (v < -pivot_tol) {
          if (up_[idx(b)] == kInf) continue;
          t = (x_[idx(b)] - up_[idx(b)]) / v;
          hits_upper = true;
        } else {
          continue;
        }
        if (t < 0.0) t = 0.0;
        // Harris-style window: among candidates whose ratio is within a
        // small absolute band of the minimum, prefer the largest pivot
        // magnitude (numerical stability beats exactness by <= 1e-7 here).
        bool take = false;
        if (leave < 0 || t < best_t - 1e-7) {
          take = true;
        } else if (t <= best_t + 1e-7) {
          take = bland ? b < basis_[static_cast<std::size_t>(leave)]
                       : std::abs(v) > best_pivot;
        }
        if (take) {
          best_t = std::min(t, best_t);
          best_pivot = std::abs(v);
          leave = i;
          leave_at_upper = hits_upper;
          leave_t = t;
        }
      }

      const double range = up_[idx(entering)] - lo_[idx(entering)];
      const bool bound_flip = leave < 0 || range < leave_t;
      const double step = bound_flip ? range : leave_t;
      if (step == kInf) {
        return phase1 ? SolveStatus::kNumericFailure : SolveStatus::kUnbounded;
      }

      x_[idx(entering)] += dir * step;
      for (int i = 0; i < m_; ++i) {
        const int b = basis_[static_cast<std::size_t>(i)];
        x_[idx(b)] -= dir * w[static_cast<std::size_t>(i)] * step;
      }

      if (bound_flip) {
        state_[idx(entering)] =
            (dir > 0) ? VarState::kAtUpper : VarState::kAtLower;
        x_[idx(entering)] = (dir > 0) ? up_[idx(entering)] : lo_[idx(entering)];
      } else {
        ARCHEX_ASSERT(leave >= 0, "ratio test found no leaving variable");
        const int leaving = basis_[static_cast<std::size_t>(leave)];
        state_[idx(leaving)] =
            leave_at_upper ? VarState::kAtUpper : VarState::kAtLower;
        x_[idx(leaving)] =
            leave_at_upper ? up_[idx(leaving)] : lo_[idx(leaving)];
        devex_update(entering, leaving, leave,
                     w[static_cast<std::size_t>(leave)]);
        basis_[static_cast<std::size_t>(leave)] = entering;
        state_[idx(entering)] = VarState::kBasic;
        apply_basis_update(w, leave);
      }

      ++iterations_;
      if (!maintain_basis(since_refactor)) return SolveStatus::kNumericFailure;

      const double obj = current_objective(phase1);
      if (obj < last_obj - 1e-12) {
        stalled = 0;
        last_obj = obj;
      } else {
        ++stalled;
        // Degenerate stalling: switch on the cost perturbation well before
        // the (slow) Bland fallback would engage.
        if (!phase1 && !perturbed_ && stalled >= 64) {
          perturbed_ = true;
          duals_valid_ = false;  // phase-2 costs changed
        }
      }
    }
  }

  bool price(bool phase1, bool bland, int& entering, int& dir) {
    const std::vector<double>& y = btran_cost(phase1);
    entering = -1;
    dir = 0;
    double best_score = 0.0;

    const auto consider = [&](int j) {
      const VarState st = state_[idx(j)];
      if (st == VarState::kBasic) return false;
      if (lo_[idx(j)] == up_[idx(j)]) return false;
      double d = effective_cost(j, phase1);
      for (const auto& [row, coef] : cols_[idx(j)]) {
        d -= y[static_cast<std::size_t>(row)] * coef;
      }
      int cand_dir = 0;
      double violation = 0.0;
      if ((st == VarState::kAtLower || st == VarState::kFree) &&
          d < -kTol) {
        cand_dir = +1;
        violation = -d;
      } else if ((st == VarState::kAtUpper || st == VarState::kFree) &&
                 d > kTol) {
        cand_dir = -1;
        violation = d;
      }
      if (cand_dir == 0) return false;
      // Devex: maximize d^2 / weight rather than the raw violation.
      const double score = violation * violation / devex_[idx(j)];
      if (score > best_score && violation > kTol) {
        best_score = score;
        entering = j;
        dir = cand_dir;
      }
      return true;
    };

    if (bland) {
      // Bland's rule needs the lowest-index improving column: full
      // ascending scan, first hit wins.
      for (int j = 0; j < total_; ++j) {
        if (consider(j)) {
          entering = j;
          const VarState st = state_[idx(j)];
          double d = effective_cost(j, phase1);
          for (const auto& [row, coef] : cols_[idx(j)]) {
            d -= y[static_cast<std::size_t>(row)] * coef;
          }
          dir = (st == VarState::kAtUpper || (st == VarState::kFree && d > 0))
                    ? -1
                    : +1;
          return true;
        }
      }
      return false;
    }

    const bool partial = !use_dense_ && opt_.pricing_candidates > 0;
    if (!partial) {
      for (int j = 0; j < total_; ++j) consider(j);
      return entering >= 0;
    }

    // Candidate-list partial pricing: scan sections round-robin from the
    // last cursor, stopping once enough improving candidates were seen.
    // Only a full unfruitful sweep declares optimality, so the stopping
    // rule affects pivot order, never correctness.
    const int section = std::max(64, total_ / 8);  // columns per section
    int found = 0;
    int scanned = 0;
    int j = price_cursor_ >= total_ ? 0 : price_cursor_;
    while (scanned < total_) {
      for (int s = 0; s < section && scanned < total_; ++s, ++scanned) {
        if (consider(j)) ++found;
        if (++j >= total_) j = 0;
      }
      if (found >= opt_.pricing_candidates) break;
    }
    price_cursor_ = j;
    return entering >= 0;
  }

  /// Forrest–Goldfarb approximate Devex weight update after a basis change.
  /// `pivot` is the pivot element (the leaving row's entry of the FTRANed
  /// entering column). Called BEFORE the basis representation is updated,
  /// so basis_row(pivot_row) is still the pre-pivot rho = e_r B^{-1}.
  void devex_update(int entering, int leaving, int pivot_row, double pivot) {
    const double wq = devex_[idx(entering)];
    const double pivot_sq = pivot * pivot;
    if (wq / pivot_sq > 1e8) {
      // Reference framework exhausted: restart.
      devex_.assign(static_cast<std::size_t>(total_), 1.0);
      return;
    }
    const auto bump = [&](int j, double alpha) {
      if (state_[idx(j)] == VarState::kBasic || j == entering) return;
      if (lo_[idx(j)] == up_[idx(j)]) return;
      if (alpha == 0.0) return;
      const double cand = (alpha * alpha / pivot_sq) * wq;
      if (cand > devex_[idx(j)]) devex_[idx(j)] = cand;
    };
    if (use_dense_) {
      const double* rho = &binv(pivot_row, 0);
      for (int j = 0; j < total_; ++j) {
        if (state_[idx(j)] == VarState::kBasic || j == entering) continue;
        if (lo_[idx(j)] == up_[idx(j)]) continue;
        double alpha = 0.0;
        for (const auto& [row, coef] : cols_[idx(j)]) {
          alpha += rho[row] * coef;
        }
        bump(j, alpha);
      }
    } else {
      scatter_alpha(basis_row(pivot_row));
      for (const int j : touched_) bump(j, alpha_[idx(j)]);
      clear_alpha();
    }
    devex_[idx(leaving)] = std::max(wq / pivot_sq, 1.0);
  }

  // ---- dual simplex re-optimization -----------------------------------------

  /// True when no nonbasic column's reduced cost (under the costs the
  /// pivots use) has the sign that would let the objective improve.
  [[nodiscard]] bool dual_feasible() {
    const std::vector<double>& y = btran_cost(/*phase1=*/false);
    for (int j = 0; j < total_; ++j) {
      const VarState st = state_[idx(j)];
      if (st == VarState::kBasic) continue;
      if (lo_[idx(j)] == up_[idx(j)]) continue;  // fixed: any sign is fine
      double d = effective_cost(j, /*phase1=*/false);
      for (const auto& [row, coef] : cols_[idx(j)]) {
        d -= y[static_cast<std::size_t>(row)] * coef;
      }
      if ((st != VarState::kAtUpper && d < -kTol) ||
          (st != VarState::kAtLower && d > kTol)) {
        return false;
      }
    }
    return true;
  }

  /// Dual simplex from a dual-feasible basis. Sets `flipped` when a bound
  /// flip replaced a pivot (see reoptimize()).
  SolveStatus dual_iterate(bool& flipped) {
    int since_refactor = 0;
    const long dual_cap = 100 + m_ / 2;
    long local_iters = 0;

    // Early stall detection: degenerate flip cycles leave the total
    // infeasibility unchanged; bail out to a scratch solve quickly instead
    // of burning the full pivot budget.
    double best_infeasibility = kInf;
    int no_progress = 0;

    while (true) {
      if ((local_iters & 63) == 0 && past_deadline()) {
        return SolveStatus::kTimeLimit;
      }
      if (local_iters++ >= dual_cap) return SolveStatus::kIterationLimit;
      if (iterations_ >= max_iter_) return SolveStatus::kIterationLimit;
      {
        double total_v = 0.0;
        for (int i = 0; i < m_; ++i) {
          const int b = basis_[static_cast<std::size_t>(i)];
          const double v = x_[idx(b)];
          if (v < lo_[idx(b)]) total_v += lo_[idx(b)] - v;
          else if (v > up_[idx(b)]) total_v += v - up_[idx(b)];
        }
        if (total_v < best_infeasibility - 1e-9) {
          best_infeasibility = total_v;
          no_progress = 0;
        } else if (++no_progress >= 40) {
          return SolveStatus::kIterationLimit;
        }
      }

      // Leaving: the basic variable with the largest bound violation.
      int leave = -1;
      bool below = false;
      double worst = 1e-9;
      for (int i = 0; i < m_; ++i) {
        const int b = basis_[static_cast<std::size_t>(i)];
        const double v = x_[idx(b)];
        if (v < lo_[idx(b)] - 1e-9) {
          const double viol = lo_[idx(b)] - v;
          if (viol > worst) { worst = viol; leave = i; below = true; }
        } else if (v > up_[idx(b)] + 1e-9) {
          const double viol = v - up_[idx(b)];
          if (viol > worst) { worst = viol; leave = i; below = false; }
        }
      }
      if (leave < 0) return SolveStatus::kOptimal;

      // Entering: dual ratio test on row `leave` of Binv * A.
      const std::vector<double>& y = btran_cost(/*phase1=*/false);
      int entering = -1;
      double best_ratio = kInf;
      double best_alpha = 0.0;

      const auto consider = [&](int j, double alpha) {
        const VarState st = state_[idx(j)];
        if (st == VarState::kBasic) return;
        if (lo_[idx(j)] == up_[idx(j)]) return;
        if (std::abs(alpha) < 1e-9) return;
        // x_Br responds to Δx_j with slope -alpha. To fix a below-lower
        // violation we must increase x_Br: at-lower j (Δ>0) needs alpha<0,
        // at-upper j (Δ<0) needs alpha>0; mirrored for above-upper.
        const bool can_increase =
            st == VarState::kAtLower || st == VarState::kFree;
        const bool can_decrease =
            st == VarState::kAtUpper || st == VarState::kFree;
        bool eligible = false;
        if (below) {
          eligible =
              (can_increase && alpha < 0.0) || (can_decrease && alpha > 0.0);
        } else {
          eligible =
              (can_increase && alpha > 0.0) || (can_decrease && alpha < 0.0);
        }
        if (!eligible) return;
        double d = effective_cost(j, /*phase1=*/false);
        for (const auto& [row, coef] : cols_[idx(j)]) {
          d -= y[static_cast<std::size_t>(row)] * coef;
        }
        const double ratio = std::abs(d) / std::abs(alpha);
        // Same Harris-style window as the primal ratio test.
        if (ratio < best_ratio - 1e-7 ||
            (ratio < best_ratio + 1e-7 && std::abs(alpha) > best_alpha)) {
          best_ratio = std::min(ratio, best_ratio);
          best_alpha = std::abs(alpha);
          entering = j;
        }
      };

      if (use_dense_) {
        const double* rho = &binv(leave, 0);
        for (int j = 0; j < total_; ++j) {
          if (state_[idx(j)] == VarState::kBasic) continue;
          if (lo_[idx(j)] == up_[idx(j)]) continue;
          double alpha = 0.0;
          for (const auto& [row, coef] : cols_[idx(j)]) {
            alpha += rho[row] * coef;
          }
          consider(j, alpha);
        }
      } else {
        // Sparse: rho touches few rows; only columns intersecting those
        // rows can have alpha != 0, so walk the CSR lists instead of
        // dotting every column against rho.
        scatter_alpha(basis_row(leave));
        for (const int j : touched_) consider(j, alpha_[idx(j)]);
        clear_alpha();
      }
      if (entering < 0) {
        // Dual unbounded = primal infeasible. Row `leave` of B^{-1} (sign
        // flipped for a below-lower violation) is the Farkas ray: no
        // nonbasic column can move to repair the violated basic bound, so
        // the ray's box supremum stays short of feasibility by at least
        // the violation itself.
        capture_farkas(basis_row(leave), below ? -1.0 : +1.0);
        return SolveStatus::kInfeasible;
      }

      const std::vector<double>& w = ftran(entering);
      const double pivot = w[static_cast<std::size_t>(leave)];
      if (std::abs(pivot) < 1e-9) {
        if (!refactorize()) return SolveStatus::kNumericFailure;
        continue;  // retry with a fresh factorization
      }
      const int leaving = basis_[static_cast<std::size_t>(leave)];
      const double target = below ? lo_[idx(leaving)] : up_[idx(leaving)];
      const double delta = (x_[idx(leaving)] - target) / pivot;

      // Bounded-variable dual simplex needs bound flips: when fixing the
      // violation would push the entering variable past its *own* opposite
      // bound, flip it there instead (no basis change) and re-select. The
      // violation shrinks by |pivot| * range, so this makes progress.
      const double range = up_[idx(entering)] - lo_[idx(entering)];
      if (std::abs(delta) > range + 1e-12) {
        const double step = (delta > 0.0) ? range : -range;
        x_[idx(entering)] += step;
        for (int i = 0; i < m_; ++i) {
          const int b = basis_[static_cast<std::size_t>(i)];
          x_[idx(b)] -= w[static_cast<std::size_t>(i)] * step;
        }
        state_[idx(entering)] =
            (delta > 0.0) ? VarState::kAtUpper : VarState::kAtLower;
        x_[idx(entering)] =
            (delta > 0.0) ? up_[idx(entering)] : lo_[idx(entering)];
        flipped = true;
        ++iterations_;
        continue;
      }

      x_[idx(entering)] += delta;
      for (int i = 0; i < m_; ++i) {
        const int b = basis_[static_cast<std::size_t>(i)];
        x_[idx(b)] -= w[static_cast<std::size_t>(i)] * delta;
      }
      x_[idx(leaving)] = target;
      state_[idx(leaving)] = below ? VarState::kAtLower : VarState::kAtUpper;
      basis_[static_cast<std::size_t>(leave)] = entering;
      state_[idx(entering)] = VarState::kBasic;
      apply_basis_update(w, leave);

      ++iterations_;
      if (!maintain_basis(since_refactor)) return SolveStatus::kNumericFailure;
    }
  }

  /// Validate and store a Farkas certificate from a row dual ray `rho`:
  /// z_j = sign * rho'A_j over the real (structural + logical) columns.
  /// The certificate is held only when the box supremum of z'x is negative
  /// by a real margin; otherwise the ray is discarded as numeric noise.
  /// Artificial columns are excluded: a real solution always extends with
  /// every artificial at zero, so they contribute nothing to z'x = 0, and
  /// after retire_artificials() their boxes are pinned to [0, 0] anyway.
  void capture_farkas(const std::vector<double>& rho, double sign) {
    farkas_valid_ = false;
    const int nm = n_ + m_;
    farkas_z_.assign(static_cast<std::size_t>(nm), 0.0);
    double sup = 0.0;
    for (int j = 0; j < nm; ++j) {
      double a = 0.0;
      for (const auto& [row, coef] : cols_[idx(j)]) {
        a += rho[static_cast<std::size_t>(row)] * coef;
      }
      const double zj = sign * a;
      if (zj == 0.0) continue;
      const double bnd = zj > 0.0 ? up_[idx(j)] : lo_[idx(j)];
      if (bnd == kInf || bnd == -kInf) {
        // Basic and free columns carry only numeric noise here (their
        // reduced weight is zero in exact arithmetic); a real weight on an
        // infinite bound means the ray does not certify anything.
        if (std::abs(zj) <= 1e-9) continue;
        return;
      }
      farkas_z_[idx(j)] = zj;
      sup += zj * bnd;
    }
    if (sup >= -1e-9) return;
    farkas_margin_ = -sup;
    farkas_valid_ = true;
  }

  // ---- shared linear algebra -------------------------------------------------

  // The solves below write into engine-owned scratch and return a view of
  // it, valid until the next call of the same helper; no pivot allocates.

  /// FTRAN: w = B^{-1} a_column (basis-position-indexed), into w_.
  [[nodiscard]] const std::vector<double>& ftran(int column) {
    if (use_dense_) {
      w_.assign(static_cast<std::size_t>(m_), 0.0);
      for (const auto& [row, coef] : cols_[idx(column)]) {
        for (int i = 0; i < m_; ++i) {
          w_[static_cast<std::size_t>(i)] += binv(i, row) * coef;
        }
      }
      return w_;
    }
    work_.assign(static_cast<std::size_t>(m_), 0.0);
    for (const auto& [row, coef] : cols_[idx(column)]) {
      work_[static_cast<std::size_t>(row)] += coef;
    }
    factor_.ftran(work_, w_);
    return w_;
  }

  /// BTRAN of the basic cost vector: y = B^{-T} c_B (row-indexed duals),
  /// into y_. The result is reused until the basis heading, the basis
  /// representation or the costs change (duals_valid_), so bound flips and
  /// the dual-feasibility restore pay no BTRAN of their own.
  [[nodiscard]] const std::vector<double>& btran_cost(bool phase1) {
    if (duals_valid_ && duals_phase1_ == phase1) return y_;
    duals_valid_ = true;
    duals_phase1_ = phase1;
    if (use_dense_) {
      y_.assign(static_cast<std::size_t>(m_), 0.0);
      for (int i = 0; i < m_; ++i) {
        const double cb = effective_cost(basis_[static_cast<std::size_t>(i)],
                                         phase1);
        if (cb == 0.0) continue;
        for (int r = 0; r < m_; ++r) {
          y_[static_cast<std::size_t>(r)] += cb * binv(i, r);
        }
      }
      return y_;
    }
    work_.resize(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      work_[static_cast<std::size_t>(i)] =
          effective_cost(basis_[static_cast<std::size_t>(i)], phase1);
    }
    factor_.btran(work_, y_);
    return y_;
  }

  /// Row `r` of B^{-1} (row-indexed): rho with rho' A_j = alpha_j, into
  /// rho_.
  [[nodiscard]] const std::vector<double>& basis_row(int r) {
    if (use_dense_) {
      rho_.resize(static_cast<std::size_t>(m_));
      for (int c = 0; c < m_; ++c) {
        rho_[static_cast<std::size_t>(c)] = binv(r, c);
      }
      return rho_;
    }
    work_.assign(static_cast<std::size_t>(m_), 0.0);
    work_[static_cast<std::size_t>(r)] = 1.0;
    factor_.btran(work_, rho_);
    return rho_;
  }

  /// Scatter alpha_j = rho' A_j for every column with a nonzero result into
  /// alpha_ / touched_ via the CSR row lists (cost: nonzeros of the rows
  /// rho touches). Pair with clear_alpha().
  void scatter_alpha(const std::vector<double>& rho) {
    for (int r = 0; r < m_; ++r) {
      const double v = rho[static_cast<std::size_t>(r)];
      if (v == 0.0) continue;
      for (const auto& [j, coef] : row_terms_[static_cast<std::size_t>(r)]) {
        if (alpha_[idx(j)] == 0.0) touched_.push_back(j);
        alpha_[idx(j)] += v * coef;
      }
    }
  }

  void clear_alpha() {
    for (const int j : touched_) alpha_[idx(j)] = 0.0;
    touched_.clear();
  }

  [[nodiscard]] double effective_cost(int j, bool phase1) const {
    if (phase1) {
      if (!is_artificial_[idx(j)]) return 0.0;
      return 1.0;  // artificial sum; perturbing it buys nothing
    }
    double c = cost_[idx(j)];
    // pert_ covers the base columns only: phase-1 artificials (j >=
    // base_total_) are never perturbed.
    if (perturbed_ && j < base_total_) c += pert_[idx(j)];
    return c;
  }

  [[nodiscard]] double current_objective(bool phase1) const {
    if (phase1) return phase1_objective();
    double total = 0.0;
    for (int j = 0; j < total_; ++j) total += cost_[idx(j)] * x_[idx(j)];
    return total;
  }

  /// Fold one pivot into the basis representation: dense product-form
  /// update of the explicit inverse, or one eta vector on the sparse path.
  void apply_basis_update(const std::vector<double>& w, int pivot_row) {
    duals_valid_ = false;
    if (use_dense_) {
      const double pivot = w[static_cast<std::size_t>(pivot_row)];
      ARCHEX_ASSERT(std::abs(pivot) > 1e-12, "degenerate pivot element");
      double* prow = &binv(pivot_row, 0);
      for (int r = 0; r < m_; ++r) prow[r] /= pivot;
      for (int i = 0; i < m_; ++i) {
        if (i == pivot_row) continue;
        const double f = w[static_cast<std::size_t>(i)];
        if (f == 0.0) continue;
        double* irow = &binv(i, 0);
        for (int r = 0; r < m_; ++r) irow[r] -= f * prow[r];
      }
      return;
    }
    factor_.push_eta(pivot_row, w);
    ++stats_.eta_updates;
    stats_.max_eta_len =
        std::max(stats_.max_eta_len, static_cast<long>(factor_.eta_count()));
  }

  /// Post-pivot basis maintenance shared by the primal and dual loops:
  /// periodic refactorization, eta-file growth control, and the
  /// numeric-drift check piggybacked on the periodic basic-value recompute.
  [[nodiscard]] bool maintain_basis(int& since_refactor) {
    ++since_refactor;
    bool refactor = false;
    if (since_refactor >= kRefactorEvery) {
      refactor = true;
      ++stats_.refactor_periodic;
    } else if (!use_dense_) {
      if ((opt_.max_eta > 0 && factor_.eta_count() >= opt_.max_eta) ||
          factor_.eta_nonzeros() >
              kEtaGrowth *
                  (factor_.lu_nonzeros() + static_cast<std::size_t>(m_))) {
        refactor = true;
        ++stats_.refactor_eta;
      }
    }
    if (refactor) {
      if (!refactorize()) return false;
      since_refactor = 0;
      return true;
    }
    if (since_refactor % kRecomputeEvery == 0) {
      const double drift = recompute_basics();
      if (!use_dense_ && drift > kDriftTol) {
        ++stats_.refactor_drift;
        if (!refactorize()) return false;
        since_refactor = 0;
      }
    }
    return true;
  }

  bool refactorize() {
    ++stats_.factorizations;
    duals_valid_ = false;
    if (!use_dense_) {
      if (!factor_.factorize(cols_, basis_)) return false;
      recompute_basics();
      return true;
    }
    const auto mm = static_cast<std::size_t>(m_);
    std::vector<double> a(mm * mm, 0.0);
    for (int k = 0; k < m_; ++k) {
      for (const auto& [row, coef] :
           cols_[idx(basis_[static_cast<std::size_t>(k)])]) {
        a[static_cast<std::size_t>(row) * mm + static_cast<std::size_t>(k)] =
            coef;
      }
    }
    std::vector<double> inv(mm * mm, 0.0);
    for (std::size_t i = 0; i < mm; ++i) inv[i * mm + i] = 1.0;

    for (std::size_t col = 0; col < mm; ++col) {
      std::size_t piv = col;
      double best = std::abs(a[col * mm + col]);
      for (std::size_t r = col + 1; r < mm; ++r) {
        const double v = std::abs(a[r * mm + col]);
        if (v > best) { best = v; piv = r; }
      }
      if (best < 1e-11) return false;
      if (piv != col) {
        for (std::size_t c2 = 0; c2 < mm; ++c2) {
          std::swap(a[piv * mm + c2], a[col * mm + c2]);
          std::swap(inv[piv * mm + c2], inv[col * mm + c2]);
        }
      }
      const double d = a[col * mm + col];
      for (std::size_t c2 = 0; c2 < mm; ++c2) {
        a[col * mm + c2] /= d;
        inv[col * mm + c2] /= d;
      }
      for (std::size_t r = 0; r < mm; ++r) {
        if (r == col) continue;
        const double f = a[r * mm + col];
        if (f == 0.0) continue;
        for (std::size_t c2 = 0; c2 < mm; ++c2) {
          a[r * mm + c2] -= f * a[col * mm + c2];
          inv[r * mm + c2] -= f * inv[col * mm + c2];
        }
      }
    }
    binv_ = std::move(inv);
    recompute_basics();
    return true;
  }

  /// Recompute the basic values from the nonbasic assignment through the
  /// current basis representation. Returns the largest absolute correction
  /// applied — the numeric-drift signal the refactorization policy watches.
  double recompute_basics() {
    std::vector<double>& rhs = work_;
    rhs.assign(static_cast<std::size_t>(m_), 0.0);
    for (int j = 0; j < total_; ++j) {
      if (state_[idx(j)] == VarState::kBasic) continue;
      const double v = x_[idx(j)];
      if (v == 0.0) continue;
      for (const auto& [row, coef] : cols_[idx(j)]) {
        rhs[static_cast<std::size_t>(row)] += coef * v;
      }
    }
    double drift = 0.0;
    if (use_dense_) {
      for (int i = 0; i < m_; ++i) {
        double total = 0.0;
        for (int r = 0; r < m_; ++r) {
          total += binv(i, r) * rhs[static_cast<std::size_t>(r)];
        }
        const int b = basis_[static_cast<std::size_t>(i)];
        drift = std::max(drift, std::abs(x_[idx(b)] + total));
        x_[idx(b)] = -total;
      }
      return drift;
    }
    factor_.ftran(rhs, xb_);
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      const double nv = -xb_[static_cast<std::size_t>(i)];
      drift = std::max(drift, std::abs(x_[idx(b)] - nv));
      x_[idx(b)] = nv;
    }
    return drift;
  }

  void polish(std::vector<double>& x) const {
    for (int j = 0; j < n_; ++j) {
      auto& v = x[idx(j)];
      const double lo = cur_lo_[idx(j)];
      const double up = cur_up_[idx(j)];
      if (lo != -kInf && std::abs(v - lo) < 1e-8) v = lo;
      if (up != kInf && std::abs(v - up) < 1e-8) v = up;
    }
  }

  [[nodiscard]] static std::size_t idx(int j) {
    return static_cast<std::size_t>(j);
  }
  [[nodiscard]] double& binv(int i, int r) {
    return binv_[static_cast<std::size_t>(i) * static_cast<std::size_t>(m_) +
                 static_cast<std::size_t>(r)];
  }
  [[nodiscard]] const double& binv(int i, int r) const {
    return binv_[static_cast<std::size_t>(i) * static_cast<std::size_t>(m_) +
                 static_cast<std::size_t>(r)];
  }

  SimplexOptions opt_;
  bool use_dense_ = false;
  int n_ = 0;
  int m_ = 0;

  // Immutable snapshot of the problem (structural + logical columns).
  int base_total_ = 0;
  std::vector<std::vector<std::pair<int, double>>> base_cols_;
  std::vector<double> base_lo_, base_up_;
  std::vector<double> cur_lo_, cur_up_;  // current structural bounds

  // Working state (includes artificials appended by the last scratch solve).
  int total_ = 0;
  std::vector<std::vector<std::pair<int, double>>> cols_;
  std::vector<std::vector<std::pair<int, double>>> row_terms_;  // CSR view
  std::vector<double> lo_, up_, cost_, x_;
  std::vector<VarState> state_;
  std::vector<bool> is_artificial_;
  std::vector<int> artificials_;
  std::vector<int> basis_;
  std::vector<double> binv_;  // dense oracle only
  BasisFactor factor_;        // sparse LU + eta file
  bool basis_valid_ = false;

  // Farkas certificate of the last infeasible solve (see capture_farkas).
  std::vector<double> farkas_z_;
  double farkas_margin_ = 0.0;
  bool farkas_valid_ = false;

  long iterations_ = 0;
  long max_iter_ = 0;
  SimplexEngine::Stats stats_;

  // Optional wall-clock deadline; polled inside the pivot loops.
  std::chrono::steady_clock::time_point deadline_{};
  bool have_deadline_ = false;

  // Anti-degeneracy perturbation state (see snapshot()/iterate()).
  std::vector<double> pert_;
  double pert_slack_ = 0.0;
  bool perturbed_ = false;

  // Devex pricing weights (reset per phase) and the partial-pricing cursor.
  std::vector<double> devex_;
  int price_cursor_ = 0;

  // Scratch for the CSR alpha scatter (sparse dual ratio test / Devex).
  std::vector<double> alpha_;
  std::vector<int> touched_;

  // Solve scratch (see ftran()): work_ is the right-hand side each solve
  // consumes; w_ the FTRANed entering column; y_ the duals of btran_cost,
  // current while duals_valid_ for the phase duals_phase1_; rho_ a basis
  // row or true-cost duals; xb_ the recomputed basic values.
  std::vector<double> work_, w_, y_, rho_, xb_;
  bool duals_valid_ = false;
  bool duals_phase1_ = false;
};

}  // namespace detail

SimplexEngine::SimplexEngine(const Problem& problem,
                             const SimplexOptions& options)
    : impl_(std::make_unique<detail::EngineImpl>(problem, options)) {}

SimplexEngine::~SimplexEngine() = default;
SimplexEngine::SimplexEngine(SimplexEngine&&) noexcept = default;
SimplexEngine& SimplexEngine::operator=(SimplexEngine&&) noexcept = default;

void SimplexEngine::set_variable_bounds(int var, double lo, double up) {
  impl_->set_variable_bounds(var, lo, up);
}

void SimplexEngine::set_deadline(
    std::chrono::steady_clock::time_point deadline) {
  impl_->set_deadline(deadline);
}

void SimplexEngine::clear_deadline() { impl_->clear_deadline(); }

double SimplexEngine::col_lo(int var) const { return impl_->col_lo(var); }
double SimplexEngine::col_up(int var) const { return impl_->col_up(var); }

int SimplexEngine::num_rows() const { return impl_->num_rows(); }
int SimplexEngine::num_structural() const { return impl_->num_structural(); }
double SimplexEngine::column_lower(int j) const {
  return impl_->column_lower(j);
}
double SimplexEngine::column_upper(int j) const {
  return impl_->column_upper(j);
}
bool SimplexEngine::reduced_costs(std::vector<double>& d) {
  return impl_->reduced_costs(d);
}
bool SimplexEngine::farkas_ray(std::vector<double>& z, double& margin) const {
  return impl_->farkas_ray(z, margin);
}
Solution SimplexEngine::solve_from_scratch() {
  return impl_->solve_from_scratch();
}

Solution SimplexEngine::reoptimize() { return impl_->reoptimize(); }

const SimplexEngine::Stats& SimplexEngine::stats() const {
  return impl_->stats();
}

double SimplexEngine::bound_slack() const { return impl_->bound_slack(); }

}  // namespace archex::lp
