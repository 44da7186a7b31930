// Small numerical toolkit: finite differences (used by tests to cross-check
// the closed-form gradients of the cost models), grid search (the
// empirically best step size of Figure 6 and ablation A1), and float
// helpers.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace fap::util {

/// True when |a - b| <= abs_tol + rel_tol * max(|a|, |b|).
bool almost_equal(double a, double b, double abs_tol = 1e-9,
                  double rel_tol = 1e-9) noexcept;

/// Central-difference numeric gradient of f at x (one-dimensional per
/// coordinate; f is evaluated 2*dim times).
std::vector<double> numeric_gradient(
    const std::function<double(const std::vector<double>&)>& f,
    std::vector<double> x, double h = 1e-6);

/// Central-difference second derivative of f w.r.t. coordinate i at x.
double numeric_second_derivative(
    const std::function<double(const std::vector<double>&)>& f,
    std::vector<double> x, std::size_t i, double h = 1e-4);

/// The best point of a grid search. Used for "best iteration count over
/// a grid of step sizes" style searches.
struct GridMinimum {
  double x = 0.0;
  double value = 0.0;
  std::size_t index = 0;  ///< grid index of x (x == grid_points(...)[index])
};

/// The grid abscissas x_i = lo + (hi - lo)/(points - 1) * i, in order.
/// Callers evaluate the objective at every point themselves (e.g. batched
/// across the grid) and reduce with grid_select.
std::vector<double> grid_points(double lo, double hi, std::size_t points);

/// Picks the minimum of (xs[i], values[i]). A strictly smaller value wins,
/// so of tied values the FIRST (lowest x on a grid_points grid) is kept.
GridMinimum grid_select(const std::vector<double>& xs,
                        const std::vector<double>& values);

/// Strict base-10 parse of an unsigned 64-bit integer. True and writes
/// `out` only when `text` is a non-empty, all-digit string whose value
/// fits in std::uint64_t. Rejects what std::strtoull silently accepts:
/// a leading '-' (which would wrap "-3" to ~1.8e19), '+', leading
/// whitespace, trailing junk, and ERANGE overflow. Used by the bench
/// flag parser so `--jobs -3` is a usage error, not a 2^64 thread
/// request.
bool parse_uint64(const char* text, std::uint64_t& out) noexcept;

/// Sum of a vector (convenience, used in feasibility assertions).
double sum(const std::vector<double>& v) noexcept;

/// Compensated (Neumaier) running sum. A naive left-to-right sum of R
/// same-sign terms carries O(R·eps) relative error — ~5e-11 at R = 1e6,
/// visible both in popularity normalization (which promises Σp = 1 to
/// 1e-15) and in catalog node-load accounting (where the capacity
/// residual is compared against 1e-9). Neumaier's variant of Kahan
/// summation keeps the error at O(eps) independent of R, and the result
/// is a pure function of the addend order, so deterministic accumulation
/// stays deterministic.
class NeumaierSum {
 public:
  void add(double v) noexcept {
    const double t = sum_ + v;
    if (std::fabs(sum_) >= std::fabs(v)) {
      comp_ += (sum_ - t) + v;
    } else {
      comp_ += (v - t) + sum_;
    }
    sum_ = t;
  }
  double value() const noexcept { return sum_ + comp_; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// Neumaier-compensated sum of a vector.
double stable_sum(const std::vector<double>& v) noexcept;

/// L-infinity distance between two equally sized vectors.
double linf_distance(const std::vector<double>& a,
                     const std::vector<double>& b);

}  // namespace fap::util
