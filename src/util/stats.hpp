// Online statistics used by the discrete-event simulator and the benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace fap::util {

/// Numerically stable single-pass accumulator (Welford) for mean, variance
/// and extrema of a stream of observations.
class RunningStats {
 public:
  /// Defined inline: this is the DES event loop's per-observation hot
  /// path (four adds per completed access), and the out-of-line call was
  /// measurable there.
  void add(double x) noexcept {
    if (count_ == 0) {
      min_ = x;
      max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  /// Merge another accumulator into this one (parallel Welford / Chan).
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept;
  /// Unbiased sample variance; 0 for fewer than two observations.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return mean() * static_cast<double>(count_); }

  /// Half-width of the ~95% normal-approximation confidence interval of the
  /// mean (1.96 * s / sqrt(n)); 0 for fewer than two observations.
  double ci95_halfwidth() const noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Histogram with exponentially spaced bucket edges over [lo, hi), lo > 0:
/// bucket b covers [lo·r^b, lo·r^(b+1)) with r = (hi/lo)^(1/buckets), so
/// relative resolution is constant across the range. This is what makes
/// p999 of a heavy-tailed delay distribution meaningful: a linear
/// histogram wide enough for the tail quantizes the body into one coarse
/// bucket, while here every decade gets the same number of buckets.
///
/// Finite samples at or below lo land in bucket 0 and samples at or above
/// hi in the last bucket (clamped). Non-finite samples are counted aside:
/// they carry no position, so filing them into a bucket would silently
/// poison every quantile. merge() makes the per-window accumulation in the
/// trace server exact under any merge order (integer bucket adds). This
/// is the repo's only histogram type.
class LogHistogram {
 public:
  LogHistogram(double lo, double hi, std::size_t buckets);

  /// Inline: once per served request in the trace-serving loop.
  void add(double x) noexcept {
    if (!std::isfinite(x)) {
      ++nonfinite_;
      return;
    }
    std::size_t idx = 0;
    if (x >= hi_) {
      idx = counts_.size() - 1;
    } else if (x > lo_) {
      idx = static_cast<std::size_t>(std::log(x / lo_) * inv_log_step_);
      idx = std::min(idx, counts_.size() - 1);
    }
    ++counts_[idx];
    ++total_;
  }
  /// Zeroes every bucket and the non-finite count (range and bucket
  /// count unchanged) without releasing storage — equivalent to a freshly
  /// constructed histogram with the same parameters.
  void clear() noexcept;
  /// Adds the other histogram's buckets into this one. The two must have
  /// been constructed with identical (lo, hi, buckets).
  void merge(const LogHistogram& other);
  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::size_t count(std::size_t bucket) const;
  std::size_t total() const noexcept { return total_; }
  /// Samples rejected by add() for being NaN or infinite.
  std::size_t nonfinite() const noexcept { return nonfinite_; }
  /// Inclusive lower edge of the given bucket: lo·r^bucket.
  double bucket_lo(std::size_t bucket) const;
  /// Quantile estimate with linear interpolation inside the (geometric)
  /// bucket, q in [0, 1]; lo when empty. Empty buckets are skipped even
  /// when the target lands exactly on a cumulative boundary, and the
  /// interpolated value never exceeds hi.
  double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  double log_step_;      ///< ln r
  double inv_log_step_;  ///< 1 / ln r
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t nonfinite_ = 0;
};

}  // namespace fap::util
