#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace fap::util {

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const noexcept {
  return count_ == 0 ? 0.0 : mean_;
}

double RunningStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept {
  return std::sqrt(variance());
}

double RunningStats::min() const noexcept {
  return count_ == 0 ? 0.0 : min_;
}

double RunningStats::max() const noexcept {
  return count_ == 0 ? 0.0 : max_;
}

double RunningStats::ci95_halfwidth() const noexcept {
  if (count_ < 2) {
    return 0.0;
  }
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

LogHistogram::LogHistogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  FAP_EXPECTS(lo > 0.0, "log histogram needs a positive lower edge");
  FAP_EXPECTS(hi > lo, "histogram range must be non-empty");
  FAP_EXPECTS(buckets > 0, "histogram needs at least one bucket");
  log_step_ = std::log(hi_ / lo_) / static_cast<double>(buckets);
  inv_log_step_ = 1.0 / log_step_;
}

void LogHistogram::clear() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  nonfinite_ = 0;
}

void LogHistogram::merge(const LogHistogram& other) {
  FAP_EXPECTS(lo_ == other.lo_ && hi_ == other.hi_ &&
                  counts_.size() == other.counts_.size(),
              "merging log histograms with different parameters");
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  total_ += other.total_;
  nonfinite_ += other.nonfinite_;
}

std::size_t LogHistogram::count(std::size_t bucket) const {
  FAP_EXPECTS(bucket < counts_.size(), "bucket out of range");
  return counts_[bucket];
}

double LogHistogram::bucket_lo(std::size_t bucket) const {
  FAP_EXPECTS(bucket < counts_.size(), "bucket out of range");
  return lo_ * std::exp(log_step_ * static_cast<double>(bucket));
}

double LogHistogram::quantile(double q) const {
  FAP_EXPECTS(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (total_ == 0) {
    return lo_;
  }
  const double target = q * static_cast<double>(total_);
  double cumulative = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double next = cumulative + static_cast<double>(counts_[b]);
    // Empty buckets are skipped even when the target lands exactly on the
    // cumulative boundary: the quantile must sit where mass actually is,
    // not at the left edge of a hole in the distribution.
    if (counts_[b] > 0 && next >= target) {
      const double within =
          (target - cumulative) / static_cast<double>(counts_[b]);
      const double edge = lo_ * std::exp(log_step_ * static_cast<double>(b));
      const double width =
          lo_ * std::exp(log_step_ * static_cast<double>(b + 1)) - edge;
      return std::min(edge + within * width, hi_);
    }
    cumulative = next;
  }
  return hi_;
}

}  // namespace fap::util
