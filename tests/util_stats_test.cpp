#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using fap::util::LogHistogram;
using fap::util::RunningStats;

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats stats;
  const std::vector<double> data{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (const double x : data) {
    stats.add(x);
  }
  EXPECT_EQ(stats.count(), data.size());
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Population variance of this classic set is 4; sample variance = 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.sum(), 40.0, 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  fap::util::Rng rng(3);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(1.0, 3.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats stats;
  stats.add(1.0);
  stats.add(2.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(RunningStats, Ci95ShrinksWithSamples) {
  fap::util::Rng rng(5);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    if (i < 100) {
      small.add(x);
    }
    large.add(x);
  }
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(LogHistogram, BucketEdgesAreGeometric) {
  LogHistogram hist(1.0, 1000.0, 3);
  EXPECT_DOUBLE_EQ(hist.bucket_lo(0), 1.0);
  EXPECT_NEAR(hist.bucket_lo(1), 10.0, 1e-9);
  EXPECT_NEAR(hist.bucket_lo(2), 100.0, 1e-9);
}

TEST(LogHistogram, CountsAndClamping) {
  LogHistogram hist(1e-3, 1e3, 384);
  hist.add(0.5);
  hist.add(1e-9);   // below lo: bucket 0
  hist.add(-4.0);   // below lo: bucket 0
  hist.add(1e9);    // above hi: last bucket
  hist.add(std::nan(""));
  EXPECT_EQ(hist.total(), 4u);
  EXPECT_EQ(hist.nonfinite(), 1u);
  EXPECT_EQ(hist.count(0), 2u);
  EXPECT_EQ(hist.count(hist.bucket_count() - 1), 1u);
}

TEST(LogHistogram, QuantilesOfExponentialData) {
  // Exp(1): p50 = ln 2 ≈ 0.693, p99 = ln 100 ≈ 4.605, p999 ≈ 6.908. A
  // log histogram over [1e-4, 1e3] resolves all three to a few percent —
  // the point of the exercise: a linear histogram wide enough for the
  // tail would put the entire body into its first bucket.
  LogHistogram hist(1e-4, 1e3, 384);
  fap::util::Rng rng(11);
  for (int i = 0; i < 2000000; ++i) {
    hist.add(rng.exponential(1.0));
  }
  EXPECT_NEAR(hist.quantile(0.5), std::log(2.0), 0.05);
  EXPECT_NEAR(hist.quantile(0.99), std::log(100.0), 0.2);
  EXPECT_NEAR(hist.quantile(0.999), std::log(1000.0), 0.4);
}

TEST(LogHistogram, MergeEqualsSequential) {
  LogHistogram whole(1e-3, 1e3, 128);
  LogHistogram left(1e-3, 1e3, 128);
  LogHistogram right(1e-3, 1e3, 128);
  fap::util::Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.exponential(0.5);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.total(), whole.total());
  for (std::size_t b = 0; b < whole.bucket_count(); ++b) {
    EXPECT_EQ(left.count(b), whole.count(b));
  }
  EXPECT_DOUBLE_EQ(left.quantile(0.999), whole.quantile(0.999));
}

TEST(LogHistogram, RejectsBadConstructionAndMismatchedMerge) {
  EXPECT_THROW(LogHistogram(0.0, 1.0, 4), fap::util::PreconditionError);
  EXPECT_THROW(LogHistogram(2.0, 1.0, 4), fap::util::PreconditionError);
  EXPECT_THROW(LogHistogram(1.0, 2.0, 0), fap::util::PreconditionError);
  LogHistogram a(1.0, 10.0, 4);
  LogHistogram b(1.0, 10.0, 8);
  EXPECT_THROW(a.merge(b), fap::util::PreconditionError);
  EXPECT_EQ(a.quantile(0.5), 1.0);  // empty histogram reports lo
}

// The tests below use [1, 1024) in 10 buckets: bucket b covers
// [2^b, 2^(b+1)), so every expected value is exact up to the rounding of
// the edges' exp() (1e-9 absolute is ample). Samples sit inside buckets,
// never on an edge. The Histogram suite holds what any histogram must do
// — range clamping and argument checks — run on LogHistogram, the one
// histogram in the library.

TEST(Histogram, CountsAndClamping) {
  LogHistogram hist(1.0, 1024.0, 10);
  hist.add(1.5);    // bucket 0: [1, 2)
  hist.add(768.0);  // bucket 9: [512, 1024)
  hist.add(0.5);    // clamped to bucket 0
  hist.add(1e6);    // clamped to bucket 9
  EXPECT_EQ(hist.total(), 4u);
  EXPECT_EQ(hist.count(0), 2u);
  EXPECT_EQ(hist.count(9), 2u);
  EXPECT_NEAR(hist.bucket_lo(3), 8.0, 1e-9);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(LogHistogram(1.0, 1.0, 4), fap::util::PreconditionError);
  EXPECT_THROW(LogHistogram(1.0, 1024.0, 0), fap::util::PreconditionError);
  LogHistogram hist(1.0, 1024.0, 10);
  EXPECT_THROW(hist.count(10), fap::util::PreconditionError);
  EXPECT_THROW(hist.bucket_lo(10), fap::util::PreconditionError);
  EXPECT_THROW(hist.quantile(1.5), fap::util::PreconditionError);
  EXPECT_THROW(hist.quantile(-0.1), fap::util::PreconditionError);
}

// Regression: `next >= target` admitted empty buckets when the target
// sat exactly on their (unchanged) cumulative boundary — q = 0 is the
// always-reproducible case: target = 0 matched the empty bucket 0 and
// quantile(0) reported lo for a distribution whose entire mass sits in
// the last bucket. Skipping empty buckets puts every quantile where mass
// actually is.
TEST(LogHistogram, QuantileSkipsEmptyBucketAtExactBoundary) {
  LogHistogram hist(1.0, 1024.0, 10);
  for (int i = 0; i < 4; ++i) {
    hist.add(768.0);  // bucket 9: [512, 1024)
  }
  EXPECT_NEAR(hist.quantile(0.0), 512.0, 1e-9);
  EXPECT_NEAR(hist.quantile(0.5), 768.0, 1e-9);
  EXPECT_NEAR(hist.quantile(1.0), 1024.0, 1e-9);
}

TEST(LogHistogram, QuantileInterpolatesAcrossEmptyGap) {
  LogHistogram hist(1.0, 1024.0, 10);
  hist.add(1.5);  // bucket 0: [1, 2)
  hist.add(1.5);
  hist.add(768.0);  // bucket 9: [512, 1024)
  hist.add(768.0);
  // Median: target = 2 = cumulative mass of bucket 0, so it interpolates
  // to the right edge of the occupied bucket 0.
  EXPECT_NEAR(hist.quantile(0.5), 2.0, 1e-9);
  // Past the boundary the estimate jumps the empty gap into bucket 9:
  // target = 2.4, within = (2.4 - 2) / 2 = 0.2 of bucket 9.
  EXPECT_NEAR(hist.quantile(0.6), 512.0 + 0.2 * 512.0, 1e-9);
}

TEST(LogHistogram, QuantileNeverExceedsUpperEdge) {
  // Not the power-of-two geometry: over [1, 10) in 4 buckets the last
  // bucket's upper edge, lo·r^4, rounds to just above 10, so only the
  // clamp keeps quantile(1) at hi.
  LogHistogram hist(1.0, 10.0, 4);
  hist.add(1e6);  // clamped into the last bucket
  EXPECT_EQ(hist.count(3), 1u);
  EXPECT_EQ(hist.quantile(1.0), 10.0);
}

// Regression: NaN used to fall through both range comparisons into
// bucket 0, silently dragging every low quantile toward lo.
TEST(LogHistogram, NonFiniteSamplesAreCountedAside) {
  LogHistogram hist(1.0, 1024.0, 10);
  hist.add(std::nan(""));
  hist.add(std::numeric_limits<double>::infinity());
  hist.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist.total(), 0u);
  EXPECT_EQ(hist.count(0), 0u);
  EXPECT_EQ(hist.nonfinite(), 3u);
  hist.add(5.0);  // bucket 2: [4, 8)
  EXPECT_EQ(hist.total(), 1u);
  EXPECT_NEAR(hist.quantile(0.0), 4.0, 1e-9);
  hist.clear();
  EXPECT_EQ(hist.total(), 0u);
  EXPECT_EQ(hist.nonfinite(), 0u);
}

}  // namespace
