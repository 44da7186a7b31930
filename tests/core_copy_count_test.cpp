// Tests for the optimal-copy-count sweep (Section 8.2's open question).
#include "core/copy_count.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/contracts.hpp"

namespace {

namespace core = fap::core;

core::CopyCountOptions quick_options(double storage) {
  core::CopyCountOptions options;
  options.storage_cost_per_copy = storage;
  options.inner.alpha = 0.08;
  options.inner.max_iterations = 800;
  options.inner.decay_interval = 20;
  return options;
}

TEST(CopyCount, SweepCoversAllCounts) {
  const core::RingProblem base =
      core::make_paper_ring_problem({1.0, 1.0, 1.0, 1.0}, /*copies=*/1.0);
  const core::CopyCountResult result =
      core::optimal_copy_count(base, quick_options(0.1));
  ASSERT_EQ(result.sweep.size(), 4u);
  for (std::size_t m = 1; m <= 4; ++m) {
    EXPECT_EQ(result.sweep[m - 1].copies, m);
    EXPECT_NEAR(result.sweep[m - 1].storage_cost, 0.1 * m, 1e-12);
    EXPECT_NEAR(result.sweep[m - 1].total_cost,
                result.sweep[m - 1].access_cost +
                    result.sweep[m - 1].storage_cost,
                1e-12);
  }
  EXPECT_GE(result.best_copies, 1u);
  EXPECT_LE(result.best_copies, 4u);
}

TEST(CopyCount, AccessCostDecreasesWithMoreCopies) {
  // Without storage cost, more copies can only help (shorter walks, more
  // parallel service).
  const core::RingProblem base =
      core::make_paper_ring_problem({4.0, 1.0, 1.0, 1.0}, 1.0);
  const core::CopyCountResult result =
      core::optimal_copy_count(base, quick_options(0.0));
  for (std::size_t m = 1; m < result.sweep.size(); ++m) {
    EXPECT_LE(result.sweep[m].access_cost,
              result.sweep[m - 1].access_cost + 1e-6)
        << "m=" << m + 1;
  }
  EXPECT_EQ(result.best_copies, 4u);
}

TEST(CopyCount, ExpensiveStorageFavorsFewCopies) {
  const core::RingProblem base =
      core::make_paper_ring_problem({1.0, 1.0, 1.0, 1.0}, 1.0);
  const core::CopyCountResult cheap =
      core::optimal_copy_count(base, quick_options(0.001));
  const core::CopyCountResult expensive =
      core::optimal_copy_count(base, quick_options(5.0));
  EXPECT_GE(cheap.best_copies, expensive.best_copies);
  EXPECT_EQ(expensive.best_copies, 1u);
}

TEST(CopyCount, BestEntryIsTheMinimum) {
  const core::RingProblem base = fap::testing::random_ring_problem(3, 5, 1.0);
  const core::CopyCountResult result =
      core::optimal_copy_count(base, quick_options(0.2));
  for (const core::CopyCountEntry& entry : result.sweep) {
    EXPECT_GE(entry.total_cost, result.best_total_cost - 1e-12);
  }
}

TEST(CopyCount, RejectsNegativeStorageCost) {
  const core::RingProblem base =
      core::make_paper_ring_problem({1.0, 1.0, 1.0, 1.0}, 1.0);
  core::CopyCountOptions options = quick_options(-1.0);
  EXPECT_THROW(core::optimal_copy_count(base, options),
               fap::util::PreconditionError);
}

}  // namespace
