// Tests for the file layer: fragment maps, the directory service, record
// popularity, and the weighted-record placement pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/single_file.hpp"
#include "fs/directory.hpp"
#include "fs/fragment_map.hpp"
#include "fs/popularity.hpp"
#include "fs/weighted_assignment.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace {

namespace core = fap::core;
namespace fs = fap::fs;
using fap::util::PreconditionError;

// --- FragmentMap ------------------------------------------------------------

TEST(FragmentMap, SplitsAtRecordBoundariesContiguously) {
  const fs::FragmentMap map =
      fs::FragmentMap::from_allocation(100, {0.25, 0.25, 0.25, 0.25});
  EXPECT_EQ(map.record_count(), 100u);
  for (std::size_t node = 0; node < 4; ++node) {
    EXPECT_EQ(map.records_at(node), 25u);
    EXPECT_DOUBLE_EQ(map.fraction_at(node), 0.25);
  }
  EXPECT_EQ(map.range_at(0).begin, 0u);
  EXPECT_EQ(map.range_at(3).end, 100u);
  EXPECT_EQ(map.range_at(1).begin, map.range_at(0).end);
}

TEST(FragmentMap, EveryRecordAssignedExactlyOnce) {
  fap::util::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t nodes = 2 + rng.uniform_index(6);
    std::vector<double> x(nodes, 0.0);
    double sum = 0.0;
    for (double& xi : x) {
      xi = rng.exponential(1.0);
      sum += xi;
    }
    for (double& xi : x) {
      xi /= sum;
    }
    const std::size_t records = 7 + rng.uniform_index(200);
    const fs::FragmentMap map = fs::FragmentMap::from_allocation(records, x);
    std::size_t total = 0;
    for (std::size_t node = 0; node < nodes; ++node) {
      total += map.records_at(node);
    }
    EXPECT_EQ(total, records);
    for (std::size_t r = 0; r < records; ++r) {
      const auto node = map.node_of(r);
      EXPECT_TRUE(map.range_at(node).contains(r)) << "record " << r;
    }
  }
}

TEST(FragmentMap, RoundingErrorBoundedByOneRecord) {
  const std::vector<double> x{0.37, 0.23, 0.29, 0.11};
  const fs::FragmentMap map = fs::FragmentMap::from_allocation(1000, x);
  const std::vector<double> fractions = map.fractions();
  EXPECT_LE(fap::util::linf_distance(fractions, x), 1.0 / 1000.0 + 1e-12);
}

TEST(FragmentMap, HandlesEmptyAndWholeFractions) {
  const fs::FragmentMap map =
      fs::FragmentMap::from_allocation(10, {0.0, 1.0, 0.0});
  EXPECT_EQ(map.records_at(0), 0u);
  EXPECT_EQ(map.records_at(1), 10u);
  EXPECT_EQ(map.node_of(0), 1u);
  EXPECT_EQ(map.node_of(9), 1u);
}

TEST(FragmentMap, LookupSkipsEmptyRanges) {
  // Nodes 1 and 2 hold nothing; lookups on either side must resolve.
  const fs::FragmentMap map(
      std::vector<std::size_t>{5, 0, 0, 5});
  EXPECT_EQ(map.node_of(4), 0u);
  EXPECT_EQ(map.node_of(5), 3u);
}

TEST(FragmentMap, RejectsBadInput) {
  EXPECT_THROW(fs::FragmentMap::from_allocation(0, {1.0}),
               PreconditionError);
  EXPECT_THROW(fs::FragmentMap::from_allocation(10, {0.5, 0.1}),
               PreconditionError);  // does not sum to 1
  EXPECT_THROW(fs::FragmentMap::from_allocation(10, {1.5, -0.5}),
               PreconditionError);
  const fs::FragmentMap map = fs::FragmentMap::from_allocation(10, {1.0});
  EXPECT_THROW(map.node_of(10), PreconditionError);
}

// --- Directory ---------------------------------------------------------------

TEST(Directory, LookupAndVersionedInstall) {
  fs::Directory directory(
      fs::FragmentMap::from_allocation(100, {1.0, 0.0}));
  EXPECT_EQ(directory.version(), 1u);
  EXPECT_EQ(directory.lookup(50), 0u);
  directory.install(fs::FragmentMap::from_allocation(100, {0.0, 1.0}));
  EXPECT_EQ(directory.version(), 2u);
  EXPECT_EQ(directory.lookup(50), 1u);
}

TEST(Directory, InstallRejectsDifferentFile) {
  fs::Directory directory(
      fs::FragmentMap::from_allocation(100, {0.5, 0.5}));
  EXPECT_THROW(
      directory.install(fs::FragmentMap::from_allocation(99, {0.5, 0.5})),
      PreconditionError);
  EXPECT_THROW(directory.install(
                   fs::FragmentMap::from_allocation(100, {0.5, 0.3, 0.2})),
               PreconditionError);
}

TEST(Directory, MigrationBillCountsMovedRecords) {
  fs::Directory directory(
      fs::FragmentMap::from_allocation(100, {0.5, 0.5}));
  // Identical layout: nothing moves.
  EXPECT_EQ(directory.migration_records(
                fs::FragmentMap::from_allocation(100, {0.5, 0.5})),
            0u);
  // Shift the boundary by 10 records: exactly 10 move.
  EXPECT_EQ(directory.migration_records(
                fs::FragmentMap::from_allocation(100, {0.6, 0.4})),
            10u);
  // Full swap: everything moves.
  EXPECT_EQ(directory.migration_records(
                fs::FragmentMap::from_allocation(100, {0.0, 1.0})),
            50u);
}

// --- Popularity ----------------------------------------------------------------

TEST(Popularity, UniformAndZipfAreDistributions) {
  for (const auto& p :
       {fs::uniform_popularity(100), fs::zipf_popularity(100, 0.0),
        fs::zipf_popularity(100, 1.0), fs::zipf_popularity(100, 2.0)}) {
    EXPECT_NEAR(fap::util::sum(p), 1.0, 1e-9);
    for (const double value : p) {
      EXPECT_GT(value, 0.0);
    }
  }
}

TEST(Popularity, ZipfZeroIsUniformAndSkewOrdersRecords) {
  const auto uniform = fs::zipf_popularity(50, 0.0);
  for (const double p : uniform) {
    EXPECT_NEAR(p, 0.02, 1e-12);
  }
  const auto skewed = fs::zipf_popularity(50, 1.2);
  for (std::size_t r = 1; r < 50; ++r) {
    EXPECT_GT(skewed[r - 1], skewed[r]);
  }
  // Head heaviness grows with s.
  EXPECT_GT(fs::zipf_popularity(50, 2.0)[0], skewed[0]);
}

TEST(Popularity, NodeAccessSharesAggregateUnderLayout) {
  const fs::FragmentMap map =
      fs::FragmentMap::from_allocation(4, {0.5, 0.5});
  const std::vector<double> popularity{0.4, 0.3, 0.2, 0.1};
  const std::vector<double> shares =
      fs::node_access_shares(map, popularity);
  EXPECT_NEAR(shares[0], 0.7, 1e-12);
  EXPECT_NEAR(shares[1], 0.3, 1e-12);
}

TEST(PopularitySplit, MatchesTargetSharesByMassNotByRecordCount) {
  // Zipf head: node 0 should get a SMALL record range carrying half the
  // access mass, not half the records.
  const std::vector<double> popularity = fs::zipf_popularity(1000, 1.0);
  const std::vector<double> shares{0.5, 0.3, 0.2};
  const fs::FragmentMap layout = fs::popularity_split(popularity, shares);
  const std::vector<double> achieved =
      fs::node_access_shares(layout, popularity);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    // Each boundary lands within one record's mass of its target, and
    // the head records are the heaviest (p_0 ≈ 0.13 at s=1, R=1000).
    EXPECT_NEAR(achieved[i], shares[i], 0.14) << "node " << i;
  }
  // Under skew, half the mass needs far fewer than half the records.
  EXPECT_LT(layout.records_at(0), 200u);
  EXPECT_EQ(layout.record_count(), 1000u);
}

TEST(PopularitySplit, UniformPopularityReducesToRecordSplit) {
  const std::vector<double> popularity = fs::uniform_popularity(100);
  const fs::FragmentMap layout =
      fs::popularity_split(popularity, {0.25, 0.25, 0.5});
  EXPECT_EQ(layout.records_at(0), 25u);
  EXPECT_EQ(layout.records_at(1), 25u);
  EXPECT_EQ(layout.records_at(2), 50u);
}

TEST(PopularitySplit, ZeroShareYieldsEmptyRange) {
  const fs::FragmentMap layout =
      fs::popularity_split(fs::uniform_popularity(10), {0.0, 1.0, 0.0});
  EXPECT_EQ(layout.records_at(0), 0u);
  EXPECT_EQ(layout.records_at(1), 10u);
  EXPECT_EQ(layout.records_at(2), 0u);
}

TEST(PopularitySplit, NormalizesSharesAndRejectsBadInput) {
  // Shares need not sum to 1 — only ratios matter.
  const fs::FragmentMap layout =
      fs::popularity_split(fs::uniform_popularity(100), {1.0, 1.0});
  EXPECT_EQ(layout.records_at(0), 50u);
  EXPECT_THROW(fs::popularity_split({}, {1.0}), PreconditionError);
  EXPECT_THROW(fs::popularity_split({1.0}, {}), PreconditionError);
  EXPECT_THROW(fs::popularity_split({1.0, -0.5}, {1.0}), PreconditionError);
  EXPECT_THROW(fs::popularity_split({1.0}, {0.0, 0.0}), PreconditionError);
}

TEST(Popularity, ZipfContracts) {
  EXPECT_THROW(fs::zipf_popularity(0, 0.8), PreconditionError);
  EXPECT_THROW(fs::zipf_popularity(10, -0.1), PreconditionError);
  EXPECT_NO_THROW(fs::zipf_popularity(10, 0.0));  // s = 0 is uniform
}

TEST(Popularity, NormalizationContracts) {
  EXPECT_THROW(fs::normalized_popularity({}), PreconditionError);
  EXPECT_THROW(fs::normalized_popularity({0.0, 0.0}), PreconditionError);
  EXPECT_THROW(fs::normalized_popularity({1.0, -0.5}), PreconditionError);
  EXPECT_THROW(fs::uniform_popularity(0), PreconditionError);
}

TEST(Popularity, CompensatedNormalizationSumsToOneAtMillionRecords) {
  // A naive normalization total carries O(R·eps) ≈ 5e-11 relative error
  // at R = 1e6, so Σ p_r would miss 1 by the same amount. With the
  // Neumaier total the miss is a few eps. The sum itself is measured
  // with compensation too — a naive test-side sum would re-introduce
  // exactly the error being tested away.
  constexpr std::size_t kRecords = 1000000;
  for (const double s : {0.0, 0.8, 1.4}) {
    const std::vector<double> popularity = fs::zipf_popularity(kRecords, s);
    const double total = fap::util::stable_sum(popularity);
    EXPECT_NEAR(total, 1.0, 1e-15) << "zipf exponent " << s;
  }
  // An adversarially wide-magnitude weight vector (12 decades).
  std::vector<double> weights(kRecords);
  for (std::size_t r = 0; r < kRecords; ++r) {
    weights[r] = std::pow(10.0, -static_cast<double>(r % 13));
  }
  const std::vector<double> popularity =
      fs::normalized_popularity(std::move(weights));
  EXPECT_NEAR(fap::util::stable_sum(popularity), 1.0, 1e-15);
}

// --- Weighted placement ----------------------------------------------------------

TEST(WeightedPlacement, PackingMatchesTargetsWithinOneRecordWeight) {
  const std::vector<double> popularity = fs::zipf_popularity(500, 1.0);
  const std::vector<double> targets{0.4, 0.3, 0.2, 0.1};
  const fs::RecordAssignment assignment =
      fs::pack_records(popularity, targets);
  const double heaviest = popularity.front();
  for (std::size_t node = 0; node < 4; ++node) {
    EXPECT_NEAR(assignment.achieved_shares[node], targets[node],
                heaviest + 1e-9)
        << "node " << node;
  }
  EXPECT_NEAR(fap::util::sum(assignment.achieved_shares), 1.0, 1e-9);
  EXPECT_NEAR(fap::util::sum(assignment.storage_fractions), 1.0, 1e-9);
}

TEST(WeightedPlacement, UniformPopularityReducesToRecordRounding) {
  const std::vector<double> popularity = fs::uniform_popularity(400);
  const std::vector<double> targets{0.25, 0.25, 0.25, 0.25};
  const fs::RecordAssignment assignment =
      fs::pack_records(popularity, targets);
  for (std::size_t node = 0; node < 4; ++node) {
    EXPECT_NEAR(assignment.storage_fractions[node], 0.25, 1e-9);
    EXPECT_NEAR(assignment.achieved_shares[node], 0.25, 1e-9);
  }
}

TEST(WeightedPlacement, PipelineCostNearFractionalBound) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  core::AllocatorOptions options;
  options.alpha = 0.3;
  options.epsilon = 1e-6;
  options.max_iterations = 100000;
  for (const double s : {0.0, 0.8, 1.5}) {
    const fs::WeightedPlacement placement = fs::optimize_record_placement(
        model, fs::zipf_popularity(1000, s), options);
    EXPECT_GE(placement.achieved_cost, placement.fractional_cost - 1e-9);
    // At s = 1.5 the single hottest record carries ~39% of the traffic,
    // so no packing can match the uniform 25% shares exactly; the greedy
    // still lands within a few percent of the fractional bound.
    EXPECT_LT(placement.achieved_cost, 1.03 * placement.fractional_cost)
        << "zipf s=" << s;
  }
}

TEST(WeightedPlacement, StorageAndAccessSharesDivergeUnderSkew) {
  // Heterogeneous μ so the optimal shares are non-uniform, plus heavy
  // skew: the fast node should serve a large share from few records.
  core::SingleFileProblem problem = core::make_paper_ring_problem();
  problem.mu = {5.0, 1.5, 1.5, 1.5};
  const core::SingleFileModel model(std::move(problem));
  core::AllocatorOptions options;
  options.alpha = 0.2;
  options.epsilon = 1e-6;
  options.max_iterations = 100000;
  const fs::WeightedPlacement placement = fs::optimize_record_placement(
      model, fs::zipf_popularity(2000, 1.4), options);
  const auto& a = placement.assignment;
  // Node 0 (fast) serves the most traffic...
  EXPECT_GT(a.achieved_shares[0], a.achieved_shares[1]);
  // ...and the greedy packs hot records first, so its storage fraction is
  // smaller than its access share.
  EXPECT_LT(a.storage_fractions[0], a.achieved_shares[0]);
}

TEST(WeightedPlacement, RejectsBadInput) {
  EXPECT_THROW(fs::pack_records({}, {1.0}), PreconditionError);
  EXPECT_THROW(fs::pack_records({0.5, 0.5}, {0.7, 0.7}),
               PreconditionError);
  EXPECT_THROW(fs::pack_records({0.5, 0.7}, {0.5, 0.5}),
               PreconditionError);  // popularity not normalized -> shares
                                    // precondition fails downstream
}

}  // namespace
