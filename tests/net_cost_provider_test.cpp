#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "net/cost_provider.hpp"
#include "net/generators.hpp"
#include "net/hierarchy.hpp"
#include "net/shortest_paths.hpp"
#include "runtime/sweep.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

namespace net = fap::net;
using fap::util::PreconditionError;

// Providers must return rows byte-identical to the dense APSP matrix —
// the contract that makes them drop-in replacements on every path.
void expect_rows_match_dense(const net::Topology& topology) {
  const net::CostMatrix dense = net::all_pairs_shortest_paths(topology);
  const net::RowCostProvider provider(topology, /*row_cache_capacity=*/4);
  const std::size_t n = topology.node_count();
  ASSERT_EQ(provider.node_count(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::CostRow row = provider.row(i);
    ASSERT_EQ(row.size(), n);
    EXPECT_EQ(std::memcmp(row.data(), dense.row(i), n * sizeof(double)), 0)
        << "row " << i << " differs from the dense matrix";
  }
}

TEST(RowCostProvider, RowsBitIdenticalToDenseOnRing) {
  expect_rows_match_dense(net::make_ring(33, 1.25));
}

TEST(RowCostProvider, RowsBitIdenticalToDenseOnGrid) {
  expect_rows_match_dense(net::make_grid(6, 7, 0.75));
}

TEST(RowCostProvider, RowsBitIdenticalToDenseOnRandomMetric) {
  fap::util::Rng rng(11);
  expect_rows_match_dense(net::make_random_metric(48, 4, rng));
}

TEST(RowCostProvider, RowsBitIdenticalToDenseOnErdosRenyi) {
  fap::util::Rng rng(7);
  expect_rows_match_dense(net::make_erdos_renyi(40, 0.15, 0.5, 2.0, rng));
}

TEST(RowCostProvider, RequiresConnectedTopology) {
  net::Topology split(4);
  split.add_edge(0, 1, 1.0);
  split.add_edge(2, 3, 1.0);
  EXPECT_THROW(net::RowCostProvider provider(split), PreconditionError);
}

TEST(DenseCostProvider, RowsAreZeroCopyViews) {
  const net::Topology ring = net::make_ring(5, 1.0);
  auto matrix = std::make_shared<const net::CostMatrix>(
      net::all_pairs_shortest_paths(ring));
  const net::DenseCostProvider provider(matrix);
  EXPECT_EQ(provider.node_count(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(provider.row(i).data(), matrix->row(i));  // same storage
    EXPECT_EQ(provider.cost(i, i), 0.0);
  }
}

TEST(DenseCostProvider, OwningRowsOutliveTheProvider) {
  const net::Topology ring = net::make_ring(5, 1.0);
  net::CostRow row;
  {
    auto matrix = std::make_shared<const net::CostMatrix>(
        net::all_pairs_shortest_paths(ring));
    const net::DenseCostProvider provider(std::move(matrix));
    row = provider.row(0);
  }
  // The handle's keepalive shares matrix ownership: still readable.
  EXPECT_EQ(row[0], 0.0);
  EXPECT_EQ(row[1], 1.0);
}

TEST(RowCostProvider, LruEvictsLeastRecentlyUsedRow) {
  const net::Topology ring = net::make_ring(8, 1.0);
  const net::RowCostProvider provider(ring, /*row_cache_capacity=*/2);
  provider.row(0);  // miss, cache {0}
  provider.row(1);  // miss, cache {1, 0}
  provider.row(0);  // hit,  cache {0, 1}
  provider.row(2);  // miss, evicts 1 (LRU), cache {2, 0}
  provider.row(0);  // hit
  provider.row(1);  // miss again: 1 was evicted
  const auto stats = provider.cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.evictions, 2u);  // rows 1 and then 0 or 2's victim
}

TEST(RowCostProvider, HandlesSurviveEviction) {
  const net::Topology ring = net::make_ring(6, 1.0);
  const net::RowCostProvider provider(ring, /*row_cache_capacity=*/1);
  const net::CostRow row0 = provider.row(0);
  provider.row(1);  // evicts row 0 from the cache
  provider.row(2);  // evicts row 1
  // The handle still owns the evicted storage; values stay correct.
  EXPECT_EQ(row0[0], 0.0);
  EXPECT_EQ(row0[1], 1.0);
  EXPECT_EQ(row0[3], 3.0);
  // And a re-request recomputes the identical bytes.
  const net::CostRow again = provider.row(0);
  EXPECT_NE(again.data(), row0.data());
  EXPECT_EQ(std::memcmp(again.data(), row0.data(), 6 * sizeof(double)), 0);
}

// Readers run as sweep indices, on as many worker threads as readers.
fap::runtime::SweepOptions readers(std::size_t workers) {
  fap::runtime::SweepOptions options;
  options.jobs = workers;
  return options;
}

// Single-flight under contention: many workers hammering a row set no
// larger than the cache must compute each row exactly once and always
// read consistent data. Run under TSan in CI.
TEST(RowCostProvider, ConcurrentRequestsComputeEachRowOnce) {
  fap::util::Rng rng(23);
  const net::Topology topology = net::make_random_metric(40, 4, rng);
  const net::CostMatrix dense = net::all_pairs_shortest_paths(topology);
  const net::RowCostProvider provider(topology, /*row_cache_capacity=*/8);
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kRows = 4;  // << capacity: no eviction noise
  constexpr std::size_t kRequests = 64;
  std::atomic<int> mismatches{0};
  fap::runtime::run_sweep(
      kWorkers, readers(kWorkers), [&](std::size_t w, std::uint64_t) {
        for (std::size_t r = 0; r < kRequests; ++r) {
          const std::size_t i = (w + r) % kRows;
          const net::CostRow row = provider.row(i);
          if (std::memcmp(row.data(), dense.row(i),
                          row.size() * sizeof(double)) != 0) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = provider.cache_stats();
  EXPECT_EQ(stats.misses, kRows);  // single-flight: one fill per row
  EXPECT_EQ(stats.hits + stats.misses, kWorkers * kRequests);
  EXPECT_EQ(stats.evictions, 0u);
}

// Capacity-1 storm: every request for a different row evicts the last,
// and concurrent waiters may receive handles to already-evicted slots.
// Values must stay correct regardless of the eviction interleaving.
TEST(RowCostProvider, CapacityOneStormStaysCorrect) {
  fap::util::Rng rng(31);
  const net::Topology topology = net::make_random_metric(24, 3, rng);
  const net::CostMatrix dense = net::all_pairs_shortest_paths(topology);
  const net::RowCostProvider provider(topology, /*row_cache_capacity=*/1);
  constexpr std::size_t kWorkers = 8;
  std::atomic<int> mismatches{0};
  fap::runtime::run_sweep(
      kWorkers, readers(kWorkers), [&](std::size_t w, std::uint64_t) {
        for (std::size_t r = 0; r < 48; ++r) {
          const std::size_t i = (w * 5 + r * 7) % 24;
          const net::CostRow row = provider.row(i);
          if (std::memcmp(row.data(), dense.row(i),
                          row.size() * sizeof(double)) != 0) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(HierarchicalCostProvider, CachesRowsWithSingleFlight) {
  const net::TieredNetwork tiered = net::make_fat_tree(2, 3);
  const net::HierarchicalCostProvider provider(tiered.spec,
                                               /*row_cache_capacity=*/2);
  const net::CostRow first = provider.row(3);
  const net::CostRow second = provider.row(3);
  EXPECT_EQ(first.data(), second.data());  // same cached storage
  const auto stats = provider.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(CostProviderContracts, RejectBadArguments) {
  const net::Topology ring = net::make_ring(4, 1.0);
  EXPECT_THROW(net::RowCostProvider(ring, /*row_cache_capacity=*/0),
               PreconditionError);
  const net::RowCostProvider provider(ring);
  EXPECT_THROW(provider.row(4), PreconditionError);
  const net::TieredNetwork tiered = net::make_fat_tree(2, 2);
  const net::HierarchicalCostProvider hier(tiered.spec);
  EXPECT_THROW(hier.cost(0, 99), PreconditionError);
  EXPECT_THROW(net::DenseCostProvider(nullptr), PreconditionError);
}

}  // namespace
