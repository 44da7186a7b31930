// Tests of the benchmark's own helpers: percentiles and the sample count
// behind them, span self time, and the output checks rejecting corrupted
// results.
#include "bench_lib.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "catalog/catalog_solver.hpp"
#include "catalog/catalog_spec.hpp"
#include "net/generators.hpp"
#include "serve/trace_server.hpp"

namespace {

using perfbench::Interval;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = n; i >= 1; --i) {
    values.push_back(static_cast<double>(i));  // descending: sort is tested
  }
  return values;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> values = one_to(1000);
  EXPECT_EQ(perfbench::percentile(values, 0.5), 500.0);
  EXPECT_EQ(perfbench::percentile(values, 0.99), 990.0);
  EXPECT_EQ(perfbench::percentile(values, 1.0), 1000.0);
  EXPECT_EQ(perfbench::percentile(values, 0.0), 1.0);
  EXPECT_EQ(perfbench::percentile({}, 0.5), 0.0);
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(perfbench::samples_beyond(1000, 0.99), 10U);
  EXPECT_EQ(perfbench::samples_beyond(1000, 0.999), 1U);
  EXPECT_EQ(perfbench::samples_beyond(999, 0.99), 9U);
  EXPECT_EQ(perfbench::samples_beyond(5, 1.0), 0U);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  const std::vector<double> candidates{0.5, 0.9, 0.99, 0.999};
  EXPECT_EQ(perfbench::supported_quantile(10000, candidates), 0.999);
  EXPECT_EQ(perfbench::supported_quantile(9999, candidates), 0.99);
  EXPECT_EQ(perfbench::supported_quantile(1000, candidates), 0.99);
  EXPECT_EQ(perfbench::supported_quantile(999, candidates), 0.9);
  EXPECT_EQ(perfbench::supported_quantile(100, candidates), 0.9);
  EXPECT_EQ(perfbench::supported_quantile(20, candidates), 0.5);
  EXPECT_EQ(perfbench::supported_quantile(19, candidates), 0.5);  // fallback
}

TEST(Percentile, Weighted) {
  // Value 1 carries 90% of the weight, value 10 the rest.
  const std::vector<std::pair<double, double>> sample{{10.0, 1.0}, {1.0, 9.0}};
  EXPECT_EQ(perfbench::weighted_percentile(sample, 0.5), 1.0);
  EXPECT_EQ(perfbench::weighted_percentile(sample, 0.9), 1.0);
  EXPECT_EQ(perfbench::weighted_percentile(sample, 0.95), 10.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const Interval span{0.0, 10.0};
  EXPECT_DOUBLE_EQ(perfbench::self_time(span, {}), 10.0);
  EXPECT_DOUBLE_EQ(perfbench::self_time(span, {{1.0, 3.0}, {5.0, 6.0}}), 7.0);
  // Overlapping children (two workers) count once.
  EXPECT_DOUBLE_EQ(perfbench::self_time(span, {{1.0, 4.0}, {2.0, 5.0}}), 6.0);
  // Nested and duplicated children add nothing.
  EXPECT_DOUBLE_EQ(
      perfbench::self_time(span, {{1.0, 5.0}, {2.0, 3.0}, {1.0, 5.0}}), 6.0);
  // Only the part inside the parent is covered.
  EXPECT_DOUBLE_EQ(perfbench::self_time(span, {{-2.0, 1.0}, {9.0, 12.0}}),
                   8.0);
  EXPECT_DOUBLE_EQ(perfbench::self_time(span, {{0.0, 10.0}}), 0.0);
}

TEST(SelfTime, RecorderAttributesChildrenToTheirParent) {
  perfbench::Recorder rec("test", true);
  const std::size_t root = rec.add_span("root", perfbench::kNoParent, 0, 10);
  const std::size_t child = rec.add_span("child", root, 2, 6);
  rec.add_span("grandchild", child, 3, 4);
  rec.add_span("grandchild", child, 3.5, 5);
  const std::vector<double> self = rec.self_times();
  ASSERT_EQ(self.size(), 4U);
  EXPECT_DOUBLE_EQ(self[0], 6.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
}

TEST(Recorder, UntracedRunsKeepTimingsButNoSpans) {
  perfbench::Recorder rec("test", false);
  int calls = 0;
  EXPECT_EQ(rec.time("work", perfbench::Threads::kOne, [&] { ++calls; }),
            perfbench::kNoParent);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(rec.spans().empty());
  ASSERT_EQ(rec.calls().size(), 1U);
  EXPECT_GE(rec.last_call().wall_s, 0.0);
}

TEST(Recorder, FlagsInflatedSingleThreadedCalls) {
  using perfbench::CallTiming;
  using perfbench::Threads;
  EXPECT_TRUE(perfbench::inflated(CallTiming{"x", 0.2, 0.1, Threads::kOne}));
  EXPECT_FALSE(perfbench::inflated(CallTiming{"x", 0.11, 0.1, Threads::kOne}));
  EXPECT_FALSE(perfbench::inflated(CallTiming{"x", 0.2, 0.1, Threads::kMany}));
  // Tiny absolute gaps are timer noise, not inflation.
  EXPECT_FALSE(
      perfbench::inflated(CallTiming{"x", 0.002, 0.001, Threads::kOne}));
}

class CatalogCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    fap::catalog::SyntheticCatalogOptions synth;
    synth.objects = 400;
    synth.nodes = 8;
    spec_ = fap::catalog::make_synthetic_catalog(synth, 7);
    result_ = fap::catalog::CatalogSolver(spec_, {}).solve();
  }
  fap::catalog::CatalogSpec spec_;
  fap::catalog::CatalogResult result_;
};

TEST_F(CatalogCheck, AcceptsASolvedCatalog) {
  EXPECT_TRUE(perfbench::check_catalog(spec_, result_).empty());
  EXPECT_EQ(perfbench::digest(result_),
            perfbench::digest(fap::catalog::CatalogSolver(spec_, {}).solve()));
}

TEST_F(CatalogCheck, RejectsAFractionThatBreaksTheRowSum) {
  result_.placements[0].fraction *= 0.5;
  EXPECT_FALSE(perfbench::check_catalog(spec_, result_).empty());
}

TEST_F(CatalogCheck, RejectsAnOverloadedNode) {
  result_.node_load[3] = spec_.node_capacity[3] * 1.01;
  EXPECT_FALSE(perfbench::check_catalog(spec_, result_).empty());
}

TEST_F(CatalogCheck, RejectsLoadsThatDisagreeWithPlacements) {
  result_.node_load[2] *= 0.5;
  EXPECT_FALSE(perfbench::check_catalog(spec_, result_).empty());
}

TEST_F(CatalogCheck, RejectsAResidualAndABadNode) {
  result_.residual = 1e-6;
  EXPECT_FALSE(perfbench::check_catalog(spec_, result_).empty());
  result_.residual = 0.0;
  result_.placements.back().node = 99;
  EXPECT_FALSE(perfbench::check_catalog(spec_, result_).empty());
}

TEST_F(CatalogCheck, DigestSeesAChangedPlacement) {
  const std::uint64_t before = perfbench::digest(result_);
  double& fraction = result_.placements[1].fraction;
  fraction = std::nextafter(fraction, 2.0);
  EXPECT_NE(perfbench::digest(result_), before);
}

TEST(ServeCheck, AcceptsAServedTraceAndRejectsALostRequest) {
  const fap::net::Topology ring = fap::net::make_ring(4);
  fap::serve::TraceWorkload workload;
  workload.records = 500;
  workload.total_rate = 2.0;
  workload.epoch_requests = 1000;
  fap::serve::TraceServer server(ring, workload, {});
  fap::serve::TraceServeResult result = server.serve(3000);
  EXPECT_TRUE(perfbench::check_serve(result, 3000).empty());
  EXPECT_EQ(perfbench::digest(result), perfbench::digest(server.serve(3000)));
  EXPECT_FALSE(perfbench::check_serve(result, 3001).empty());

  const std::uint64_t before = perfbench::digest(result);
  --result.completions;
  EXPECT_FALSE(perfbench::check_serve(result, 3000).empty());
  EXPECT_NE(perfbench::digest(result), before);
  ++result.completions;
  result.failed = 1;
  EXPECT_FALSE(perfbench::check_serve(result, 3000).empty());
}

}  // namespace
