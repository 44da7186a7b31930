// Store-and-forward transport tests: per-hop latency, hop-count routing,
// and end-to-end response-time accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "net/shortest_paths.hpp"
#include "sim/des.hpp"
#include "util/contracts.hpp"

namespace {

namespace core = fap::core;
namespace net = fap::net;
namespace sim = fap::sim;

TEST(RouteHopCounts, RingHops) {
  const net::Topology ring = net::make_ring(6, 1.0);
  const auto hops = net::route_hop_counts(ring);
  EXPECT_EQ(hops[0][0], 0u);
  EXPECT_EQ(hops[0][1], 1u);
  EXPECT_EQ(hops[0][3], 3u);  // opposite side
  EXPECT_EQ(hops[0][5], 1u);  // wraps the short way
}

TEST(RouteHopCounts, FollowsLeastCostNotFewestHops) {
  // Direct link 0-1 costs 10; detour 0-2-1 costs 3 => route has 2 hops.
  net::Topology topology(3);
  topology.add_edge(0, 1, 10.0);
  topology.add_edge(0, 2, 1.0);
  topology.add_edge(2, 1, 2.0);
  const auto hops = net::route_hop_counts(topology);
  EXPECT_EQ(hops[0][1], 2u);
  EXPECT_EQ(hops[0][2], 1u);
}

TEST(RouteHopCounts, PrefersFewerHopsAmongEqualCostRoutes) {
  // Two equal-cost routes 0->2: direct (cost 2, 1 hop) and via 1
  // (1+1 = 2, 2 hops). The fewest-hop route must win.
  net::Topology topology(3);
  topology.add_edge(0, 1, 1.0);
  topology.add_edge(1, 2, 1.0);
  topology.add_edge(0, 2, 2.0);
  const auto hops = net::route_hop_counts(topology);
  EXPECT_EQ(hops[0][2], 1u);
}

sim::DesConfig ring_config(double hop_latency) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  sim::DesConfig config =
      sim::des_config_for(model, {0.25, 0.25, 0.25, 0.25});
  config.hop_latency = hop_latency;
  config.route_hops = net::route_hop_counts(net::make_ring(4, 1.0));
  config.measured_accesses = 80000;
  config.seed = 9090;
  return config;
}

TEST(StoreForward, ZeroLatencyReducesToInstantTransport) {
  const sim::DesResult result = sim::run_des(ring_config(0.0));
  EXPECT_EQ(result.response_time.count(), result.sojourn.count());
  EXPECT_NEAR(result.response_time.mean(), result.sojourn.mean(), 1e-12);
}

TEST(StoreForward, ResponseTimeAddsRoundTripTransit) {
  const double latency = 0.25;
  const sim::DesResult result = sim::run_des(ring_config(latency));
  // Expected round-trip transit: 2 * latency * E[hops]. On the 4-ring
  // with uniform routing, E[hops] = (0 + 1 + 2 + 1)/4 = 1.
  const double expected_transit = 2.0 * latency * 1.0;
  EXPECT_NEAR(result.response_time.mean(),
              result.sojourn.mean() + expected_transit,
              0.02 * result.response_time.mean());
  // Sojourn itself is unaffected by transport (queues see the same load).
  const sim::DesResult instant = sim::run_des(ring_config(0.0));
  EXPECT_NEAR(result.sojourn.mean(), instant.sojourn.mean(),
              0.05 * instant.sojourn.mean());
}

TEST(StoreForward, LocalAccessesPayNoTransit) {
  // Everything stored at the generating node's choice: route everything
  // to node 0 and generate only at node 0 => all accesses local.
  sim::DesConfig config;
  config.lambda = {0.5, 0.0, 0.0, 0.0};
  config.mu = {1.5, 1.5, 1.5, 1.5};
  config.routing.assign(4, std::vector<double>{1.0, 0.0, 0.0, 0.0});
  config.comm_cost.assign(4, std::vector<double>(4, 0.0));
  config.hop_latency = 5.0;
  config.measured_accesses = 20000;
  const sim::DesResult result = sim::run_des(config);
  EXPECT_NEAR(result.response_time.mean(), result.sojourn.mean(), 1e-12);
}

TEST(StoreForward, DefaultsToOneHopWithoutAMatrix) {
  sim::DesConfig config = ring_config(0.5);
  config.route_hops.clear();  // every remote access = 1 hop each way
  const sim::DesResult result = sim::run_des(config);
  // 75% of accesses are remote: expected transit = 2 * 0.5 * 0.75.
  EXPECT_NEAR(result.response_time.mean(), result.sojourn.mean() + 0.75,
              0.03 * result.response_time.mean());
}

TEST(StoreForward, RejectsBadConfig) {
  sim::DesConfig config = ring_config(0.1);
  config.hop_latency = -1.0;
  EXPECT_THROW(sim::run_des(config), fap::util::PreconditionError);
  config = ring_config(0.1);
  config.route_hops.pop_back();
  EXPECT_THROW(sim::run_des(config), fap::util::PreconditionError);
  // Remote accesses would arrive at t = inf and silently drop out of the
  // statistics.
  config = ring_config(std::numeric_limits<double>::infinity());
  EXPECT_THROW(sim::run_des(config), fap::util::PreconditionError);
}

}  // namespace
