#include <gtest/gtest.h>

#include <cmath>

#include "net/generators.hpp"
#include "net/shortest_paths.hpp"
#include "net/topology.hpp"
#include "net/virtual_ring.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

namespace net = fap::net;
using fap::util::PreconditionError;

TEST(Topology, EdgeValidation) {
  net::Topology topology(3);
  topology.add_edge(0, 1, 2.0);
  EXPECT_TRUE(topology.has_edge(0, 1));
  EXPECT_TRUE(topology.has_edge(1, 0));
  EXPECT_FALSE(topology.has_edge(0, 2));
  EXPECT_THROW(topology.add_edge(0, 0, 1.0), PreconditionError);  // self-loop
  EXPECT_THROW(topology.add_edge(0, 1, 1.0), PreconditionError);  // duplicate
  EXPECT_THROW(topology.add_edge(0, 3, 1.0), PreconditionError);  // range
  EXPECT_THROW(topology.add_edge(0, 2, 0.0), PreconditionError);  // zero cost
}

TEST(Topology, NeighborsRecordCosts) {
  net::Topology topology(3);
  topology.add_edge(0, 1, 2.5);
  topology.add_edge(0, 2, 1.5);
  const auto& neighbors = topology.neighbors(0);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0].node, 1u);
  EXPECT_DOUBLE_EQ(neighbors[0].cost, 2.5);
}

TEST(Topology, ConnectivityDetection) {
  net::Topology topology(4);
  topology.add_edge(0, 1, 1.0);
  topology.add_edge(2, 3, 1.0);
  EXPECT_FALSE(topology.connected());
  topology.add_edge(1, 2, 1.0);
  EXPECT_TRUE(topology.connected());
}

TEST(ShortestPaths, RingDistances) {
  // 4-ring with unit costs: opposite nodes at distance 2, adjacent at 1.
  const net::Topology ring = net::make_ring(4, 1.0);
  const net::CostMatrix matrix = net::all_pairs_shortest_paths(ring);
  EXPECT_DOUBLE_EQ(matrix.cost(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(matrix.cost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(matrix.cost(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(matrix.cost(0, 3), 1.0);
}

TEST(ShortestPaths, PrefersCheapDetour) {
  // Direct edge 0-1 costs 10; the detour through 2 costs 3.
  net::Topology topology(3);
  topology.add_edge(0, 1, 10.0);
  topology.add_edge(0, 2, 1.0);
  topology.add_edge(2, 1, 2.0);
  const net::CostMatrix matrix = net::all_pairs_shortest_paths(topology);
  EXPECT_DOUBLE_EQ(matrix.cost(0, 1), 3.0);
}

TEST(ShortestPaths, SymmetricForUndirectedGraphs) {
  fap::util::Rng rng(31);
  const net::Topology topology = net::make_random_metric(12, 3, rng);
  const net::CostMatrix matrix = net::all_pairs_shortest_paths(topology);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      EXPECT_DOUBLE_EQ(matrix.cost(i, j), matrix.cost(j, i));
    }
  }
}

TEST(ShortestPaths, TriangleInequality) {
  fap::util::Rng rng(37);
  const net::Topology topology = net::make_erdos_renyi(10, 0.4, 0.5, 3.0, rng);
  const net::CostMatrix matrix = net::all_pairs_shortest_paths(topology);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      for (std::size_t k = 0; k < 10; ++k) {
        EXPECT_LE(matrix.cost(i, j),
                  matrix.cost(i, k) + matrix.cost(k, j) + 1e-12);
      }
    }
  }
}

TEST(ShortestPaths, RejectsDisconnectedTopology) {
  net::Topology topology(4);
  topology.add_edge(0, 1, 1.0);
  topology.add_edge(2, 3, 1.0);
  EXPECT_THROW(net::all_pairs_shortest_paths(topology), PreconditionError);
}

TEST(ShortestPaths, NextHopsFollowLeastCostRoutes) {
  net::Topology topology(4);  // line 0-1-2-3
  topology.add_edge(0, 1, 1.0);
  topology.add_edge(1, 2, 1.0);
  topology.add_edge(2, 3, 1.0);
  const std::vector<net::NodeId> hops = net::dijkstra_next_hops(topology, 0);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[2], 1u);
  EXPECT_EQ(hops[3], 1u);
}

TEST(CostMatrix, UncheckedAccessorsAgreeWithCheckedOnes) {
  fap::util::Rng rng(13);
  const net::Topology topology = net::make_random_metric(12, 3, rng);
  const net::CostMatrix matrix = net::all_pairs_shortest_paths(topology);
  for (std::size_t i = 0; i < matrix.node_count(); ++i) {
    const double* row = matrix.row(i);
    for (std::size_t j = 0; j < matrix.node_count(); ++j) {
      ASSERT_EQ(matrix.cost(i, j), matrix(i, j));
      ASSERT_EQ(matrix.cost(i, j), row[j]);
    }
  }
}

struct GeneratorCase {
  const char* name;
  std::size_t nodes;
  std::size_t expected_edges;  // 0 means "do not check"
};

class GeneratorTest : public ::testing::TestWithParam<GeneratorCase> {};

net::Topology build(const GeneratorCase& c, fap::util::Rng& rng) {
  const std::string name = c.name;
  if (name == "ring") return net::make_ring(c.nodes, 1.0);
  if (name == "complete") return net::make_complete(c.nodes, 1.0);
  if (name == "star") return net::make_star(c.nodes, 1.0);
  if (name == "line") return net::make_line(c.nodes, 1.0);
  if (name == "grid") return net::make_grid(3, c.nodes / 3, 1.0);
  if (name == "erdos") return net::make_erdos_renyi(c.nodes, 0.3, 1.0, 2.0, rng);
  return net::make_random_metric(c.nodes, 2, rng);
}

TEST_P(GeneratorTest, ProducesConnectedTopologyOfRightSize) {
  fap::util::Rng rng(41);
  const GeneratorCase c = GetParam();
  const net::Topology topology = build(c, rng);
  if (std::string(c.name) == "grid") {
    EXPECT_EQ(topology.node_count(), 3 * (c.nodes / 3));
  } else {
    EXPECT_EQ(topology.node_count(), c.nodes);
  }
  EXPECT_TRUE(topology.connected());
  if (c.expected_edges > 0) {
    EXPECT_EQ(topology.edge_count(), c.expected_edges);
  }
  for (const net::Edge& edge : topology.edges()) {
    EXPECT_GT(edge.cost, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorTest,
    ::testing::Values(GeneratorCase{"ring", 6, 6},
                      GeneratorCase{"complete", 6, 15},
                      GeneratorCase{"star", 6, 5},
                      GeneratorCase{"line", 6, 5},
                      GeneratorCase{"grid", 9, 12},   // 3x3 grid
                      GeneratorCase{"erdos", 12, 0},
                      GeneratorCase{"metric", 15, 0}),
    [](const ::testing::TestParamInfo<GeneratorCase>& info) {
      return std::string(info.param.name);
    });

TEST(Generators, RingWithPerLinkCosts) {
  const net::Topology ring = net::make_ring(4, {4.0, 1.0, 1.0, 1.0});
  EXPECT_TRUE(ring.has_edge(0, 1));
  const auto& neighbors = ring.neighbors(0);
  // Node 0 connects to 1 (cost 4, link 0) and 3 (cost 1, link 3).
  double cost01 = 0.0;
  double cost03 = 0.0;
  for (const auto& nb : neighbors) {
    if (nb.node == 1) cost01 = nb.cost;
    if (nb.node == 3) cost03 = nb.cost;
  }
  EXPECT_DOUBLE_EQ(cost01, 4.0);
  EXPECT_DOUBLE_EQ(cost03, 1.0);
}

TEST(Generators, ErdosRenyiSparseFallsBackToSpanningChain) {
  fap::util::Rng rng(43);
  // p = 0 can never connect by luck; generator must still return a
  // connected topology via the spanning-chain fallback.
  const net::Topology topology =
      net::make_erdos_renyi(8, 0.0, 1.0, 2.0, rng, /*max_attempts=*/3);
  EXPECT_TRUE(topology.connected());
  EXPECT_EQ(topology.edge_count(), 7u);
}

TEST(VirtualRing, ForwardDistancesWrapAround) {
  const net::VirtualRing ring(std::vector<double>{4.0, 1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(ring.forward_distance(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(ring.forward_distance(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(ring.forward_distance(0, 3), 6.0);
  EXPECT_DOUBLE_EQ(ring.forward_distance(3, 0), 1.0);   // wraps
  EXPECT_DOUBLE_EQ(ring.forward_distance(1, 0), 3.0);   // 1->2->3->0
  EXPECT_EQ(ring.forward_hops(3, 1), 2u);
  EXPECT_EQ(ring.advance(3, 2), 1u);
}

TEST(VirtualRing, FromOrderUsesLeastCostRoutes) {
  // Star with hub 0: any two spokes are 2 apart through the hub.
  const net::Topology star = net::make_star(4, 1.0);
  const net::VirtualRing ring =
      net::VirtualRing::from_order(star, {1, 2, 3, 0});
  EXPECT_DOUBLE_EQ(ring.forward_cost(0), 2.0);  // spoke 1 -> spoke 2
  EXPECT_DOUBLE_EQ(ring.forward_cost(2), 1.0);  // spoke 3 -> hub 0
}

TEST(VirtualRing, FromOrderRejectsNonPermutation) {
  const net::Topology ring = net::make_ring(4, 1.0);
  EXPECT_THROW(net::VirtualRing::from_order(ring, {0, 1, 2, 2}),
               PreconditionError);
  EXPECT_THROW(net::VirtualRing::from_order(ring, {0, 1, 2}),
               PreconditionError);
}

}  // namespace
