// Tests for the neighbors-only (gossip) algorithm of Section 8.2,
// including its structural invariants, convergence on interior optima,
// the message-cost advantage, and the documented dry-barrier limitation.
#include "core/neighbor_allocator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/projected_gradient.hpp"
#include "core/allocator.hpp"
#include "core/multi_file.hpp"
#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "net/shortest_paths.hpp"
#include "test_helpers.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace {

namespace core = fap::core;
namespace net = fap::net;

core::NeighborAllocatorOptions gossip_options(double alpha) {
  core::NeighborAllocatorOptions options;
  options.alpha = alpha;
  options.epsilon = 1e-4;
  options.max_iterations = 200000;
  options.record_trace = true;
  return options;
}

TEST(NeighborAllocator, ConvergesToTheOptimumOnThePaperRing) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  const net::Topology ring = net::make_ring(4, 1.0);
  const core::NeighborAllocator allocator(model, ring, gossip_options(0.1));
  const core::AllocationResult result = allocator.run({0.8, 0.1, 0.1, 0.0});
  ASSERT_TRUE(result.converged);
  for (const double xi : result.x) {
    EXPECT_NEAR(xi, 0.25, 2e-3);
  }
  EXPECT_NEAR(result.cost, 1.8, 1e-4);
}

TEST(NeighborAllocator, FeasibleAndMonotoneEveryIteration) {
  const core::SingleFileModel model(
      fap::testing::random_single_file_problem(3, 7));
  fap::util::Rng rng(55);
  const net::Topology graph = net::make_erdos_renyi(7, 0.5, 1.0, 2.0, rng);
  core::NeighborAllocatorOptions options = gossip_options(0.03);
  options.max_iterations = 5000;
  const core::NeighborAllocator allocator(model, graph, options);
  const core::AllocationResult result =
      allocator.run(fap::testing::random_feasible(model, 8));
  ASSERT_FALSE(result.trace.empty());
  for (std::size_t t = 0; t < result.trace.size(); ++t) {
    EXPECT_NEAR(fap::util::sum(result.trace[t].x), 1.0, 1e-9);
    for (const double xi : result.trace[t].x) {
      EXPECT_GE(xi, 0.0);
    }
    if (t > 0) {
      EXPECT_LE(result.trace[t].cost, result.trace[t - 1].cost + 1e-10);
    }
  }
}

class NeighborTopologyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(NeighborTopologyTest, ReachesTheGlobalOptimumWhenInteriorOnManyGraphs) {
  const std::string name = GetParam();
  const std::size_t n = 8;
  net::Topology graph = net::make_ring(n, 1.0);
  if (name == "complete") {
    graph = net::make_complete(n, 1.0);
  } else if (name == "star") {
    graph = net::make_star(n, 1.0);
  } else if (name == "line") {
    graph = net::make_line(n, 1.0);
  } else if (name == "grid") {
    graph = net::make_grid(2, 4, 1.0);
  }
  // The optimization network equals the communication graph.
  const core::SingleFileModel model(core::make_problem(
      graph, core::Workload::uniform(n, 1.0), /*mu=*/1.5, /*k=*/1.0));
  core::NeighborAllocatorOptions options = gossip_options(0.05);
  options.epsilon = 1e-5;
  const core::NeighborAllocator allocator(model, graph, options);
  std::vector<double> start(n, 0.0);
  start[0] = 1.0;
  const core::AllocationResult result = allocator.run(start);
  ASSERT_TRUE(result.converged) << name;

  const auto reference = fap::baselines::projected_gradient_solve(
      model, core::uniform_allocation(model));
  EXPECT_NEAR(result.cost, reference.cost, 1e-4 * (1.0 + reference.cost))
      << name;
}

INSTANTIATE_TEST_SUITE_P(Topologies, NeighborTopologyTest,
                         ::testing::Values("ring", "complete", "star", "line",
                                           "grid"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(NeighborAllocator, MessageCountIsTwoPerEdge) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  const net::Topology ring = net::make_ring(4, 1.0);
  const core::NeighborAllocator allocator(model, ring, gossip_options(0.1));
  EXPECT_EQ(allocator.messages_per_iteration(), 8u);  // 2 * 4 edges
  // Compare: broadcast needs N(N-1) = 12 — and the gap widens with N.
}

TEST(NeighborAllocator, SlowerThanBroadcastButCheaperPerRoundOnSparseGraphs) {
  const std::size_t n = 12;
  const net::Topology ring = net::make_ring(n, 1.0);
  const core::SingleFileModel model(core::make_problem(
      ring, core::Workload::uniform(n, 1.0), /*mu=*/1.5, /*k=*/1.0));
  std::vector<double> start(n, 0.0);
  start[0] = 1.0;

  core::NeighborAllocatorOptions gossip = gossip_options(0.1);
  gossip.epsilon = 1e-3;
  const core::NeighborAllocator neighbor(model, ring, gossip);
  const core::AllocationResult gossip_run = neighbor.run(start);
  ASSERT_TRUE(gossip_run.converged);

  core::AllocatorOptions broadcast;
  broadcast.alpha = 0.3;
  broadcast.epsilon = 1e-3;
  broadcast.max_iterations = 100000;
  const core::ResourceDirectedAllocator global(model, broadcast);
  const core::AllocationResult broadcast_run = global.run(start);
  ASSERT_TRUE(broadcast_run.converged);

  // Diffusion takes more iterations on a diameter-6 ring...
  EXPECT_GT(gossip_run.iterations, broadcast_run.iterations);
  // ...but pays 2|E| = 24 messages per round instead of N(N-1) = 132.
  EXPECT_EQ(neighbor.messages_per_iteration(), 24u);
  EXPECT_LT(neighbor.messages_per_iteration(), n * (n - 1));
  // Both reach the same optimum.
  EXPECT_NEAR(gossip_run.cost, broadcast_run.cost, 1e-3);
}

TEST(NeighborAllocator, DryBarrierLimitationIsReal) {
  // Construct the documented pathological case: an expensive middle node
  // on a line graph separates two regions. The gossip algorithm comes to
  // rest with unequal marginal utilities across the barrier, strictly
  // worse than the global optimum found with all-to-all communication.
  const std::size_t n = 3;
  net::Topology line = net::make_line(n, 1.0);
  core::SingleFileProblem problem = core::make_problem(
      line, core::Workload::uniform(n, 1.0), /*mu=*/1.5, /*k=*/0.05);
  // Node 1 (the relay) is outrageously expensive to access.
  net::CostMatrix comm = net::all_pairs_shortest_paths(line);
  for (std::size_t j = 0; j < n; ++j) {
    if (j != 1) {
      comm.set_cost(j, 1, 200.0);
    }
  }
  problem.comm = std::make_shared<net::DenseCostProvider>(
      std::make_shared<const net::CostMatrix>(std::move(comm)));
  const core::SingleFileModel model(std::move(problem));

  core::NeighborAllocatorOptions options = gossip_options(0.02);
  options.epsilon = 1e-5;
  options.max_iterations = 400000;
  const core::NeighborAllocator allocator(model, line, options);
  // Start with everything at node 0; node 2 can only be reached through
  // the dry, expensive node 1.
  const core::AllocationResult gossip_run = allocator.run({1.0, 0.0, 0.0});

  const auto reference = fap::baselines::projected_gradient_solve(
      model, core::uniform_allocation(model));
  // Either the gossip run is stuck above the optimum, or (if mass dribbled
  // through before node 1 dried out) it matches; assert only that the
  // documented failure CAN be observed from this start.
  EXPECT_TRUE(gossip_run.converged);
  EXPECT_GT(gossip_run.cost, reference.cost + 1e-3)
      << "expected the dry-barrier rest point to be suboptimal";
}

TEST(NeighborAllocator, MultiFileGossipConservesEachFileSeparately) {
  // Two files diffusing over the same ring: per-group conservation and
  // convergence to the centralized optimum.
  const net::Topology ring = net::make_ring(4, 1.0);
  const core::MultiFileModel model(core::MultiFileProblem{
      net::all_pairs_shortest_paths(ring),
      {{0.15, 0.15, 0.05, 0.05}, {0.05, 0.05, 0.20, 0.10}},
      std::vector<double>(4, 1.5),
      1.0,
      fap::queueing::DelayModel()});
  core::NeighborAllocatorOptions options = gossip_options(0.1);
  options.epsilon = 1e-5;
  options.max_iterations = 500000;
  const core::NeighborAllocator allocator(model, ring, options);
  const core::AllocationResult result =
      allocator.run(core::uniform_allocation(model));
  ASSERT_TRUE(result.converged);
  double sum0 = 0.0;
  double sum1 = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    sum0 += result.x[model.index(0, i)];
    sum1 += result.x[model.index(1, i)];
  }
  EXPECT_NEAR(sum0, 1.0, 1e-9);
  EXPECT_NEAR(sum1, 1.0, 1e-9);
  const auto reference = fap::baselines::projected_gradient_solve(
      model, core::uniform_allocation(model));
  EXPECT_NEAR(result.cost, reference.cost, 1e-3 * (1.0 + reference.cost));
}

TEST(NeighborAllocator, RejectsInvalidSetups) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  const net::Topology wrong_size = net::make_ring(5, 1.0);
  EXPECT_THROW(core::NeighborAllocator(model, wrong_size,
                                       core::NeighborAllocatorOptions{}),
               fap::util::PreconditionError);
  net::Topology disconnected(4);
  disconnected.add_edge(0, 1, 1.0);
  disconnected.add_edge(2, 3, 1.0);
  EXPECT_THROW(core::NeighborAllocator(model, disconnected,
                                       core::NeighborAllocatorOptions{}),
               fap::util::PreconditionError);
}

}  // namespace
