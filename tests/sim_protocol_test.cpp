// The protocol realization must compute exactly what the centralized
// driver computes, and its message accounting must match the paper's
// Section 5.1 / 7.3 observations.
#include "sim/protocol_sim.hpp"

#include <gtest/gtest.h>

#include "core/allocator.hpp"
#include "core/ring_model.hpp"
#include "core/single_file.hpp"
#include "test_helpers.hpp"
#include "util/numeric.hpp"

namespace {

namespace core = fap::core;
namespace net = fap::net;
namespace sim = fap::sim;

core::AllocatorOptions paper_options() {
  core::AllocatorOptions options;
  options.alpha = 0.3;
  options.epsilon = 1e-3;
  options.record_trace = true;
  return options;
}

TEST(Protocol, TrajectoryIsBitwiseEqualToCentralizedDriver) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  sim::ProtocolConfig config;
  config.algorithm = paper_options();
  config.record_cost_trace = true;
  const sim::ProtocolResult protocol =
      sim::run_protocol(model, {0.8, 0.1, 0.1, 0.0}, config);

  const core::ResourceDirectedAllocator allocator(model, paper_options());
  const core::AllocationResult central = allocator.run({0.8, 0.1, 0.1, 0.0});

  ASSERT_TRUE(protocol.converged);
  ASSERT_TRUE(central.converged);
  ASSERT_EQ(protocol.x.size(), central.x.size());
  for (std::size_t i = 0; i < protocol.x.size(); ++i) {
    EXPECT_EQ(protocol.x[i], central.x[i]) << "component " << i;
  }
  // Rounds = reallocation steps + the final round that detects termination.
  EXPECT_EQ(protocol.rounds, central.iterations + 1);
}

TEST(Protocol, WorksOnRandomProblems) {
  for (const std::uint64_t seed : {2u, 9u, 31u}) {
    const core::SingleFileModel model(
        fap::testing::random_single_file_problem(seed, 6));
    sim::ProtocolConfig config;
    config.algorithm.alpha = 0.1;
    config.algorithm.epsilon = 1e-5;
    config.algorithm.max_iterations = 100000;
    const std::vector<double> start =
        fap::testing::random_feasible(model, seed);
    const sim::ProtocolResult result =
        sim::run_protocol(model, start, config);
    EXPECT_TRUE(result.converged) << "seed " << seed;
    EXPECT_LT(result.cost, model.cost(start)) << "seed " << seed;
    EXPECT_NEAR(fap::util::sum(result.x), 1.0, 1e-9);
  }
}

TEST(Protocol, MessageCountsBroadcastScheme) {
  sim::ProtocolConfig config;
  config.scheme = sim::AggregationScheme::kBroadcast;
  const sim::RoundMessageCost cost = sim::round_message_cost(10, config);
  EXPECT_EQ(cost.point_to_point, 90u);     // N(N-1)
  EXPECT_EQ(cost.broadcast_medium, 10u);   // one transmission per node
  EXPECT_EQ(cost.payload_doubles, 90u);    // one scalar per p2p message
}

TEST(Protocol, MessageCountsCentralAgentScheme) {
  sim::ProtocolConfig config;
  config.scheme = sim::AggregationScheme::kCentralAgent;
  const sim::RoundMessageCost cost = sim::round_message_cost(10, config);
  EXPECT_EQ(cost.point_to_point, 18u);     // 2(N-1)
  EXPECT_EQ(cost.broadcast_medium, 10u);   // N-1 uploads + 1 reply
  EXPECT_EQ(cost.payload_doubles, 18u);    // 9 up + 9 down, one scalar each
}

TEST(Protocol, SingleNodeExchangesNothing) {
  // A single node never transmits: the old accounting charged one
  // broadcast-medium transmission (and the central scheme one reply) to
  // a network of one. All counts must be zero, under every scheme and
  // payload mode.
  for (const auto scheme : {sim::AggregationScheme::kBroadcast,
                            sim::AggregationScheme::kCentralAgent}) {
    for (const bool full_allocation : {false, true}) {
      sim::ProtocolConfig config;
      config.scheme = scheme;
      config.needs_full_allocation = full_allocation;
      const sim::RoundMessageCost cost = sim::round_message_cost(1, config);
      EXPECT_EQ(cost.point_to_point, 0u);
      EXPECT_EQ(cost.broadcast_medium, 0u);
      EXPECT_EQ(cost.payload_doubles, 0u);
    }
  }
}

TEST(Protocol, SingleNodeRunConvergesWithZeroMessages) {
  // n = 1 end to end (the multicopy payload mode exercised for good
  // measure): the whole file sits on the only node, the protocol
  // detects termination in its first round, and — after the accounting
  // fix — reports zero traffic of any kind.
  const core::SingleFileModel model(
      core::SingleFileProblem{std::make_shared<net::DenseCostProvider>(
                                  std::make_shared<const net::CostMatrix>(1)),
                              {1.0},
                              {1.5},
                              /*k=*/1.0,
                              fap::queueing::DelayModel(),
                              /*comm_weight_rates=*/{},
                              /*storage_capacity=*/{},
                              /*access_cost_override=*/{}});
  sim::ProtocolConfig config;
  config.needs_full_allocation = true;
  config.algorithm = paper_options();
  const sim::ProtocolResult result = sim::run_protocol(model, {1.0}, config);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.x, (std::vector<double>{1.0}));
  EXPECT_EQ(result.point_to_point_messages, 0u);
  EXPECT_EQ(result.broadcast_medium_messages, 0u);
  EXPECT_EQ(result.payload_doubles, 0u);
}

TEST(Protocol, BroadcastAndCentralCoincideOnABroadcastMedium) {
  // Section 5.1: "in a broadcast environment ... these two schemes
  // require approximately the same number of messages".
  sim::ProtocolConfig broadcast;
  broadcast.scheme = sim::AggregationScheme::kBroadcast;
  sim::ProtocolConfig central;
  central.scheme = sim::AggregationScheme::kCentralAgent;
  for (const std::size_t n : {4u, 8u, 16u}) {
    EXPECT_EQ(sim::round_message_cost(n, broadcast).broadcast_medium,
              sim::round_message_cost(n, central).broadcast_medium);
  }
}

TEST(Protocol, MulticopyNeedsMorePayload) {
  // Section 7.3: with multiple copies each node must also learn the full
  // allocation, growing the payload.
  sim::ProtocolConfig single;
  sim::ProtocolConfig multi;
  multi.needs_full_allocation = true;
  for (const std::size_t n : {4u, 8u, 16u}) {
    EXPECT_GT(sim::round_message_cost(n, multi).payload_doubles,
              sim::round_message_cost(n, single).payload_doubles);
  }
  // Central-agent reply carries the whole allocation vector.
  sim::ProtocolConfig central_multi;
  central_multi.scheme = sim::AggregationScheme::kCentralAgent;
  central_multi.needs_full_allocation = true;
  const sim::RoundMessageCost cost =
      sim::round_message_cost(4, central_multi);
  EXPECT_EQ(cost.payload_doubles, 3u * 2u + 3u * (1u + 4u));
}

TEST(Protocol, MessageTotalsScaleWithRounds) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  sim::ProtocolConfig config;
  config.algorithm = paper_options();
  const sim::ProtocolResult result =
      sim::run_protocol(model, {0.8, 0.1, 0.1, 0.0}, config);
  const sim::RoundMessageCost per_round = sim::round_message_cost(4, config);
  EXPECT_EQ(result.point_to_point_messages,
            result.rounds * per_round.point_to_point);
  EXPECT_EQ(result.broadcast_medium_messages,
            result.rounds * per_round.broadcast_medium);
  EXPECT_EQ(result.payload_doubles, result.rounds * per_round.payload_doubles);
}

TEST(Protocol, RunsTheMulticopyRingObjective) {
  const core::RingModel model{
      core::make_paper_ring_problem({1.0, 1.0, 1.0, 1.0})};
  sim::ProtocolConfig config;
  config.needs_full_allocation = true;
  config.algorithm.alpha = 0.05;
  config.algorithm.epsilon = 5e-3;
  config.algorithm.max_iterations = 2000;
  const sim::ProtocolResult result =
      sim::run_protocol(model, {0.9, 0.5, 0.35, 0.25}, config);
  EXPECT_LT(result.cost, model.cost({0.9, 0.5, 0.35, 0.25}));
  EXPECT_NEAR(fap::util::sum(result.x), 2.0, 1e-9);
}

TEST(Protocol, CostTraceRecordsEveryRound) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  sim::ProtocolConfig config;
  config.algorithm = paper_options();
  config.record_cost_trace = true;
  const sim::ProtocolResult result =
      sim::run_protocol(model, {0.8, 0.1, 0.1, 0.0}, config);
  // One cost entry per non-terminal round.
  EXPECT_EQ(result.cost_trace.size(), result.rounds - 1);
  for (std::size_t t = 1; t < result.cost_trace.size(); ++t) {
    EXPECT_LE(result.cost_trace[t], result.cost_trace[t - 1] + 1e-12);
  }
}

}  // namespace
