// The protocol realization must compute exactly what the centralized
// driver computes, and its message accounting must match the paper's
// Section 5.1 / 7.3 observations.
#include "sim/protocol_sim.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/allocator.hpp"
#include "core/ring_model.hpp"
#include "core/single_file.hpp"
#include "net/generators.hpp"
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

// The multicopy ring run of RunsTheMulticopyRingObjective (two copies on
// the paper ring), with a cost trace over every round.
sim::ProtocolConfig ring_m2_config() {
  sim::ProtocolConfig config;
  config.needs_full_allocation = true;
  config.record_cost_trace = true;
  config.algorithm.alpha = 0.05;
  config.algorithm.epsilon = 5e-3;
  config.algorithm.max_iterations = 2000;
  return config;
}

TEST(Protocol, TrajectoryIsBitwiseEqualToCentralizedDriver) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  const core::ResourceDirectedAllocator allocator(model, paper_options());
  const core::AllocationResult central = allocator.run({0.8, 0.1, 0.1, 0.0});
  ASSERT_TRUE(central.converged);

  // A fault-free network lands every report inside its round, so neither
  // the scheme nor the round deadline may show in the trajectory.
  for (const auto scheme : {sim::AggregationScheme::kBroadcast,
                            sim::AggregationScheme::kCentralAgent}) {
    for (const std::uint64_t round_ticks : {4u, 16u}) {
      sim::ProtocolConfig config;
      config.scheme = scheme;
      config.algorithm = paper_options();
      config.record_cost_trace = true;
      config.unreliable.round_ticks = round_ticks;
      const sim::ProtocolResult protocol =
          sim::run_protocol(model, {0.8, 0.1, 0.1, 0.0}, config);

      ASSERT_TRUE(protocol.converged);
      ASSERT_EQ(protocol.x.size(), central.x.size());
      for (std::size_t i = 0; i < protocol.x.size(); ++i) {
        EXPECT_EQ(protocol.x[i], central.x[i]) << "component " << i;
      }
      // Rounds = reallocation steps + the final round that detects
      // termination.
      EXPECT_EQ(protocol.rounds, central.iterations + 1);
      EXPECT_EQ(protocol.robustness.retransmissions, 0u);
      EXPECT_EQ(protocol.robustness.messages_dropped, 0u);
      EXPECT_EQ(protocol.robustness.rounds_with_missing_reports, 0u);
      // Fresh views every round: only rounding residue in the sum.
      EXPECT_LT(protocol.robustness.max_feasibility_drift, 1e-12);
    }
  }

  // The multicopy ring (m = 2), where every node needs the full
  // allocation, run to its 2,000-round cap.
  const core::RingModel ring{
      core::make_paper_ring_problem({1.0, 1.0, 1.0, 1.0})};
  const sim::ProtocolConfig ring_config = ring_m2_config();
  const std::vector<double> ring_start{0.9, 0.5, 0.35, 0.25};
  const core::AllocationResult ring_central =
      core::ResourceDirectedAllocator(ring, ring_config.algorithm)
          .run(ring_start);
  const sim::ProtocolResult ring_protocol =
      sim::run_protocol(ring, ring_start, ring_config);
  EXPECT_EQ(ring_protocol.converged, ring_central.converged);
  EXPECT_EQ(ring_protocol.rounds,
            ring_central.iterations + (ring_central.converged ? 1 : 0));
  EXPECT_EQ(ring_protocol.x, ring_central.x);
  EXPECT_EQ(ring_protocol.robustness.rounds_with_missing_reports, 0u);
}

// FNV-1a over the bits of a run's cost and of every cost-trace entry.
std::uint64_t cost_digest(const sim::ProtocolResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](double value) {
    const auto word = std::bit_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(result.cost);
  for (const double cost : result.cost_trace) {
    mix(cost);
  }
  return hash;
}

// Golden pins of the fault-free runs whose output is printed: A5's
// end-to-end runs (bench/protocol_messages), the 6-node star of
// examples/protocol_trace under both schemes, and the ring m = 2 run
// above. The values were recorded before the protocol had a single
// network engine; the cost digest covers the last bits, which the
// printed tables round away.
TEST(Protocol, PrintedFaultFreeRunsGoldenPin) {
  struct Pin {
    const char* name;
    std::size_t rounds;
    std::size_t point_to_point;
    std::size_t broadcast_medium;
    std::size_t payload_doubles;
    std::uint64_t cost_digest;
  };
  const auto check = [](const Pin& pin, const sim::ProtocolResult& result) {
    SCOPED_TRACE(pin.name);
    EXPECT_EQ(result.rounds, pin.rounds);
    EXPECT_EQ(result.point_to_point_messages, pin.point_to_point);
    EXPECT_EQ(result.broadcast_medium_messages, pin.broadcast_medium);
    EXPECT_EQ(result.payload_doubles, pin.payload_doubles);
    EXPECT_EQ(cost_digest(result), pin.cost_digest)
        << std::hex << "0x" << cost_digest(result);
  };
  const auto schemes = {sim::AggregationScheme::kBroadcast,
                        sim::AggregationScheme::kCentralAgent};

  const Pin a5[] = {
      {"A5 broadcast", 10, 120, 40, 120, 0x9fed91363484438aULL},
      {"A5 central agent", 10, 60, 40, 60, 0x9fed91363484438aULL},
  };
  const core::SingleFileModel paper_ring(core::make_paper_ring_problem());
  for (const auto scheme : schemes) {
    sim::ProtocolConfig config;
    config.scheme = scheme;
    config.algorithm.alpha = 0.3;
    config.algorithm.epsilon = 1e-3;
    check(a5[static_cast<std::size_t>(scheme)],
          sim::run_protocol(paper_ring, {0.8, 0.1, 0.1, 0.0}, config));
  }

  const Pin star_pins[] = {
      {"star broadcast", 29, 870, 174, 870, 0x6c3515ef874c0b67ULL},
      {"star central agent", 29, 290, 174, 290, 0xe306c46824cfbbd5ULL},
  };
  core::Workload workload;
  workload.lambda = {0.05, 0.15, 0.10, 0.25, 0.20, 0.05};
  const core::SingleFileModel star(
      core::make_problem(net::make_star(6, 1.0), workload, 1.3, 1.0));
  for (const auto scheme : schemes) {
    sim::ProtocolConfig config;
    config.scheme = scheme;
    config.algorithm.alpha = 0.2;
    config.algorithm.epsilon = 1e-4;
    config.algorithm.max_iterations = 10000;
    // The example traces the broadcast run's cost only.
    config.record_cost_trace =
        scheme == sim::AggregationScheme::kBroadcast;
    check(star_pins[static_cast<std::size_t>(scheme)],
          sim::run_protocol(star, core::uniform_allocation(star), config));
  }

  const core::RingModel ring{
      core::make_paper_ring_problem({1.0, 1.0, 1.0, 1.0})};
  check({"ring m = 2", 2000, 24000, 8000, 48000, 0xc6f11dd6fe2847b9ULL},
        sim::run_protocol(ring, {0.9, 0.5, 0.35, 0.25}, ring_m2_config()));
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
