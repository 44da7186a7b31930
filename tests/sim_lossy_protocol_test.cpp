// run_protocol over a faulty network: a network with no fault
// configured is bitwise the ideal trajectory, faulty runs converge to the
// lossless optimum, crash/rejoin degrades gracefully, drift stays
// guarded and corrected per constraint group, and everything replays
// bit-for-bit from the seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "core/allocator.hpp"
#include "core/multi_file.hpp"
#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "net/shortest_paths.hpp"
#include "sim/protocol_sim.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace {

namespace core = fap::core;
namespace net = fap::net;
namespace sim = fap::sim;

const std::vector<double> kStart{0.8, 0.1, 0.1, 0.0};

sim::ProtocolConfig base_config(sim::AggregationScheme scheme) {
  sim::ProtocolConfig config;
  config.scheme = scheme;
  config.algorithm.alpha = 0.3;
  config.algorithm.epsilon = 1e-5;
  config.algorithm.max_iterations = 5000;
  return config;
}

sim::ProtocolConfig faulty_config(sim::AggregationScheme scheme,
                                  double loss, std::uint64_t seed) {
  sim::ProtocolConfig config = base_config(scheme);
  config.unreliable.faults.loss = loss;
  config.unreliable.faults.seed = seed;
  config.unreliable.round_ticks = 16;
  config.unreliable.correction_interval = 4;
  return config;
}

TEST(LossyProtocol, FaultFreeUnreliablePathIsBitwiseTheIdealTrajectory) {
  // With no fault configured every report lands inside its round, even
  // at a tight deadline, so each scheme steps exactly as the centralized
  // driver does.
  const core::SingleFileModel model(core::make_paper_ring_problem());
  const core::AllocationResult ideal =
      core::ResourceDirectedAllocator(
          model, base_config(sim::AggregationScheme::kBroadcast).algorithm)
          .run(kStart);
  ASSERT_TRUE(ideal.converged);
  for (const auto scheme : {sim::AggregationScheme::kBroadcast,
                            sim::AggregationScheme::kCentralAgent}) {
    sim::ProtocolConfig fault_free = base_config(scheme);
    fault_free.unreliable.round_ticks = 4;
    const sim::ProtocolResult result =
        sim::run_protocol(model, kStart, fault_free);

    ASSERT_TRUE(result.converged);
    // Reallocation steps + the final round that detects termination.
    EXPECT_EQ(result.rounds, ideal.iterations + 1);
    ASSERT_EQ(result.x.size(), ideal.x.size());
    for (std::size_t i = 0; i < ideal.x.size(); ++i) {
      EXPECT_EQ(result.x[i], ideal.x[i]) << "component " << i;
    }
    EXPECT_EQ(result.robustness.retransmissions, 0u);
    EXPECT_EQ(result.robustness.messages_dropped, 0u);
    EXPECT_EQ(result.robustness.rounds_with_missing_reports, 0u);
    // Fresh views every round: only rounding residue in the sum.
    EXPECT_LT(result.robustness.max_feasibility_drift, 1e-12);
  }
}

TEST(LossyProtocol, TwentyPercentLossConvergesToTheLosslessCost) {
  // Loss <= 20% with retransmission on the Figure-3 ring lands within
  // 1e-6 of the lossless final cost. Under seed 7 the central agent also
  // replies at mid-round ahead of a retransmitted upload that still lands
  // in time: a round with no missing report but stale views, which the
  // agreement check must not take for a fresh one.
  const core::SingleFileModel model(core::make_paper_ring_problem());
  for (const auto scheme : {sim::AggregationScheme::kBroadcast,
                            sim::AggregationScheme::kCentralAgent}) {
    const sim::ProtocolResult lossless =
        sim::run_protocol(model, kStart, base_config(scheme));
    ASSERT_TRUE(lossless.converged);
    for (const std::uint64_t seed : {11u, 7u}) {
      const sim::ProtocolResult lossy = sim::run_protocol(
          model, kStart, faulty_config(scheme, /*loss=*/0.2, seed));
      ASSERT_TRUE(lossy.converged) << "seed " << seed;
      EXPECT_NEAR(lossy.cost, lossless.cost, 1e-6) << "seed " << seed;
      // The faults were real: the transport had to work for this.
      EXPECT_GT(lossy.robustness.retransmissions, 0u);
      EXPECT_GT(lossy.robustness.messages_dropped, 0u);
      EXPECT_LT(lossy.robustness.final_feasibility_drift, 1e-3);
    }
  }
}

TEST(LossyProtocol, ReplaysBitForBitFromTheSeed) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  const sim::ProtocolConfig config =
      faulty_config(sim::AggregationScheme::kBroadcast, 0.25, 42);
  const sim::ProtocolResult a = sim::run_protocol(model, kStart, config);
  const sim::ProtocolResult b = sim::run_protocol(model, kStart, config);
  // What the network carried; the message columns are the analytic
  // bill and would not see a different fault draw.
  const auto counters = [](const sim::ProtocolResult& r) {
    return std::make_tuple(r.robustness.data_messages_sent,
                           r.robustness.retransmissions,
                           r.robustness.messages_dropped,
                           r.robustness.duplicates_suppressed,
                           r.robustness.rounds_with_missing_reports);
  };
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(counters(a), counters(b));
  EXPECT_EQ(a.robustness.max_feasibility_drift,
            b.robustness.max_feasibility_drift);

  sim::ProtocolConfig other = config;
  other.unreliable.faults.seed = 43;
  const sim::ProtocolResult c = sim::run_protocol(model, kStart, other);
  EXPECT_NE(counters(a), counters(c));
}

TEST(LossyProtocol, DuplicationAndJitterAreAbsorbedByTheTransport) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  sim::ProtocolConfig config =
      faulty_config(sim::AggregationScheme::kBroadcast, 0.1, 7);
  config.unreliable.faults.duplicate = 0.3;
  config.unreliable.faults.jitter_ticks = 3;
  const sim::ProtocolResult result =
      sim::run_protocol(model, kStart, config);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.robustness.duplicates_suppressed, 0u);
  const sim::ProtocolResult lossless = sim::run_protocol(
      model, kStart, base_config(sim::AggregationScheme::kBroadcast));
  EXPECT_NEAR(result.cost, lossless.cost, 1e-6);
}

TEST(LossyProtocol, CrashAndRejoinDegradesGracefullyAndRecovers) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  sim::ProtocolConfig config =
      faulty_config(sim::AggregationScheme::kBroadcast, 0.05, 3);
  config.unreliable.round_ticks = 8;
  // Node 2 is down for rounds ~2..10 (ticks 16..80), then rejoins.
  config.unreliable.faults.crashes = {{2, 16, 80}};
  const sim::ProtocolResult result =
      sim::run_protocol(model, kStart, config);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.robustness.rounds_with_missing_reports, 0u);
  EXPECT_GT(result.robustness.messages_dropped, 0u);
  const sim::ProtocolResult lossless = sim::run_protocol(
      model, kStart, base_config(sim::AggregationScheme::kBroadcast));
  // The outage stalls progress but the optimum is still reached.
  EXPECT_NEAR(result.cost, lossless.cost, 1e-6);
  EXPECT_GE(result.rounds, lossless.rounds);
}

TEST(LossyProtocol, CentralAgentCrashStallsRoundsUntilRejoin) {
  // With the star's hub down nothing aggregates: those rounds all count
  // as missing-report rounds, and convergence still happens afterwards.
  const core::SingleFileModel model(core::make_paper_ring_problem());
  sim::ProtocolConfig config =
      faulty_config(sim::AggregationScheme::kCentralAgent, 0.0, 19);
  config.unreliable.round_ticks = 8;
  config.unreliable.faults.crashes = {{0, 8, 48}};  // hub down rounds 1..5
  const sim::ProtocolResult result =
      sim::run_protocol(model, kStart, config);
  ASSERT_TRUE(result.converged);
  EXPECT_GE(result.robustness.rounds_with_missing_reports, 5u);
  const sim::ProtocolResult lossless = sim::run_protocol(
      model, kStart, base_config(sim::AggregationScheme::kCentralAgent));
  EXPECT_NEAR(result.cost, lossless.cost, 1e-6);
  EXPECT_GT(result.rounds, lossless.rounds);
}

TEST(LossyProtocol, AntiEntropyBoundsDriftUnderHeavyLoss) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  sim::ProtocolConfig no_correction =
      faulty_config(sim::AggregationScheme::kBroadcast, 0.45, 23);
  no_correction.unreliable.correction_interval = 0;
  no_correction.unreliable.round_ticks = 4;  // tight deadline: stale views
  no_correction.unreliable.max_view_drift = 1e9;  // measure, don't guard
  no_correction.algorithm.max_iterations = 300;
  no_correction.algorithm.epsilon = 1e-7;  // don't stop early; measure drift
  const sim::ProtocolResult raw =
      sim::run_protocol(model, kStart, no_correction);

  sim::ProtocolConfig corrected = no_correction;
  corrected.unreliable.correction_interval = 4;
  const sim::ProtocolResult fixed =
      sim::run_protocol(model, kStart, corrected);

  EXPECT_GT(raw.robustness.max_feasibility_drift, 0.0);
  EXPECT_LE(fixed.robustness.final_feasibility_drift,
            raw.robustness.max_feasibility_drift + 1e-12);
}

TEST(LossyProtocol, RequiresSaneRounds) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  sim::ProtocolConfig config =
      faulty_config(sim::AggregationScheme::kBroadcast, 0.1, 1);
  config.unreliable.round_ticks = 0;
  EXPECT_THROW(sim::run_protocol(model, kStart, config),
               fap::util::PreconditionError);
  config.unreliable.round_ticks = 2;
  config.unreliable.faults.min_delay_ticks = 5;  // cannot fit in a round
  EXPECT_THROW(sim::run_protocol(model, kStart, config),
               fap::util::PreconditionError);
  // A central round carries an upload and then the reply: it needs two
  // delivery floors, even with no fault configured. One round is too few
  // for stale views to trip the drift guard, so only the deadline check
  // can throw here.
  sim::ProtocolConfig central =
      base_config(sim::AggregationScheme::kCentralAgent);
  central.algorithm.max_iterations = 1;
  central.unreliable.round_ticks = 1;
  EXPECT_THROW(sim::run_protocol(model, kStart, central),
               fap::util::PreconditionError);
  central.unreliable.round_ticks = 3;
  central.unreliable.faults.min_delay_ticks = 2;
  EXPECT_THROW(sim::run_protocol(model, kStart, central),
               fap::util::PreconditionError);
  // At the floor exactly, every view is fresh in every round.
  for (const auto scheme : {sim::AggregationScheme::kBroadcast,
                            sim::AggregationScheme::kCentralAgent}) {
    sim::ProtocolConfig tight = base_config(scheme);
    tight.unreliable.faults.min_delay_ticks = 2;
    tight.unreliable.round_ticks =
        scheme == sim::AggregationScheme::kCentralAgent ? 4 : 2;
    const sim::ProtocolResult result = sim::run_protocol(model, kStart, tight);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.robustness.rounds_with_missing_reports, 0u);
  }
}

TEST(LossyProtocol, TwoFileDriftIsGuardedAndCorrectedPerFile) {
  // Two files on a 2x3 grid: 12 agents (one per file and node) and one
  // conservation group per file. Reports under 30% loss and a tight
  // deadline go stale, so each file's Σx drifts between corrections.
  const net::Topology grid = net::make_grid(2, 3, 1.0);
  const core::MultiFileModel model(core::MultiFileProblem{
      net::all_pairs_shortest_paths(grid),
      {{0.05, 0.05, 0.2, 0.05, 0.05, 0.05},
       {0.2, 0.05, 0.05, 0.05, 0.05, 0.05}},
      std::vector<double>(6, 1.5),
      1.0,
      fap::queueing::DelayModel()});
  const std::vector<double> start = core::uniform_allocation(model);
  sim::ProtocolConfig config =
      faulty_config(sim::AggregationScheme::kBroadcast, 0.3, 5);
  config.algorithm.alpha = 0.15;
  config.algorithm.epsilon = 1e-12;  // never stop early
  config.unreliable.round_ticks = 4;
  const std::size_t interval = config.unreliable.correction_interval;

  // A run capped at r rounds is the first r rounds of a longer one, so
  // the allocation after every round is the final x of a capped run.
  double worst = 0.0;
  for (std::size_t rounds = 1; rounds <= 6 * interval; ++rounds) {
    config.algorithm.max_iterations = rounds;
    const sim::ProtocolResult result = sim::run_protocol(model, start, config);
    ASSERT_EQ(result.rounds, rounds);
    double final_drift = 0.0;
    for (std::size_t file = 0; file < 2; ++file) {
      double sum = 0.0;
      for (std::size_t node = 0; node < 6; ++node) {
        sum += result.x[file * 6 + node];
      }
      const double drift = std::fabs(sum - 1.0);
      EXPECT_LE(drift, config.unreliable.max_view_drift)
          << "file " << file << " after round " << rounds;
      if (rounds % interval == 0) {
        EXPECT_LT(drift, 1e-12)
            << "file " << file << " after correction round " << rounds;
      }
      final_drift = std::max(final_drift, drift);
    }
    EXPECT_EQ(result.robustness.final_feasibility_drift, final_drift);
    EXPECT_LE(result.robustness.max_feasibility_drift,
              config.unreliable.max_view_drift);
    worst = std::max(worst, final_drift);
  }
  // The faults were real: between corrections the files did drift.
  EXPECT_GT(worst, 1e-6);
}

}  // namespace
