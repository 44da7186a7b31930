// Message-passing realization of the decentralized algorithm.
//
// Section 5.1 describes two aggregation schemes for the per-iteration
// exchange of marginal utilities: every node broadcasts to every other
// node (and each computes the average locally), or every node sends to a
// designated central agent which replies with the average. This module
// executes the algorithm *as that protocol*: each node holds only its own
// allocation fragment and a view of the others; each round the nodes
// exchange reports through a virtual network, then every node
// independently runs the identical deterministic update on the view it
// received.
//
// There is one network: LossyNetwork (sim/lossy_network.hpp) bridged by
// an ack/retransmit transport (sim/reliable_transport.hpp), configured by
// ProtocolConfig::unreliable. Its FaultConfig may inject per-message
// loss, duplication and bounded reordering plus scripted node
// crash/rejoin:
//   * with none of them configured it is the paper's ideal network —
//     lossless and in order. The round deadline must cover the exchange
//     (one delivery floor for kBroadcast, two for kCentralAgent's upload
//     and reply; the default is 16 ticks against a 1-tick floor), so
//     every report lands inside its round, every round leaves every view
//     equal to the true allocation (asserted), and a test pins the
//     trajectory to the centralized driver's, bitwise;
//   * with faults, reports that miss a round's deadline leave the
//     receivers stepping from stale views — the Section-8 regime measured
//     by sim/async_protocol — so each constraint group's Σx drifts;
//     optional anti-entropy renormalization bounds the drift, and per-run
//     robustness metrics (retransmissions, drops, duplicates suppressed,
//     rounds with missing reports, drift) are reported in ProtocolResult.
//     A node that hears nothing at all in a round holds its fragment — a
//     total blackout (e.g. the central agent down) stalls the protocol
//     instead of diverging it.
//
// The module also accounts for message and payload costs, reproducing two
// of the paper's observations:
//   * "in a broadcast environment, such as a local area network, these two
//     schemes require approximately the same number of messages" — we
//     report both point-to-point and broadcast-medium message counts;
//   * Section 7.3: with multiple copies "each node needs to know the
//     allocation at every other node in order to ... determine which nodes
//     are going [to] make an access there", so per-message payload grows
//     from one scalar (∂U/∂x_i) to the pair (∂U/∂x_i, x_i), and the
//     central agent's reply grows from one scalar to the full allocation
//     vector.
// Those columns are the paper's bill, rounds × round_message_cost. The
// simulated datagrams carry each report's fragment alone: every agent
// evaluates the marginal utilities on its own view.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/allocator.hpp"
#include "core/cost_model.hpp"
#include "sim/lossy_network.hpp"
#include "sim/reliable_transport.hpp"

namespace fap::sim {

enum class AggregationScheme {
  kBroadcast,     ///< all-to-all exchange; averages computed locally
  kCentralAgent,  ///< star exchange through node 0
};

/// The network run_protocol exchanges reports over: ReliableTransport on
/// LossyNetwork. The default FaultConfig injects no fault, which is the
/// ideal synchronous network; `faults.seed` makes a faulty run
/// reproducible.
struct UnreliableNetworkConfig {
  FaultConfig faults;
  TransportConfig transport;
  /// Transport ticks per protocol round — the round deadline. Reports
  /// (and, for kCentralAgent, the reply) that are not delivered within
  /// the round leave the receivers on stale views for this update. Must
  /// be at least faults.min_delay_ticks, twice that for kCentralAgent.
  std::uint64_t round_ticks = 16;
  /// Every this many rounds, one synchronized exact renormalization
  /// restores each group's Σx = total over its live nodes (0 disables
  /// anti-entropy; same remedy as sim/async_protocol).
  std::size_t correction_interval = 0;
  /// How much conservation-sum drift an agent's stale view may carry
  /// into core::ResourceDirectedAllocator::step_with_drift before the
  /// run aborts (a guard against runaway divergence, not a tuning knob).
  double max_view_drift = 0.5;
};

struct ProtocolConfig {
  AggregationScheme scheme = AggregationScheme::kBroadcast;
  core::AllocatorOptions algorithm;
  /// True when nodes cannot evaluate their marginal utility from their own
  /// fragment alone and need the full allocation vector (the multicopy
  /// ring model); affects payload accounting.
  bool needs_full_allocation = false;
  bool record_cost_trace = false;
  /// The network and its faults; the default injects none.
  UnreliableNetworkConfig unreliable;
};

/// What the network actually carried, and how far the allocation drifted
/// from each group's total.
struct RobustnessStats {
  std::size_t data_messages_sent = 0;   ///< first transmissions
  std::size_t retransmissions = 0;      ///< timer-driven re-sends
  std::size_t messages_dropped = 0;     ///< network loss + crash drops
  std::size_t duplicates_suppressed = 0;
  /// Rounds where some live node missed at least one expected fresh
  /// report (or reply) by the round deadline.
  std::size_t rounds_with_missing_reports = 0;
  /// max_t of the largest |Σ_group x(t) - total| over the groups.
  double max_feasibility_drift = 0.0;
  double final_feasibility_drift = 0.0;  ///< the same at the final x
};

struct ProtocolResult {
  std::vector<double> x;
  double cost = 0.0;
  bool converged = false;
  std::size_t rounds = 0;
  // The three message columns are the Section 5.1/7.3 bill of the rounds
  // run (rounds × round_message_cost), under any network.
  /// Unicast messages if every transmission is point-to-point.
  std::size_t point_to_point_messages = 0;
  /// Transmissions if the medium supports physical broadcast (LAN).
  std::size_t broadcast_medium_messages = 0;
  /// Total scalars carried by all messages.
  std::size_t payload_doubles = 0;
  std::vector<double> cost_trace;  ///< cost after each round (if recorded)
  RobustnessStats robustness;
};

/// Per-round message accounting for one iteration with n nodes under the
/// given configuration (exposed for tests and the A5 bench). A single
/// node exchanges nothing: every count is zero at n = 1.
struct RoundMessageCost {
  std::size_t point_to_point = 0;
  std::size_t broadcast_medium = 0;
  std::size_t payload_doubles = 0;
};
RoundMessageCost round_message_cost(std::size_t nodes,
                                    const ProtocolConfig& config);

/// Executes the decentralized protocol on `model` from `initial`, one
/// agent per variable. Drift, anti-entropy and the renormalized shadow
/// are kept per constraint group.
ProtocolResult run_protocol(const core::CostModel& model,
                            std::vector<double> initial,
                            const ProtocolConfig& config);

}  // namespace fap::sim
