// Deterministic fault-injecting virtual network.
//
// The protocol realization in protocol_sim.hpp exchanges its reports
// over this network. With no fault configured it is the perfect delivery
// of Section 5.1; Section 8 of the paper imagines much looser operation
// ("successive iterations of the algorithm can be run at freely spaced
// intervals", nodes that come and go). With faults this module is the
// misbehaving medium for that regime: unicast datagrams between nodes
// suffer per-transmission loss, duplication, and bounded random delay
// (which yields reordering), and nodes crash and rejoin on a script.
//
// Every random decision draws from one seeded util::Rng owned by the
// network, and delivery order is a pure function of (deliver_tick,
// scheduling order), so a run is bit-reproducible from FaultConfig::seed
// alone — independent of wall clock, thread count, or address layout.
// The runtime sweeps hand each task its own seed, which keeps
// `--jobs N` byte-identical to `--jobs 1`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace fap::sim {

/// One scripted outage: `node` is down (sends refused, deliveries
/// dropped) for every tick in [down_tick, up_tick).
struct CrashEvent {
  std::size_t node = 0;
  std::uint64_t down_tick = 0;
  std::uint64_t up_tick = 0;
};

/// Fault-injection knobs. All probabilities are per transmission (a
/// duplicate copy draws its own delay but is never re-duplicated).
struct FaultConfig {
  double loss = 0.0;       ///< P(a transmission vanishes), in [0, 1]
  double duplicate = 0.0;  ///< P(a surviving transmission is delivered twice)
  /// Floor latency in ticks; must be >= 1 (delivery is never same-tick).
  std::uint64_t min_delay_ticks = 1;
  /// Extra delay drawn uniformly from {0, ..., jitter_ticks}; unequal
  /// draws reorder messages (reordering is bounded by this window).
  std::uint64_t jitter_ticks = 0;
  std::vector<CrashEvent> crashes;
  std::uint64_t seed = 1;
};

/// What the network carries. `kind` and `seq` belong to the transport
/// layer (reliable_transport.hpp); `tag` and `payload` to the
/// application. The network treats all of it as opaque cargo.
struct Datagram {
  std::size_t from = 0;
  std::size_t to = 0;
  std::uint32_t kind = 0;
  std::uint64_t seq = 0;
  std::uint64_t tag = 0;
  std::vector<double> payload;
};

struct NetworkStats {
  std::size_t sent = 0;       ///< send() calls accepted from an up node
  std::size_t delivered = 0;  ///< datagrams handed out by tick()
  std::size_t dropped_loss = 0;
  std::size_t dropped_crash = 0;  ///< sender down at send or receiver at delivery
  std::size_t duplicates_injected = 0;
};

class LossyNetwork {
 public:
  /// Validates the config (probabilities in [0, 1], min delay >= 1,
  /// crash windows well-formed and in range).
  LossyNetwork(std::size_t nodes, FaultConfig config);

  std::size_t node_count() const noexcept { return nodes_; }
  std::uint64_t now() const noexcept { return now_; }

  /// True when `node` is not inside any scripted outage at `tick`.
  bool node_up(std::size_t node, std::uint64_t tick) const;
  bool node_up(std::size_t node) const { return node_up(node, now_); }

  /// Submits a datagram at the current tick. A down sender loses the
  /// datagram outright (counted in dropped_crash); otherwise the fault
  /// draws decide loss, delay, and duplication.
  void send(Datagram datagram);

  /// Advances the clock one tick and returns the datagrams due at the
  /// new time, in deterministic (deliver_tick, scheduling) order.
  /// Datagrams addressed to a node that is down at delivery time are
  /// dropped and counted in dropped_crash.
  std::vector<Datagram> tick();

  /// Datagrams scheduled but not yet delivered (for tests).
  std::size_t in_flight() const noexcept { return queue_.size(); }

  const NetworkStats& stats() const noexcept { return stats_; }

 private:
  struct InFlight {
    std::uint64_t deliver_tick = 0;
    std::uint64_t order = 0;  ///< tie-break: scheduling sequence number
    Datagram datagram;
  };

  void schedule(Datagram datagram);

  std::size_t nodes_;
  FaultConfig config_;
  util::Rng rng_;
  std::uint64_t now_ = 0;
  std::uint64_t next_order_ = 0;
  std::vector<InFlight> queue_;  ///< min-heap on (deliver_tick, order)
  NetworkStats stats_;
};

}  // namespace fap::sim
