#include "sim/lossy_network.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"

namespace fap::sim {

LossyNetwork::LossyNetwork(std::size_t nodes, FaultConfig config)
    : nodes_(nodes), config_(std::move(config)), rng_(config_.seed) {
  FAP_EXPECTS(nodes_ >= 1, "network needs at least one node");
  FAP_EXPECTS(config_.loss >= 0.0 && config_.loss <= 1.0,
              "loss probability must lie in [0, 1]");
  FAP_EXPECTS(config_.duplicate >= 0.0 && config_.duplicate <= 1.0,
              "duplication probability must lie in [0, 1]");
  FAP_EXPECTS(config_.min_delay_ticks >= 1,
              "delivery takes at least one tick");
  for (const CrashEvent& crash : config_.crashes) {
    FAP_EXPECTS(crash.node < nodes_, "crash script names an unknown node");
    FAP_EXPECTS(crash.down_tick < crash.up_tick,
                "crash window must be non-empty (down_tick < up_tick)");
  }
}

bool LossyNetwork::node_up(std::size_t node, std::uint64_t tick) const {
  FAP_EXPECTS(node < nodes_, "node id out of range");
  for (const CrashEvent& crash : config_.crashes) {
    if (crash.node == node && tick >= crash.down_tick &&
        tick < crash.up_tick) {
      return false;
    }
  }
  return true;
}

void LossyNetwork::schedule(Datagram datagram) {
  std::uint64_t delay = config_.min_delay_ticks;
  if (config_.jitter_ticks > 0) {
    delay += rng_.uniform_index(config_.jitter_ticks + 1);
  }
  queue_.push_back(InFlight{now_ + delay, next_order_++, std::move(datagram)});
  std::push_heap(queue_.begin(), queue_.end(),
                 [](const InFlight& a, const InFlight& b) {
                   return a.deliver_tick > b.deliver_tick ||
                          (a.deliver_tick == b.deliver_tick &&
                           a.order > b.order);
                 });
}

void LossyNetwork::send(Datagram datagram) {
  FAP_EXPECTS(datagram.from < nodes_ && datagram.to < nodes_,
              "datagram endpoint out of range");
  FAP_EXPECTS(datagram.from != datagram.to,
              "the network carries no self-loops");
  if (!node_up(datagram.from)) {
    ++stats_.dropped_crash;
    return;
  }
  ++stats_.sent;
  if (config_.loss > 0.0 && rng_.uniform() < config_.loss) {
    ++stats_.dropped_loss;
    return;
  }
  const bool duplicated =
      config_.duplicate > 0.0 && rng_.uniform() < config_.duplicate;
  if (duplicated) {
    // The two copies are equal, so the injected one may take the first
    // delay draw; the original moves into the last.
    ++stats_.duplicates_injected;
    schedule(datagram);
  }
  schedule(std::move(datagram));
}

std::vector<Datagram> LossyNetwork::tick() {
  ++now_;
  const auto later = [](const InFlight& a, const InFlight& b) {
    return a.deliver_tick > b.deliver_tick ||
           (a.deliver_tick == b.deliver_tick && a.order > b.order);
  };
  std::vector<Datagram> due;
  while (!queue_.empty() && queue_.front().deliver_tick <= now_) {
    std::pop_heap(queue_.begin(), queue_.end(), later);
    InFlight arrived = std::move(queue_.back());
    queue_.pop_back();
    if (!node_up(arrived.datagram.to)) {
      ++stats_.dropped_crash;
      continue;
    }
    ++stats_.delivered;
    due.push_back(std::move(arrived.datagram));
  }
  return due;
}

}  // namespace fap::sim
