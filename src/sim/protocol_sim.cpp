#include "sim/protocol_sim.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace fap::sim {

namespace {

// Σ_{i ∈ group} x_i, added in index order: for the one group over all
// variables this is util::sum(x) term for term.
double group_sum(const core::ConstraintGroup& group,
                 const std::vector<double>& x) {
  double sum = 0.0;
  for (const std::size_t i : group.indices) {
    sum += x[i];
  }
  return sum;
}

}  // namespace

RoundMessageCost round_message_cost(std::size_t nodes,
                                    const ProtocolConfig& config) {
  FAP_EXPECTS(nodes >= 1, "need at least one node");
  RoundMessageCost cost;
  if (nodes == 1) {
    // A single node holds the whole file and never transmits: no
    // point-to-point messages, no broadcast-medium transmissions, no
    // payload — under either scheme.
    return cost;
  }
  // Payload of one node's report: its marginal utility, plus its fragment
  // when other nodes cannot derive routing without it.
  const std::size_t report_payload = config.needs_full_allocation ? 2 : 1;
  if (config.scheme == AggregationScheme::kBroadcast) {
    // Every node reports to every other node.
    cost.point_to_point = nodes * (nodes - 1);
    // On a broadcast medium one transmission reaches everyone.
    cost.broadcast_medium = nodes;
    cost.payload_doubles = nodes * (nodes - 1) * report_payload;
  } else {
    // N-1 uploads to the central agent plus N-1 replies.
    cost.point_to_point = 2 * (nodes - 1);
    cost.broadcast_medium = (nodes - 1) + 1;  // uploads + one broadcast reply
    // Reply carries the average marginal utility — and the full allocation
    // vector when fragments alone do not determine routing (Section 7.3).
    const std::size_t reply_payload =
        config.needs_full_allocation ? 1 + nodes : 1;
    cost.payload_doubles =
        (nodes - 1) * report_payload + (nodes - 1) * reply_payload;
  }
  return cost;
}

// Reports travel through ReliableTransport over LossyNetwork, and a
// round is a fixed budget of transport ticks. Reports that miss the
// deadline leave receivers stepping from stale views
// (core::ResourceDirectedAllocator::step_with_drift), so Σx can drift
// exactly as in sim/async_protocol; optional anti-entropy
// renormalization restores it. With no fault configured every report
// lands inside its round (the deadline covers the exchange by
// precondition), every view equals the true allocation, and the
// trajectory is bitwise the centralized driver's (pinned by test).
ProtocolResult run_protocol(const core::CostModel& model,
                            std::vector<double> initial,
                            const ProtocolConfig& config) {
  model.check_feasible(initial);
  const std::size_t n = model.dimension();
  const std::vector<core::ConstraintGroup> groups = model.constraint_groups();
  const UnreliableNetworkConfig& un = config.unreliable;
  const bool central = config.scheme == AggregationScheme::kCentralAgent;
  FAP_EXPECTS(un.round_ticks >= 1, "a round needs at least one tick");
  // A round must fit the exchange at the delivery floor: one delivery for
  // kBroadcast, an upload and then the reply for kCentralAgent. A
  // fault-free run therefore leaves every view fresh in every round.
  FAP_EXPECTS(un.round_ticks >= (central ? 2 : 1) * un.faults.min_delay_ticks,
              "the exchange's delivery floor must fit inside one round");
  const bool faulty = un.faults.loss > 0.0 || un.faults.duplicate > 0.0 ||
                      un.faults.jitter_ticks > 0 ||
                      !un.faults.crashes.empty();

  LossyNetwork network(n, un.faults);
  ReliableTransport transport(network, un.transport);
  const core::ResourceDirectedAllocator stepper(model, config.algorithm);

  // Agent state. The starting allocation is globally known (exactly as
  // the centralized driver assumes), so every view begins at `initial`;
  // view[i][i] is agent i's authoritative fragment.
  std::vector<std::vector<double>> view(n, initial);
  // Freshness of i's knowledge of j (last applied report tag; a report
  // sent in round r carries tag r + 1, so 0 means "initial knowledge").
  std::vector<std::vector<std::uint64_t>> report_tag(
      n, std::vector<std::uint64_t>(n, 0));
  std::vector<std::uint64_t> reply_tag(n, 0);  // kCentralAgent only

  ProtocolResult result;
  result.x = std::move(initial);

  // The true allocation is the concatenation of the agents' own
  // fragments — what an omniscient observer (and the drift accounting)
  // sees. Crashed agents hold their fragment frozen.
  std::vector<double> x_true(n, 0.0);
  const auto assemble_true = [&]() {
    for (std::size_t i = 0; i < n; ++i) {
      x_true[i] = view[i][i];
    }
  };
  // A faulty run costs the renormalized shadow of its possibly drifted
  // allocation, group by group (async convention); a fault-free run
  // costs the true allocation, as the centralized driver does.
  std::vector<double> shadow(n, 0.0);
  const auto reported_cost = [&]() {
    if (!faulty) {
      return model.cost(x_true);
    }
    shadow = x_true;
    for (const core::ConstraintGroup& group : groups) {
      const double sum = group_sum(group, shadow);
      if (sum > 0.0) {
        for (const std::size_t i : group.indices) {
          shadow[i] *= group.total / sum;
        }
      }
    }
    return model.cost(shadow);
  };
  // max over groups of |Σ_group x − total|.
  const auto feasibility_drift = [&]() {
    double drift = 0.0;
    for (const core::ConstraintGroup& group : groups) {
      drift =
          std::max(drift, std::fabs(group_sum(group, x_true) - group.total));
    }
    return drift;
  };

  std::vector<bool> up(n, true);
  std::vector<std::vector<bool>> got(n, std::vector<bool>(n, false));
  std::vector<bool> got_reply(n, false);
  // Whether anything at all advanced i's view this round (a current or
  // late report/reply). A node that hears nothing has no new basis to
  // update and holds its fragment — a total blackout (say, the central
  // agent down) stalls the protocol instead of diverging it.
  std::vector<bool> advanced(n, false);
  std::vector<double> next_own(n, 0.0);

  for (std::size_t round = 0; round < config.algorithm.max_iterations;
       ++round) {
    const std::uint64_t tag = static_cast<std::uint64_t>(round) + 1;
    for (std::size_t i = 0; i < n; ++i) {
      up[i] = network.node_up(i);
      std::fill(got[i].begin(), got[i].end(), false);
      got_reply[i] = false;
      advanced[i] = false;
    }

    // Phase (a) + (b): every live agent reports its fragment x_i — to
    // everyone (kBroadcast) or to the central agent (kCentralAgent). A
    // receiver evaluates every ∂U/∂x_j on its own view, so the datagram
    // carries x_i alone; the message columns bill the paper's report
    // (round_message_cost). A fresh report supersedes anything still in
    // flight from earlier rounds.
    for (std::size_t i = 0; i < n; ++i) {
      if (!up[i]) {
        continue;
      }
      transport.cancel_older(i, tag);
      if (central) {
        if (i != 0) {
          transport.send(i, 0, tag, {view[i][i]});
        }
      } else {
        for (std::size_t to = 0; to < n; ++to) {
          if (to != i) {
            transport.send(i, to, tag, {view[i][i]});
          }
        }
      }
    }

    // The round: un.round_ticks transport ticks. Deliveries update the
    // receivers' views (late reports from earlier rounds still apply if
    // they are the newest word from that sender). The central agent
    // replies with its full allocation view once every live upload has
    // arrived — or at mid-round, whichever comes first — so replies can
    // still land before the deadline.
    bool replied = central && n == 1;
    bool stale_reply = false;  // replied before every live upload was in
    const auto all_uploads_in = [&]() {
      for (std::size_t j = 1; j < n; ++j) {
        if (up[j] && !got[0][j]) {
          return false;
        }
      }
      return true;
    };
    for (std::uint64_t t = 0; t < un.round_ticks; ++t) {
      for (const Datagram& d : transport.tick()) {
        if (central && d.from == 0) {
          // Central reply: the full allocation as node 0 knows it.
          if (d.tag > reply_tag[d.to]) {
            reply_tag[d.to] = d.tag;
            for (std::size_t k = 0; k < n; ++k) {
              if (k != d.to) {
                view[d.to][k] = d.payload[k];
              }
            }
            got_reply[d.to] = d.tag == tag;
            advanced[d.to] = true;
          }
          continue;
        }
        // A report of x_j from d.from.
        if (d.tag > report_tag[d.to][d.from]) {
          report_tag[d.to][d.from] = d.tag;
          view[d.to][d.from] = d.payload[0];
          got[d.to][d.from] = d.tag == tag;
          advanced[d.to] = true;
        }
      }
      if (central && !replied && network.node_up(0)) {
        const bool complete = all_uploads_in();
        if (complete || t + 1 >= un.round_ticks / 2) {
          replied = true;
          stale_reply = !complete;
          for (std::size_t to = 1; to < n; ++to) {
            transport.send(0, to, tag, view[0]);
          }
        }
      }
    }

    // Deadline accounting: a round is "missing reports" when any live
    // node lacks this round's word from any peer — a crashed sender's
    // silence counts, the expectation is the receiver's. For kBroadcast
    // that is a fresh report from every other node; for kCentralAgent
    // every upload at node 0 plus a fresh reply everywhere else.
    bool missing = false;
    if (central) {
      for (std::size_t j = 1; j < n && !missing; ++j) {
        missing = !got[0][j] || (up[j] && !got_reply[j]);
      }
    } else {
      for (std::size_t i = 0; i < n && !missing; ++i) {
        for (std::size_t j = 0; j < n && !missing; ++j) {
          missing = up[i] && i != j && !got[i][j];
        }
      }
    }
    if (missing) {
      ++result.robustness.rounds_with_missing_reports;
    }

    // Agreement: once every live agent has heard every peer's word from
    // this round (for kCentralAgent, through a reply sent after every
    // upload was in), every live view is the true allocation, so all
    // agents take the identical step.
    assemble_true();
    if (!missing && !stale_reply) {
      for (std::size_t i = 0; i < n; ++i) {
        FAP_ENSURES(!up[i] || view[i] == x_true,
                    "protocol agents disagree on the allocation");
      }
    }

    // Phase (c): termination is judged at the true allocation (the
    // omniscient-observer criterion the acceptance tests measure); each
    // live agent then steps from its own view and keeps its component.
    ++result.rounds;
    if (stepper.step_with_drift(x_true, un.max_view_drift).terminal) {
      result.converged = true;
      break;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const bool stalled = n > 1 && !advanced[i];
      next_own[i] =
          up[i] && !stalled
              ? stepper.step_with_drift(view[i], un.max_view_drift).x[i]
              : view[i][i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      view[i][i] = next_own[i];
    }

    // Anti-entropy: an occasional synchronized renormalization of each
    // group over its live nodes (crashed fragments are frozen and
    // unreachable).
    if (un.correction_interval > 0 &&
        (round + 1) % un.correction_interval == 0) {
      for (const core::ConstraintGroup& group : groups) {
        double sum_up = 0.0;
        double sum_down = 0.0;
        for (const std::size_t i : group.indices) {
          (up[i] ? sum_up : sum_down) += view[i][i];
        }
        const double target = group.total - sum_down;
        if (sum_up > 0.0 && target > 0.0) {
          for (const std::size_t i : group.indices) {
            if (up[i]) {
              view[i][i] *= target / sum_up;
            }
          }
        }
      }
    }

    assemble_true();
    result.robustness.max_feasibility_drift =
        std::max(result.robustness.max_feasibility_drift, feasibility_drift());
    if (config.record_cost_trace) {
      result.cost_trace.push_back(reported_cost());
    }
  }

  assemble_true();
  result.x = x_true;
  result.robustness.final_feasibility_drift = feasibility_drift();
  result.cost = reported_cost();

  // The message columns are the §5.1/§7.3 bill of the rounds run;
  // RobustnessStats records what the network actually carried.
  const RoundMessageCost per_round = round_message_cost(n, config);
  result.point_to_point_messages = result.rounds * per_round.point_to_point;
  result.broadcast_medium_messages =
      result.rounds * per_round.broadcast_medium;
  result.payload_doubles = result.rounds * per_round.payload_doubles;
  const NetworkStats& net_stats = network.stats();
  const TransportStats& tx_stats = transport.stats();
  result.robustness.data_messages_sent = tx_stats.data_sent;
  result.robustness.retransmissions = tx_stats.retransmissions;
  result.robustness.duplicates_suppressed = tx_stats.duplicates_suppressed;
  result.robustness.messages_dropped =
      net_stats.dropped_loss + net_stats.dropped_crash;
  return result;
}

}  // namespace fap::sim
