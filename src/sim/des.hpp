// Discrete-event simulation of a running file-access system.
//
// The paper's evaluation relies on an analytic cost (Eq. 1) whose delay
// term assumes each node behaves as an M/M/1 queue. This simulator
// validates that assumption end to end (experiment A4): every node
// generates accesses as a Poisson process, each access is routed to a
// fragment holder according to the allocation (uniform record-access
// assumption), pays the communication cost of the route, queues FIFO at
// the holder, and receives (exponential / deterministic / gamma) service.
// The measured per-access cost — mean communication cost plus k times the
// mean sojourn time — is compared against the analytic model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/multi_file.hpp"
#include "core/ring_model.hpp"
#include "core/single_file.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fap::sim {

/// Service-time distribution at the nodes.
enum class ServiceDistribution {
  kExponential,    ///< M/M/1 (the paper's base model)
  kDeterministic,  ///< M/D/1
  kGamma,          ///< M/G/1 with configurable SCV (shape 1/scv)
};

struct DesConfig {
  std::vector<double> lambda;  ///< per-node access generation rates
  std::vector<double> mu;      ///< per-node service rates
  /// routing[j][i]: probability node j's access is served at node i
  /// (rows must sum to ~1). Read only to route generated accesses, so it
  /// may be empty when no node generates (all lambda zero).
  std::vector<std::vector<double>> routing;
  /// comm_cost[j][i]: communication cost of one access j -> i. Required
  /// with `routing` (and by DesSystem::set_routing); may be empty when no
  /// node generates — injected accesses carry their own cost.
  std::vector<std::vector<double>> comm_cost;
  double k = 1.0;  ///< delay weight in the measured cost

  ServiceDistribution service = ServiceDistribution::kExponential;
  double service_scv = 1.0;  ///< used by kGamma only

  /// Parallel servers per node (M/M/c nodes, matching
  /// queueing::DelayModel::mmc; `mu` stays the per-server rate). Empty
  /// means one server everywhere.
  std::vector<std::size_t> servers_per_node;

  /// Store-and-forward transport (the paper's network is only "logically
  /// fully connected ... perhaps only indirectly, i.e., in a
  /// store-and-forward fashion"): each hop of the request's route adds
  /// `hop_latency` of transit time before the access reaches the holder's
  /// queue, and the response pays the same on the way back. 0 keeps
  /// transport instantaneous (cost-only, the analytic model's view).
  double hop_latency = 0.0;
  /// route_hops[j][i]: hops on the j->i route (see
  /// net::route_hop_counts). Empty with hop_latency > 0 means one hop
  /// between distinct nodes.
  std::vector<std::vector<std::size_t>> route_hops;

  /// Runaway guard for completion-driven advancement: generators never
  /// stop, so a system that can no longer complete anything (e.g. every
  /// routed target failed) would spin forever. advance_completions(count)
  /// throws InvariantError — it never silently truncates — once it has
  /// processed `event_budget_per_completion * count + event_budget_floor`
  /// events without reaching the requested completions. The defaults
  /// preserve the engine's historical hard-coded budget; raise them for
  /// workloads that legitimately process millions of events per
  /// completion (heavy store-and-forward fan-in, near-total failure).
  std::size_t event_budget_per_completion = 1000;
  std::size_t event_budget_floor = 1000000;

  /// Open-loop mode (trace serving): no node generates its own Poisson
  /// stream — all traffic enters through DesSystem::inject_access — so
  /// all-zero lambda is legal and restart() seeds no generate events.
  /// run_des() cannot be used with an open-loop config (it would wait
  /// forever for completions that nothing generates).
  bool open_loop = false;

  /// Accesses completing before this time are excluded from statistics.
  double warmup_time = 200.0;
  /// Number of measured (post-warmup) access completions to collect.
  std::size_t measured_accesses = 100000;
  std::uint64_t seed = 1;
  /// When true, every measured access is appended to DesResult::log —
  /// the raw material for measurement-driven parameter estimation
  /// (sim/estimation.hpp, the Section 8 adaptive scheme).
  bool record_log = false;

  /// Window attribution rule for DesSystem. Default (false): an access
  /// counts toward the window it ARRIVED in, so a freshly reset window
  /// is not polluted by the tail of the previous regime — the right
  /// semantics for steady-state measurement. When true, an access counts
  /// toward the window it COMPLETED in: the union of consecutive windows
  /// is then an exact partition of all completions (nothing in flight
  /// across a reset is ever dropped), which is what cumulative
  /// trace-serving statistics need.
  bool window_by_completion = false;
};

/// One completed access, as a monitoring system would log it.
struct AccessObservation {
  std::size_t source = 0;        ///< node that generated the access
  std::size_t target = 0;        ///< node that served it
  double arrival_time = 0.0;     ///< arrival at the target's queue
  double service_start = 0.0;    ///< moment service began
  double departure_time = 0.0;   ///< service completion
  double comm_cost = 0.0;        ///< communication cost paid
};

struct NodeStats {
  util::RunningStats sojourn;       ///< time in queue + service
  std::size_t arrivals = 0;         ///< post-warmup arrivals
  double busy_time = 0.0;           ///< post-warmup server busy time
  double observed_arrival_rate = 0.0;
  double utilization = 0.0;
};

struct DesResult {
  util::RunningStats comm_cost;  ///< per measured access
  util::RunningStats sojourn;    ///< per measured access
  /// End-to-end response time (request transit + sojourn + response
  /// transit); equals sojourn when hop_latency is 0.
  util::RunningStats response_time;
  /// Response-time distribution on exponential buckets, so the tail
  /// (p99/p999) keeps constant relative resolution under heavy-tailed
  /// service. Same samples as response_time.
  util::LogHistogram response_hist{1e-4, 1e6, 512};
  std::vector<NodeStats> node;
  double simulated_time = 0.0;  ///< post-warmup measurement span
  /// Measured per-access cost: mean comm + k * mean sojourn — directly
  /// comparable to Eq. 1 evaluated at the same allocation.
  double measured_cost = 0.0;
  /// Per-access log (only when DesConfig::record_log is set).
  std::vector<AccessObservation> log;
};

/// Runs the simulation until `measured_accesses` post-warmup completions.
DesResult run_des(const DesConfig& config);

class DesSystem;  // sim/des_system.hpp

/// Same measurement, but recycling a caller-owned engine: restarts
/// `engine` for `config` (bit-equivalent to fresh construction, see
/// DesSystem::restart) and runs the warmup + measurement loop on it.
/// Results are identical to run_des(config); what changes is that a
/// warmed engine's event heap, job slab and queue rings are reused
/// instead of reallocated — the batch-replication path.
DesResult run_des(DesSystem& engine, const DesConfig& config);

/// Builds a DES configuration that executes the single-file model's
/// allocation x: accesses route to node i with probability x_i and pay the
/// least-cost route cost. The analytic prediction for measured_cost is
/// model.cost(x).
DesConfig des_config_for(const core::SingleFileModel& model,
                         const std::vector<double>& x);

/// Same for the multicopy ring model: routing follows the access weights
/// w_ji(x) and communication uses forward ring distances. The analytic
/// prediction for measured_cost is model.cost(x) / λ (the ring model's
/// cost is a rate; the DES measures per access).
DesConfig des_config_for(const core::RingModel& model,
                         const std::vector<double>& x);

/// Multi-file system (Section 5.4): node j's combined access stream is
/// Poisson with rate Σ_f λ_j^f and its target distribution is the
/// rate-weighted mixture of the per-file allocations — exact, because
/// target choice is independent across accesses. Files share each node's
/// queue, exactly as MultiFileModel's delay term assumes. The analytic
/// prediction for measured_cost is multi_file_expected_access_cost.
DesConfig des_config_for(const core::MultiFileModel& model,
                         const std::vector<double>& x);

/// Expected per-access cost of the combined multi-file stream:
/// (1/λ_total) Σ_f λ^f · (file f's Eq. 1 cost) — the quantity the DES
/// measures. (MultiFileModel::cost sums per-file expectations without
/// rate-weighting, so it is not directly comparable to a per-access
/// measurement.)
double multi_file_expected_access_cost(const core::MultiFileModel& model,
                                       const std::vector<double>& x);

}  // namespace fap::sim
