// Trace-driven serving: closing the loop between the allocator and the
// discrete-event engine.
//
// Everything before this module evaluates an allocation analytically or
// against the engine's own Poisson generators; nothing ever *serves* a
// workload against a deployed record layout. TraceServer does exactly
// that (ROADMAP item 3): an open-loop trace generator (seeded Zipf record
// popularity with rank-rotation drift and scripted flash crowds) drives
// DesSystem::inject_access against a FragmentMap produced by the paper's
// resource-directed allocator, under one of three serving policies:
//
//   * kStatic — the initial placement, never changed: the paper's "solve
//     once" reading. Under drift the hot records walk out of the node
//     ranges sized for them and queues build where the mass lands.
//   * kOnline — the Section 8 adaptive scheme made concrete: per
//     estimation window, the node-aggregated access shares the deployed
//     layout actually served are compared against the shares it was
//     solved to carry (total-variation distance, with hysteresis so
//     sampling noise does not trigger spurious re-solves); past the
//     threshold the window's
//     access log is turned into λ̂/μ̂ via sim/estimation, the allocator
//     re-runs warm-started from the currently deployed shares, and the
//     layout delta is applied through fs::plan_migration /
//     schedule_waves while traffic continues to flow — reads of records
//     in the in-flight wave stall until the wave lands (modeled as extra
//     response latency; fs::LockManager holds the corresponding
//     exclusive locks and the waits-for graph is asserted acyclic).
//   * kLru — the caching alternative (onlineJCCP-style baseline): record
//     homes stay at the initial placement, but every node keeps an LRU
//     cache of recently read records. Reads hit locally when cached;
//     updates are served at the home node and invalidate every cached
//     copy, which is what keeps a write-heavy hot set uncacheable.
//
// Determinism contract: serve() is a pure function of (topology,
// workload, options) — the trace stream depends only on the workload
// seed (identical across the three modes, so comparisons are paired),
// the engine is deterministic, and all bookkeeping is serial. Benches
// fan the modes out through runtime::sweep and stay byte-identical for
// any --jobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/allocator.hpp"
#include "fs/fragment_map.hpp"
#include "fs/lock_manager.hpp"
#include "fs/migration.hpp"
#include "net/cost_provider.hpp"
#include "net/topology.hpp"
#include "sim/alias_sampler.hpp"
#include "sim/des_system.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fap::serve {

/// A scripted popularity surge: while active, records in
/// [first_record, last_record) have their popularity multiplied by
/// `boost` (the vector is then renormalized).
struct FlashCrowd {
  double start = 0.0;
  double end = 0.0;  ///< active over [start, end)
  std::size_t first_record = 0;
  std::size_t last_record = 0;  ///< [first_record, last_record)
  double boost = 10.0;
};

/// Open-loop trace description. The request stream is a Poisson process
/// of rate `total_rate`; each request draws an origin node from
/// `origin_mix` and a record from the popularity distribution in force,
/// and is an update with probability `update_fraction`.
struct TraceWorkload {
  std::size_t records = 10000;
  /// Aggregate request rate Λ (requests per unit time, all origins).
  double total_rate = 4.0;
  /// Zipf exponent of the base record popularity (rank order rotates
  /// under drift; record 0 is the rank-0 record at t = 0).
  double zipf_s = 0.9;
  /// Popularity drift: rank rotation speed in records per unit time.
  /// At time t record r holds rank (r + floor(drift_rate·t)) mod R, so
  /// the hot set walks through the record space — and through the node
  /// ranges of any layout that was solved for an earlier instant.
  double drift_rate = 0.0;
  /// Per-node origin weights (normalized internally); empty = uniform.
  std::vector<double> origin_mix;
  /// Probability that a request is an update (invalidates caches).
  double update_fraction = 0.0;
  std::vector<FlashCrowd> flash_crowds;
  /// Popularity (drift/flash state) is refreshed and the record sampler
  /// rebuilt every `epoch_requests` requests — the generator's batching
  /// granularity, and the serving loop's advance granularity.
  std::size_t epoch_requests = 65536;
  std::uint64_t seed = 1;
};

/// One generated request.
struct TraceRequest {
  double time = 0.0;
  std::uint32_t origin = 0;
  std::uint32_t record = 0;
  bool update = false;
};

/// Generates the trace in epochs. Popularity is frozen within an epoch
/// (the alias table is rebuilt only when the drift shift or flash-crowd
/// activity actually changes). Exactly four RNG draws per request
/// (inter-arrival, origin, record, update coin), so the stream is stable
/// against consumer behavior.
class TraceGenerator {
 public:
  TraceGenerator(TraceWorkload workload, std::size_t node_count);

  /// Generates the next epoch: min(epoch_requests, max_requests)
  /// requests, strictly increasing times. The returned reference is
  /// invalidated by the next call.
  const std::vector<TraceRequest>& next_epoch(std::size_t max_requests);

  /// The popularity distribution in force at the CURRENT time (for the
  /// epoch about to be generated; after construction, the t = 0
  /// distribution — the initial-placement input).
  const std::vector<double>& popularity() const noexcept {
    return popularity_;
  }

  /// Time of the most recently generated request (0 before the first).
  double now() const noexcept { return now_; }

 private:
  void refresh_popularity();

  TraceWorkload workload_;
  std::size_t nodes_;
  util::Rng rng_;
  std::vector<double> base_;        ///< Zipf mass by rank
  std::vector<double> popularity_;  ///< current mass by record
  sim::AliasSampler records_;
  sim::AliasSampler origins_;
  std::vector<TraceRequest> buffer_;
  double now_ = 0.0;
  std::size_t shift_ = 0;           ///< rank rotation applied
  std::uint64_t crowd_mask_ = 0;    ///< active flash crowds (bitmask)
  bool popularity_current_ = false;
};

enum class ServeMode {
  kStatic,  ///< initial placement, never re-optimized
  kOnline,  ///< hysteresis-gated re-optimization + live migration
  kLru,     ///< static homes + per-node LRU caches
};

struct TraceServeOptions {
  ServeMode mode = ServeMode::kStatic;

  /// Per-node service rate μ (uniform) and delay weight k of the
  /// placement objective.
  double mu = 1.0;
  double k = 1.0;
  /// Store-and-forward per-hop transit latency (and hop counts from the
  /// topology's least-cost routes); 0 = instantaneous transport.
  double hop_latency = 0.0;
  sim::ServiceDistribution service = sim::ServiceDistribution::kExponential;

  /// Inner allocator controls for the initial solve and the online
  /// re-solves (warm-started, so a bounded budget suffices). The
  /// Theorem-2 dynamic step rule is load-bearing here: re-solve problems
  /// carry the tangent-linearized delay evaluated at (or beyond) ρ_max,
  /// where the cost's curvature is enormous — a fixed α that is fine for
  /// lightly-loaded problems violates the Theorem-2 convergence bound
  /// there and the iteration diverges into overloaded corner solutions.
  core::AllocatorOptions allocator = [] {
    core::AllocatorOptions options;
    options.step_rule = core::StepRule::kDynamic;
    options.epsilon = 1e-4;
    options.max_iterations = 2000;
    return options;
  }();

  // --- kOnline ---
  /// Estimation window length in generator epochs: popularity counts,
  /// the access log and the drift test accumulate over this many epochs
  /// between re-solve decisions.
  std::size_t estimation_epochs = 4;
  /// Hysteresis: re-solve only when the total-variation distance between
  /// the window's observed PER-NODE access shares (under the deployed
  /// layout) and the shares the layout was solved to carry exceeds this.
  /// Node-aggregated shares are the right drift statistic: mass moving
  /// within a node needs no migration, only mass crossing node
  /// boundaries does — and with n values the sampling noise floor is
  /// ~0.01 regardless of the record count, whereas per-record empirical
  /// TV is noise-dominated (~0.2+) at realistic record counts.
  double hysteresis = 0.1;
  /// Windows that must elapse after a re-solve before the next one.
  std::size_t cooldown_windows = 1;
  /// Migration bandwidth in records per unit time: wave w of a plan
  /// completes wave_volume[w] / bandwidth after its start.
  double migration_bandwidth = 2000.0;
  /// schedule_waves per-node concurrency knob.
  std::size_t max_transfers_per_node = 2;

  // --- kLru ---
  /// Per-node cache capacity as a fraction of the record count.
  double cache_fraction = 0.05;
};

struct TraceServeResult {
  /// End-to-end response time per completed request (request transit +
  /// queueing + service + response transit + any migration stall).
  util::RunningStats delay;
  util::LogHistogram delay_hist{1e-4, 1e6, 512};
  /// Communication cost per completed request.
  util::RunningStats comm;

  std::size_t requests_injected = 0;
  /// Completions counted in the statistics — equals requests_injected
  /// (minus failures) in EVERY mode: the engine runs with
  /// completion-time window attribution, so kOnline's periodic window
  /// resets (which truncate the estimation log) never drop in-flight
  /// requests from the cumulative statistics.
  std::size_t completions = 0;
  std::size_t failed = 0;
  double span = 0.0;  ///< simulated time at the last completion

  /// Requests whose serving target was their origin node (free comm).
  std::size_t served_at_origin = 0;

  // kOnline bookkeeping.
  std::size_t reallocations = 0;
  /// Windows where the drift test or the cooldown suppressed a re-solve.
  std::size_t suppressed_reallocations = 0;
  /// Windows whose estimate could not be turned into a solvable problem.
  std::size_t failed_estimations = 0;
  std::size_t migrated_records = 0;
  std::size_t migration_waves = 0;
  /// Reads delayed because their record was in the in-flight wave.
  std::size_t stalled_requests = 0;

  // kLru bookkeeping.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_invalidations = 0;

  double hit_rate() const noexcept {
    return requests_injected > 0 ? static_cast<double>(served_at_origin) /
                                       static_cast<double>(requests_injected)
                                 : 0.0;
  }
  /// Communication cost per unit time.
  double external_traffic() const noexcept {
    return span > 0.0 ? comm.sum() / span : 0.0;
  }
};

class TraceServer {
 public:
  /// The topology reference must outlive the server. Routing costs are
  /// computed here once; hop counts (when options.hop_latency > 0) are
  /// computed by each serve() call.
  TraceServer(const net::Topology& topology, TraceWorkload workload,
              TraceServeOptions options);
  ~TraceServer();
  TraceServer(const TraceServer&) = delete;
  TraceServer& operator=(const TraceServer&) = delete;

  /// Serves `total_requests` trace requests end to end and returns the
  /// accumulated statistics. Pure function of the constructor arguments.
  TraceServeResult serve(std::size_t total_requests);

  /// The initial layout (deployed at t = 0 in every mode; the permanent
  /// home map for kStatic/kLru). Exposed for tests.
  const fs::FragmentMap& initial_layout() const noexcept { return *initial_; }

  /// The currently deployed layout after serve() (kOnline moves it;
  /// other modes return the initial layout).
  const fs::FragmentMap& current_layout() const noexcept { return *layout_; }

 private:
  struct LruCaches;
  struct PendingMigration;

  void route_request(const TraceRequest& request, std::size_t& target,
                     double& comm, double& extra_latency,
                     TraceServeResult& result);
  void maybe_reallocate(const sim::WindowStats& window, double now,
                        TraceServeResult& result);
  void update_migration_state(double now);
  void harvest_window(const sim::WindowStats& window, TraceServeResult& result);

  const net::Topology& topology_;
  TraceWorkload workload_;
  TraceServeOptions options_;
  std::size_t n_ = 0;
  std::shared_ptr<const net::CostProvider> comm_;
  std::vector<double> lambda_;  ///< placement-model per-node rates

  std::unique_ptr<fs::FragmentMap> initial_;
  std::unique_ptr<fs::FragmentMap> layout_;
  std::vector<double> solved_shares_;  ///< node shares of the last solve
  std::vector<std::uint64_t> window_counts_;
  std::size_t windows_since_realloc_ = 0;

  std::unique_ptr<PendingMigration> pending_;
  fs::LockManager locks_;

  std::unique_ptr<LruCaches> lru_;  ///< kLru only

  std::unique_ptr<sim::DesSystem> engine_;
};

}  // namespace fap::serve
