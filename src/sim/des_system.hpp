// Incremental discrete-event simulation engine.
//
// run_des() (sim/des.hpp) answers "what does this fixed configuration
// measure?"; DesSystem exposes the same engine as a long-lived object so
// the configuration can change *while the system runs* — the routing mix
// can be rewired mid-flight (deploying a new file allocation without
// draining queues), and statistics are collected per observation window.
// This is what the Section 8 adaptive scenario actually needs: operate,
// measure a window, re-optimize, deploy, keep operating. Demonstrated in
// examples/live_adaptation.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "runtime/sweep.hpp"
#include "sim/des.hpp"

namespace fap::sim {

/// Revision of the routing-sampler implementation shared by run_des() and
/// DesSystem. The sampled distribution is pinned by tests across
/// revisions, but the map from a uniform draw to a concrete target is
/// not: changing it re-routes individual accesses, so per-seed event
/// sequences — and every concrete number a fixed-seed DES run produces
/// (e.g. the EXPERIMENTS.md §A4 error percentages) — shift within their
/// statistical tolerances whenever this constant is bumped.
///
/// Revision history:
///   1 — cumulative-distribution row sampler (binary search per draw).
///   2 — Walker/Vose alias table (alias_sampler.hpp): O(1) per draw, same
///       one-uniform-per-sample stream alignment.
inline constexpr int kDesRoutingSamplerRevision = 2;

/// Statistics for the current observation window. Which completed
/// accesses count follows DesConfig::window_by_completion: by default
/// only those that *arrived* after the window opened, so a freshly reset
/// window is not polluted by the tail of the previous regime; with it set,
/// every access that *completed* in the window, so consecutive windows
/// partition all completions.
struct WindowStats {
  util::RunningStats comm_cost;
  util::RunningStats sojourn;
  /// End-to-end response time as the requester sees it: request transit +
  /// queueing + service + response transit. Equals sojourn when
  /// hop_latency is 0.
  util::RunningStats response_time;
  /// Response-time distribution on exponential buckets (same samples as
  /// response_time), so p99/p999 keep constant relative resolution under
  /// heavy-tailed delays. Same parameters as DesResult::response_hist.
  util::LogHistogram response_hist{1e-4, 1e6, 512};
  std::vector<NodeStats> node;
  std::vector<AccessObservation> log;  ///< when record_log is set
  double start_time = 0.0;
  double span = 0.0;          ///< time elapsed since the window opened
  std::size_t completions = 0;
  /// Accesses that targeted a failed node (lost, not serviced).
  std::size_t failed_accesses = 0;

  /// Fraction of accesses that were actually served in this window.
  double availability() const {
    const double total =
        static_cast<double>(completions + failed_accesses);
    return total > 0.0 ? static_cast<double>(completions) / total : 1.0;
  }

  /// Mean per-access cost in the window: comm + k * sojourn.
  double measured_cost(double k) const {
    return comm_cost.mean() + k * sojourn.mean();
  }
};

class DesSystem {
 public:
  /// `config.measured_accesses` and `config.warmup_time` are ignored —
  /// the caller decides when to advance and when to open windows.
  explicit DesSystem(DesConfig config);
  ~DesSystem();
  DesSystem(DesSystem&&) noexcept;
  DesSystem& operator=(DesSystem&&) noexcept;

  /// Re-initializes the engine for `config` exactly as constructing a
  /// fresh DesSystem(config) would — same RNG stream, same event
  /// sequence, bit-identical statistics — but reuses the already-grown
  /// event heap, arrival stream, job slab, queue rings, routing cells
  /// and window buffers, so a warmed engine replays configuration after
  /// configuration with zero steady-state allocation (this is how
  /// run_des_replications recycles one engine per worker thread).
  /// Injected accesses not yet served are discarded with the rest of the
  /// old run. now() returns 0 again afterwards. Throws on an invalid
  /// config, in which case the engine must be restarted again before
  /// further use.
  void restart(DesConfig config);

  double now() const noexcept { return now_; }

  /// Deploys a new routing mix (e.g. a freshly optimized allocation).
  /// Takes effect for accesses generated after the call; queued work is
  /// unaffected, exactly as in a real system. Needs the config's n x n
  /// comm_cost matrix; a malformed routing throws and leaves the deployed
  /// mix in place.
  void set_routing(const std::vector<std::vector<double>>& routing);

  /// Fails (or repairs) a node. Accesses routed to a failed node are lost
  /// and counted in WindowStats::failed_accesses — the Section 4(a)
  /// graceful-degradation experiment: with a fragmented file, "failure of
  /// one or more nodes only means that the portions of the file stored at
  /// those nodes cannot be accessed". Work already queued at the node
  /// when it fails is lost as well.
  void set_node_failed(std::size_t node, bool failed);

  /// Injects one externally generated access (open-loop trace serving):
  /// an access from `source`, generated at `time` (>= now()), that will
  /// reach `target`'s queue after `extra_latency` plus the configured
  /// source->target transit, paying `comm` communication cost. The
  /// access then queues, receives service and is counted exactly like a
  /// generated one; its response time spans from `time` to service
  /// completion plus return transit, so `extra_latency` (e.g. a
  /// migration stall) shows up in the delay statistics. Injection does
  /// not advance the clock — call advance_until / advance_completions to
  /// process the scheduled work. In-order injection is O(1): an access
  /// that reaches its target no earlier than the latest one queued in the
  /// time-ordered arrival stream joins that stream and holds no job state
  /// until it arrives. Out-of-order injection (a stall, a longer route)
  /// is one event-heap push. Either way, accesses are processed in the
  /// same order. `time` and `extra_latency` must be finite.
  void inject_access(double time, std::size_t source, std::size_t target,
                     double comm, double extra_latency = 0.0);

  /// Processes events until simulated time reaches `time` (finite).
  void advance_until(double time);

  /// Processes events until `count` further accesses complete (measured
  /// from this call, regardless of windows). Returns completions made.
  std::size_t advance_completions(std::size_t count);

  /// Opens a fresh observation window at the current time.
  void reset_window();

  /// Finalizes window bookkeeping (utilization, rates) up to now() and
  /// returns the statistics.
  const WindowStats& window();

 private:
  struct Impl;  // engine state (event queue, servers, RNG), out of line
  std::unique_ptr<Impl> impl_;
  double now_ = 0.0;
  WindowStats window_;

  void process_one_event();
};

/// Result of running the same DES configuration over R independent
/// replications (distinct seeds). Pooled per-access statistics reduce via
/// util::RunningStats::merge, which is exact, so the numbers do not
/// depend on how many workers ran the replications.
struct ReplicatedDesResult {
  util::RunningStats comm_cost;      ///< pooled across all accesses
  util::RunningStats sojourn;        ///< pooled across all accesses
  util::RunningStats response_time;  ///< pooled across all accesses
  /// Distribution of the per-replication measured cost — the quantity a
  /// confidence interval on the mean cost should be built from (per-access
  /// observations within a replication are autocorrelated; replication
  /// means are independent).
  util::RunningStats cost_per_replication;
  std::size_t replications = 0;
  /// Pooled per-access cost: mean comm + k * mean sojourn.
  double measured_cost = 0.0;
};

/// Runs `replications` independent copies of the configuration, seeding
/// copy r with runtime::task_seed(options.base_seed, r) (config.seed is
/// ignored) and executing them through runtime::run_sweep — serial when
/// options.jobs == 1, on a worker pool otherwise, bit-identical either
/// way. `config.k` weights the pooled measured cost.
ReplicatedDesResult run_des_replications(const DesConfig& config,
                                         std::size_t replications,
                                         const runtime::SweepOptions& options);

}  // namespace fap::sim
