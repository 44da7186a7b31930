// Batched structure-of-arrays allocator kernel.
//
// Every figure and ablation evaluates many *independent* small
// ResourceDirectedAllocator instances — an α sweep, a grid search, a
// table of randomized problems. Run one at a time, each iteration is a
// handful of scalar divides over n ≈ 4–64 nodes: far too little work to
// feed the vector units or amortize per-call overhead. BatchAllocator
// steps K instances in lockstep instead, with every per-node quantity
// laid out [node][lane] (lane = instance) so the delay-law and utility
// arithmetic of one node row vectorizes across the batch dimension.
//
// The dense passes of the lockstep iteration live behind the
// core/batch_kernels.hpp function table: a portable scalar set (the
// loops this class always had) and a hand-vectorized AVX2 set, selected
// at runtime by core/simd_dispatch (CPUID, overridable via
// FAP_FORCE_SCALAR_KERNELS or force_simd_level). The two sets are
// bitwise equivalent — see batch_kernels.hpp for the argument — so
// dispatch is purely a speed decision.
//
// Bit-identity contract: lanes are independent instances, so no
// cross-lane reduction exists anywhere — each lane executes exactly the
// scalar operation sequence of ResourceDirectedAllocator::run /
// Workspace::step_into (same expressions, same order, same boundary
// logic via the shared core/active_set.hpp fast path), and IEEE-754 ops
// are exactly rounded regardless of whether they sit in a vector
// register. The kernel TUs are compiled with -ffp-contract=off so no FMA
// contraction can perturb a rounding. Consequently run_all() returns
// results (x, cost, converged, iterations) bitwise equal to running each
// submission through ResourceDirectedAllocator serially — pinned across
// randomized instances by core_batch_allocator_test, which also pins the
// AVX2 and scalar kernel sets against each other.
//
// Lane lifecycle: submissions queue in submit() order; run_all() loads
// the first `width` of them into lanes and iterates. A lane retires when
// its termination criterion fires (converged) or its iteration cap is
// reached, and its column is immediately backfilled from the pending
// queue; when the queue is dry, live columns are compacted left so the
// vector loops stay dense. run_all() sizes every plane and lane array
// afresh and load_lane() rewrites every field of a lane, so an allocator
// reused for any sequence of batches returns what a fresh one would;
// only growth reallocates.
//
// Callers: the sweep benches (fig5, fig6 and the ablations), whose
// instances are mostly interior and take the vector path. The catalog
// does not submit here: its point-mass starts leave nearly every node at
// the floor, so nearly every lane step would take the gathered boundary
// path, and it runs each object on its own rows in core::SimplexAllocator
// instead (DESIGN §4g).
//
// Supported models: SingleFileModel (any delay discipline; single-server
// disciplines take the vectorized derivative path, M/M/c lanes fall back
// to per-lane scalar evaluation), fixed or dynamic step rule, optional
// storage capacities. Trace recording is not supported (use the serial
// allocator for that).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/active_set.hpp"
#include "core/allocator.hpp"
#include "core/batch_kernels.hpp"
#include "core/single_file.hpp"
#include "queueing/delay.hpp"
#include "util/aligned.hpp"

namespace fap::core {

/// Result of one batched instance: AllocationResult minus the trace.
struct BatchRunResult {
  std::vector<double> x;
  double cost = 0.0;
  bool converged = false;
  std::size_t iterations = 0;
};

class BatchAllocator {
 public:
  /// Default lane count: wide enough to fill AVX-512 registers many times
  /// over and amortize per-iteration lane bookkeeping, small enough that
  /// the SoA planes of typical (n <= 64) problems stay cache-resident.
  static constexpr std::size_t kDefaultWidth = 64;

  explicit BatchAllocator(std::size_t width = kDefaultWidth);

  /// Enqueues one instance; returns its index into run_all()'s result
  /// vector. Copies the model's access costs, μ and caps and the start
  /// into the queue (the references need not outlive the call). Throws
  /// PreconditionError on infeasible `start`, invalid options (the
  /// ResourceDirectedAllocator constructor's checks) or options
  /// requesting trace recording; the model's own fields were checked by
  /// its constructor.
  std::size_t submit(const SingleFileModel& model,
                     const AllocatorOptions& options,
                     const std::vector<double>& start);

  /// Runs every pending submission to completion and returns their
  /// results in submission order. Clears the queue and keeps its storage;
  /// the allocator can be reused for a new round of submissions
  /// afterwards.
  std::vector<BatchRunResult> run_all();

  std::size_t width() const noexcept { return width_; }
  std::size_t pending() const noexcept { return pending_.size(); }

  /// Counters of the last run_all() call.
  struct Stats {
    std::size_t instances = 0;
    /// Lockstep iterations executed (each steps every live lane once).
    std::size_t lockstep_iterations = 0;
    /// Lane steps taken: the live lanes summed over lockstep iterations.
    std::size_t lane_steps = 0;
    /// Of those, steps of lanes with a pinned node, which run the shared
    /// active-set procedure on the gathered scalar path.
    std::size_t boundary_lane_steps = 0;
    /// Name of the kernel set the run dispatched to ("scalar"/"avx2").
    const char* kernels = "";
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  /// One queued submission's scalars. Its per-node values sit at
  /// [offset, offset + n) of the flat queue arrays; load_lane transposes
  /// them into the SoA planes.
  struct Instance {
    std::size_t n = 0;
    std::size_t offset = 0;
    double alpha = 0.0;
    double epsilon = 0.0;
    bool dynamic_rule = false;
    std::size_t max_iterations = 0;
    double total_rate = 0.0;
    double k = 0.0;
    queueing::DelayModel delay;
  };

  void load_lane(std::size_t lane, std::size_t instance_id);
  void refresh_lane_summary();
  void compute_derivatives();
  void scalar_lane_step(std::size_t lane);
  double column_cost(std::size_t lane,
                     const util::AlignedVector& plane) const;
  void harvest(std::size_t lane, const util::AlignedVector& plane,
               bool converged, std::vector<BatchRunResult>& results) const;

  std::size_t width_;
  std::vector<Instance> pending_;
  // The flat queue: submit() appends each instance's access costs, μ,
  // caps (+inf when unbounded) and start here, and run_all() clears them
  // with pending_. Both keep their capacity, so an allocator reused for
  // batch after batch allocates nothing per instance.
  std::vector<double> queue_access_, queue_mu_, queue_cap_, queue_start_;
  Stats stats_;

  // --- run_all() state. The planes, lane constants and per-iteration
  // outputs the kernels touch live in soa_ (row-major [node][lane],
  // 64-byte-aligned rows, stride = lanes_ rounded up to 8 — see
  // core/batch_kernels.hpp); what follows is the bookkeeping only the
  // driver needs. Padding rows (j >= lane n) hold x = 0, mu = 1, imu = 1,
  // cap = +inf, du = 0 so the dense row loops never need per-element
  // guards (see the padding invariants in batch_allocator.cpp).
  detail::BatchSoA soa_;
  const detail::BatchKernels* kernels_ = nullptr;
  std::size_t lanes_ = 0;       ///< columns occupied at full width
  std::size_t live_ = 0;        ///< columns currently occupied (prefix)
  std::size_t node_cap_ = 0;    ///< plane row count
  std::vector<std::size_t> lane_inst_, lane_n_, lane_maxit_, lane_iter_;
  std::vector<double> lane_eps_;
  std::vector<unsigned char> lane_dyn_, lane_single_;
  std::vector<queueing::DelayModel> lane_delay_;
  std::vector<unsigned char> term_, scalar_lane_;
  // Lane summary, refreshed when lane membership changes (n_min / n_max /
  // any_dyn live in soa_ where the kernels read them).
  bool all_single_ = true;
  // Scalar-tail scratch (boundary lanes).
  std::vector<double> gx_, gdu_, gcaps_, deltas_;
  detail::ActiveSetWorkspace aset_;
  std::unordered_map<std::size_t, ConstraintGroup> group_by_n_;
};

}  // namespace fap::core
