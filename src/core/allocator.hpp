// The paper's contribution: the decentralized, resource-directed file
// allocation algorithm of Section 5.2.
//
// Each iteration:
//   (a) every node evaluates its marginal utility ∂U/∂x_i at the current
//       allocation (U = -C, so ∂U/∂x_i = -∂C/∂x_i);
//   (b) the average marginal utility over the active set A is formed and
//       every active node computes Δx_i = α (∂U/∂x_i - avg_A);
//   (c) x_i += Δx_i for i ∈ A.
// until max_{i,j∈A} |∂U/∂x_i - ∂U/∂x_j| < ε.
//
// The active set A is all nodes unless some node would receive a
// non-positive allocation; then A is computed by the paper's procedure
// (steps (i)-(v) of Section 5.2): drop violators, then re-admit excluded
// nodes in decreasing marginal-utility order while their marginal utility
// exceeds the active-set average.
//
// Three strengthenings beyond the paper's literal statement (documented in
// DESIGN.md §5 decision 2, and exercised by property tests):
//   * exclusion from A applies only to nodes already at the x_i = 0
//     boundary. The literal rule would also freeze an *interior* node
//     whose (large-α) step overshoots below zero — at which point the
//     spread-over-A criterion fires at a non-optimal allocation. The
//     paper's own Figure 4 run (start (0,0,0,1), α = 0.3) hits this case;
//   * interior overshoots are instead handled by scaling the whole group
//     step with the largest θ ∈ (0,1] that keeps it non-negative — the
//     binding node lands exactly on zero and is treated as a boundary
//     node from the next iteration on;
//   * the boundary drop/re-admit procedure is iterated to a fixed point,
//     because a single pass can leave a node in A whose Δx (recomputed
//     with the smaller average) still pushes it below zero.
// All preserve feasibility (Σ Δx_i = 0 by construction) and monotonicity
// (a shorter step along an ascent direction).
//
// This class runs the arithmetic centrally for convenience; the
// message-passing realization that executes the identical arithmetic as a
// per-node protocol lives in sim/protocol_sim.hpp, and a test pins the two
// to bitwise-equal traces.
#pragma once

#include <cstddef>
#include <vector>

#include "core/active_set.hpp"
#include "core/cost_model.hpp"

namespace fap::core {

/// How the step size α is chosen at each iteration.
enum class StepRule {
  kFixed,    ///< use AllocatorOptions::alpha every iteration
  kDynamic,  ///< evaluate the Theorem-2 inequality (Eq. 5) at the current
             ///< allocation and take kDynamicSafety times that bound (the
             ///< appendix remark: "we could get a better value for α if we
             ///< dynamically calculate it at each iteration")
};

/// For kDynamic: fraction of the per-iteration bound to use. 0.5 is the
/// second-order-optimal choice (the bound is the zero of the quadratic
/// model of ΔU; half of it maximizes that quadratic).
inline constexpr double kDynamicSafety = 0.5;

struct AllocatorOptions {
  double alpha = 0.1;
  StepRule step_rule = StepRule::kFixed;
  /// Termination: all active marginal utilities within ε of each other.
  double epsilon = 1e-3;
  std::size_t max_iterations = 100000;
  /// Record the allocation/cost at every iteration (the convergence
  /// profiles of Figures 3, 4, 8, 9 come from this trace).
  bool record_trace = false;
  /// Use the O(n²)-per-round reference active-set procedure
  /// (active_set_reference) instead of the incremental O(n) one.
  /// The two are decision-for-decision identical; this switch exists so
  /// the equivalence tests (and any future debugging) can pin the fast
  /// path against the literal Section 5.2 transcription.
  bool use_reference_active_set = false;
};

/// State of one iteration, as recorded in the trace. Entry 0 describes the
/// initial allocation.
struct IterationRecord {
  std::size_t iteration = 0;
  double cost = 0.0;
  /// Step size used to move *from* this allocation (0 for the final entry).
  double alpha = 0.0;
  /// Total number of nodes in active sets across constraint groups.
  std::size_t active_set_size = 0;
  /// max_{i,j∈A} |∂U/∂x_i - ∂U/∂x_j| (max over groups).
  double marginal_spread = 0.0;
  std::vector<double> x;
};

struct AllocationResult {
  std::vector<double> x;
  double cost = 0.0;
  bool converged = false;
  /// Number of reallocation steps performed.
  std::size_t iterations = 0;
  std::vector<IterationRecord> trace;
};

class ResourceDirectedAllocator {
 public:
  /// The model reference must outlive the allocator.
  ResourceDirectedAllocator(const CostModel& model, AllocatorOptions options);

  /// Runs the algorithm from the given feasible initial allocation.
  /// Throws PreconditionError if `initial` is infeasible.
  AllocationResult run(std::vector<double> initial) const;

  /// Result of a single iteration step, exposed so the protocol simulation
  /// and the adaptive/nightly-mode examples can drive iterations one at a
  /// time.
  struct StepOutcome {
    std::vector<double> x;           ///< allocation after the step
    bool terminal = false;           ///< termination criterion already held
    double marginal_spread = 0.0;    ///< spread before the step
    std::size_t active_set_size = 0;
    double alpha_used = 0.0;
  };

  /// Performs one iteration from `x` (which must be feasible). If the
  /// termination criterion holds at `x`, returns terminal=true and x
  /// unchanged.
  StepOutcome step(const std::vector<double>& x) const;

  /// Round hook for protocol simulations over unreliable networks
  /// (sim/lossy_network.hpp): identical arithmetic to step(), but the
  /// feasibility precondition tolerates conservation-sum drift up to
  /// `sum_tolerance` per group. An agent stepping from a stale view of
  /// remote fragments sees Σx wander off the group total (the
  /// async-staleness failure mode, DESIGN.md §4f); the update itself
  /// never reads the sum, so relaxing only that check is sound.
  /// Dimension, non-negativity, and capacity checks stay strict.
  StepOutcome step_with_drift(const std::vector<double>& x,
                              double sum_tolerance) const;

  /// Computes the paper's set A for one constraint group given the current
  /// allocation and marginal utilities, following steps (i)-(v). Exposed
  /// for white-box tests. Returned indices are positions into
  /// `group.indices`' index space (i.e. variable indices).
  ///
  /// This is the fast path: a membership bitmask plus running sums of the
  /// active marginal utilities (O(1) mean updates) and the running
  /// extremes of ∂U over the excluded nodes (an O(1) re-admission test per
  /// round, one O(n) rescan per admission), replacing the reference
  /// procedure's per-candidate linear scans. Its decisions — and, by
  /// construction, the floating-point values every decision is based
  /// on — are identical to active_set_reference.
  std::vector<std::size_t> active_set(const ConstraintGroup& group,
                                      const std::vector<double>& x,
                                      const std::vector<double>& marginal_u,
                                      double alpha) const;

  /// The literal steps (i)-(v) transcription (linear membership scans,
  /// re-averaged means): O(n²) per drop/re-admit round. Kept as the
  /// equivalence oracle for active_set; not used on any hot path unless
  /// AllocatorOptions::use_reference_active_set is set.
  std::vector<std::size_t> active_set_reference(
      const ConstraintGroup& group, const std::vector<double>& x,
      const std::vector<double>& marginal_u, double alpha) const;

  const AllocatorOptions& options() const noexcept { return options_; }

 private:
  /// Reusable scratch memory. Every vector is sized on first use and then
  /// only ever shrunk/refilled in place, so steady-state step()/run()
  /// perform no heap allocations (for models that implement the
  /// *_into derivative hooks, e.g. SingleFileModel). Because the
  /// workspace is mutated from const entry points it makes a single
  /// allocator instance non-reentrant: concurrent step()/run() calls on
  /// the SAME instance race — give each thread its own allocator (the
  /// runtime sweeps already construct per-task allocators).
  struct Workspace {
    std::vector<double> du;              ///< marginal utilities at x
    std::vector<double> d2c;             ///< second derivatives (kDynamic)
    std::vector<double> deltas;          ///< per-active-node Δx of one group
    std::vector<double> x_next;          ///< run()'s ping-pong buffer
    /// Scratch of the shared active-set fast path (core/active_set.hpp);
    /// aset.active holds the set under construction.
    detail::ActiveSetWorkspace aset;
    /// Per-group active sets and step sizes of the step() first pass.
    std::vector<std::vector<std::size_t>> group_active;
    std::vector<double> group_alpha;
  };

  /// Per-step bookkeeping shared by step() and run()'s in-place loop.
  struct StepStats {
    bool terminal = false;
    double marginal_spread = 0.0;
    std::size_t active_set_size = 0;
    double alpha_used = 0.0;
  };

  /// One iteration from `x` into `x_out` (unchanged copy of x when the
  /// termination criterion already holds). `x_out` must not alias `x`.
  /// `sum_tolerance` relaxes only the conservation-sum precondition
  /// (step_with_drift); the default is check_feasible's strict 1e-9.
  StepStats step_into(const std::vector<double>& x,
                      std::vector<double>& x_out,
                      double sum_tolerance = 1e-9) const;

  /// check_feasible against the cached groups/caps — no allocation.
  void check_feasible_cached(const std::vector<double>& x,
                             double sum_tolerance = 1e-9) const;

  /// The per-iteration dynamic step bound (Eq. 5 over the active
  /// variables `active`): 2 Σ (dU_i - avg)² / Σ |d²U_i| (dU_i - avg)²,
  /// evaluated from the workspace's du/d2c (already computed for the
  /// current x).
  double dynamic_alpha_bound_cached(
      const std::vector<std::size_t>& active) const;

  const CostModel& model_;
  AllocatorOptions options_;
  /// Constraint structure and bounds are fixed per model; query them once.
  std::vector<ConstraintGroup> groups_;
  std::vector<double> caps_;
  std::size_t dim_ = 0;
  mutable Workspace ws_;
};

}  // namespace fap::core
