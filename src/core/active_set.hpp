// Shared implementation of the Section 5.2 active-set procedure's fast
// path, factored out of ResourceDirectedAllocator so the batched SoA
// kernel (core::BatchAllocator) runs the *same compiled code* on lanes
// that hit a boundary — which is what keeps the batch path
// decision-identical (and therefore bit-identical) to the serial one.
//
// The algorithm and its equivalence argument against the literal
// steps (i)-(v) transcription live with active_set_reference in
// allocator.cpp; this file only hosts the mechanics.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cost_model.hpp"

namespace fap::core::detail {

// A node counts as sitting on a bound below this threshold. Exclusion
// from the active set (Section 5.2 steps (i)-(v)) applies only to
// boundary nodes: an *interior* node whose step would overshoot below
// zero must have the step clipped (θ-scaling in step_into) rather than be
// frozen at its current allocation — freezing it would make the
// spread-over-A termination criterion fire at a point violating the
// Section 5.3 optimality conditions (∂U/∂x_i = q must hold at every
// x_i > 0). The paper's own Figure 4 run (start (0,0,0,1), α = 0.3)
// exercises exactly this case: the literal rule would freeze node 4 at
// x = 1 on the first iteration.
inline constexpr double kBoundaryTol = 1e-12;

/// Reusable scratch for active_set_fast. Sized on first use and refilled
/// in place afterwards, so steady-state calls allocate nothing. The
/// re-admission candidates need no storage: the procedure keeps only the
/// extreme marginal utility of each candidate class as a local.
struct ActiveSetWorkspace {
  std::vector<std::size_t> active;       ///< active set under construction
  std::vector<std::size_t> survivors;    ///< drop-pass output
  std::vector<unsigned char> in_active;  ///< membership bitmask by variable
};

/// Computes the paper's set A for one constraint group given the current
/// allocation and marginal utilities, writing the sorted result into
/// `ws.active`. `caps` is the per-variable upper-bound vector (empty =
/// unbounded) and `dim` the variable-index space size (bitmask sizing).
/// Decision-for-decision identical to
/// ResourceDirectedAllocator::active_set_reference (pinned by
/// core_allocator_test on randomized instances, traced catalog lanes,
/// re-admission families and hand-built ties).
void active_set_fast(const ConstraintGroup& group, const std::vector<double>& x,
                     const std::vector<double>& marginal_u, double alpha,
                     const std::vector<double>& caps, std::size_t dim,
                     ActiveSetWorkspace& ws);

}  // namespace fap::core::detail
