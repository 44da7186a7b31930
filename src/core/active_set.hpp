// Shared implementation of the Section 5.2 step's mechanics, factored out
// of ResourceDirectedAllocator so the other path that runs the iteration,
// the per-object solve on an object's own rows (core::SimplexAllocator),
// executes the *same compiled code*. Sharing the code is what keeps that
// path decision-identical (and therefore bit-identical) to the serial
// one.
//
// The active-set algorithm and its equivalence argument against the
// literal steps (i)-(v) transcription live with active_set_reference in
// allocator.cpp; this file only hosts the mechanics.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cost_model.hpp"
#include "queueing/delay.hpp"

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

/// Mean of `values` over `subset`: summed left to right in subset order,
/// then divided by the subset size.
double mean_over(const std::vector<double>& values,
                 const std::vector<std::size_t>& subset);

/// max − min of `values` over `subset`: the spread the termination test
/// compares with ε.
double spread_over(const std::vector<double>& values,
                   const std::vector<std::size_t>& subset);

/// The per-iteration dynamic step bound (Eq. 5 over `subset`):
/// 2 Σ (∂U_i − avg)² / Σ |∂²C_i| (∂U_i − avg)², with the average over
/// `subset`. Where the denominator vanishes the objective is locally
/// linear (e.g. on the delay model's tangent extension) and imposes no
/// bound, so `fallback` is returned.
double dynamic_alpha_bound(const std::vector<double>& marginal_u,
                           const std::vector<double>& second,
                           const std::vector<std::size_t>& subset,
                           double fallback);

/// Step (c) for one constraint group: Δx_i = α (∂U_i − avg_A) over the
/// active set, scaled by the largest θ ∈ (0,1] that keeps every x_i in
/// [0, cap_i], then clamped onto the bounds to absorb floating-point dust.
/// Writes x_out[i] for i in `active` only, and `x_out` may be `x` itself.
/// `caps` as for active_set_fast; `deltas` is scratch. Returns θ.
double apply_scaled_step(const std::vector<std::size_t>& active,
                         const std::vector<double>& x,
                         const std::vector<double>& marginal_u, double alpha,
                         const std::vector<double>& caps,
                         std::vector<double>& deltas,
                         std::vector<double>& x_out);

/// The delay part of a single-server node's marginal utility at load a,
/// T(a) + a·T'(a), so ∂U_i = -(C_i + k·marginal_delay(λ x_i, μ_i, ...)).
/// The per-object solve and the vertex certificate's caller both
/// evaluate it here, so both get the same bits.
inline double marginal_delay(double a, double mu, double scv,
                             double rho_max) {
  return queueing::detail::lin_sojourn(a, mu, scv, rho_max) +
         a * queueing::detail::lin_d_sojourn(a, mu, scv, rho_max);
}

/// The vertex certificate (DESIGN §4g): true only if the procedure's
/// first termination check at the point mass x = e_s — uncapped, one
/// Σ = 1 group over all n nodes, fixed step α > 0 — is certain to find a
/// marginal-utility spread below ε over its set A, so the allocator stops
/// at e_s after 0 iterations. It holds when node s has the largest
/// marginal utility (§5.3's optimality condition at a vertex,
/// ∂U_s >= ∂U_i for every i) and the rounding guard
///   4n²((n+1)² + 1) · 2⁻⁵³ · (max|∂U| + 2⁻¹⁰²¹(1 + 1/α)) < ε
/// bounds every spread the procedure's rounding can leave behind; also
/// n·max|∂U| <= 2¹⁰⁰⁰, so no sum overflows. `marginal_u` holds the n
/// values ∂U_i exactly as the allocator computes them at e_s. A false
/// answer says nothing: the caller runs the procedure.
bool vertex_start_terminates(const double* marginal_u, std::size_t n,
                             std::size_t s, double alpha, double epsilon);

}  // namespace fap::core::detail
