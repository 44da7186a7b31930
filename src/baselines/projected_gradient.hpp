// Centralized reference solver: projected gradient descent with Armijo
// backtracking over the product of (scaled) simplexes defined by the
// model's constraint groups.
//
// This is the "centralized optimization" the paper contrasts its algorithm
// against in Section 3 — a single agent with global information solving
// the whole problem. It serves two roles here: ground truth for the
// decentralized algorithm's optima in tests, and the comparison point for
// the per-iteration-cost discussion in the benches.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cost_model.hpp"

namespace fap::baselines {

struct ProjectedGradientOptions {
  double tol = 1e-10;  ///< stop when the iterate moves less than this
  std::size_t max_iterations = 20000;
};

struct ProjectedGradientResult {
  std::vector<double> x;
  double cost = 0.0;
  bool converged = false;
  std::size_t iterations = 0;
};

/// Euclidean projection of v onto the scaled simplex
/// { x >= 0, Σ x_i = total } (Duchi et al.'s sort-based algorithm).
std::vector<double> project_simplex(std::vector<double> v, double total);

/// Euclidean projection onto the capped simplex
/// { 0 <= x_i <= caps_i, Σ x_i = total }, by bisection on the shift τ in
/// x_i = clamp(v_i - τ, 0, caps_i) (Σ is non-increasing in τ). Requires
/// Σ caps >= total. Used when the model declares storage capacities.
std::vector<double> project_capped_simplex(const std::vector<double>& v,
                                           double total,
                                           const std::vector<double>& caps);

/// Minimizes model.cost over the feasible set from `initial` (projected
/// first, so any starting point is accepted).
ProjectedGradientResult projected_gradient_solve(
    const core::CostModel& model, std::vector<double> initial,
    const ProjectedGradientOptions& options = {});

}  // namespace fap::baselines
