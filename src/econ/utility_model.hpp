// Heal's resource-directed planning ("Planning Without Prices" [15],
// Section 2 of the paper) as a cost model for the core allocator.
//
// Heal's step Δx_i = α (u_i'(x_i) - (1/|A|) Σ_{j∈A} u_j'(x_j)) is the
// Section 5.2 step of core::ResourceDirectedAllocator with U = Σ u_i, so
// the generic procedure needs only this adapter: cost C(x) = -Σ u_i(x_i)
// and one constraint group, Σ x_i = total. The allocator supplies the
// active set A, the θ-clipped step, ε termination and its feasibility and
// monotonicity guarantees — the paper's point that the algorithm "is very
// general in nature and can be applied to any arbitrary resource
// allocation problem".
#pragma once

#include <cstddef>
#include <vector>

#include "core/cost_model.hpp"
#include "econ/utility.hpp"

namespace fap::econ {

class UtilityModel final : public core::CostModel {
 public:
  /// Throws PreconditionError when there is no agent or total <= 0.
  UtilityModel(std::vector<ConcaveUtility> agents, double total);

  std::size_t dimension() const override { return agents_.size(); }
  std::vector<core::ConstraintGroup> constraint_groups() const override;

  /// -Σ u_i(x_i), the negated social utility.
  double cost(const std::vector<double>& x) const override;

  /// -u_i'(x_i). Throws PreconditionError when some u_i'(x_i) is not
  /// finite (a power utility at x_i = 0): the averaging step has no
  /// finite direction there.
  std::vector<double> gradient(const std::vector<double>& x) const override;

  /// -u_i''(x_i).
  std::vector<double> second_derivative(
      const std::vector<double>& x) const override;

 private:
  std::vector<ConcaveUtility> agents_;
  double total_;
};

}  // namespace fap::econ
