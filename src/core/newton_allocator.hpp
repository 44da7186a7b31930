// Second-derivative (Newton-scaled) variant of the resource-directed
// algorithm — the extension the paper reports under Future Research
// (Section 8.2): "We are at the moment investigating the use of second
// derivative information in this algorithm... The second derivative
// algorithm is resilient to changes in the scale of the problem... and
// increases the tolerance of the algorithm towards the selection of the
// stepsize parameter."
//
// Following the center-free second-order schemes of Ho, Servi & Suri [20]
// and Bertsekas et al. [2], each active node moves by
//
//   Δx_i = α ( ∂U/∂x_i - ū ) / h_i ,   h_i = |∂²U/∂x_i²| ,
//   ū    = Σ_{j∈A} (∂U/∂x_j / h_j)  /  Σ_{j∈A} (1/h_j) ,
//
// i.e. the average is curvature-weighted and each node's move is scaled by
// its own curvature. Σ_{i∈A} Δx_i = 0 by construction, so feasibility is
// preserved exactly as in Theorem 1, and the direction remains an ascent
// direction, so monotonicity holds for small α. Because ∂U and ∂²U scale
// together under any rescaling of the cost function (link costs, k), the
// update — and hence a good choice of α — is invariant to problem scale;
// the A2 ablation bench demonstrates this against the first-order
// algorithm.
#pragma once

#include <cstddef>
#include <vector>

#include "core/allocator.hpp"
#include "core/cost_model.hpp"

namespace fap::core {

struct NewtonAllocatorOptions {
  /// Step size; α = 1 is the pure (coordinate-wise) Newton step.
  double alpha = 1.0;
  double epsilon = 1e-3;
  std::size_t max_iterations = 100000;
  bool record_trace = false;
};

class NewtonAllocator {
 public:
  NewtonAllocator(const CostModel& model, NewtonAllocatorOptions options);

  AllocationResult run(std::vector<double> initial) const;

  struct StepOutcome {
    std::vector<double> x;
    bool terminal = false;
    double marginal_spread = 0.0;
    std::size_t active_set_size = 0;
    double alpha_used = 0.0;
  };
  StepOutcome step(const std::vector<double>& x) const;

  const NewtonAllocatorOptions& options() const noexcept { return options_; }

 private:
  const CostModel& model_;
  NewtonAllocatorOptions options_;
};

}  // namespace fap::core
