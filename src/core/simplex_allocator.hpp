// The Section 5.2 allocator on one object's own rows: a single-file
// problem whose only constraint is one uncapped group Σ x_i = 1 over its
// n nodes (the probability simplex), stepped in place.
//
// ResourceDirectedAllocator runs the paper's iteration on any CostModel,
// and every step re-evaluates all n marginal utilities through the
// model's virtual gradient. In the single-file cost (core/single_file.hpp)
// ∂U_i depends on x_i alone, and a step moves only the nodes of set A.
// SimplexAllocator runs the same iteration on a caller's contiguous x and
// ∂U rows: the shared active-set fast path, Eq. 5 step bound, spread test
// and θ-scaled apply of core/active_set.hpp, each in the serial expression
// order, under the same iteration-cap rule. After each step it
// re-evaluates ∂U, and ∂²C under the dynamic rule, only on the nodes of A.
// Every other node kept its x, so its cached value holds the bits a full
// re-evaluation would compute. The run is therefore bit-identical to
// ResourceDirectedAllocator::run on the SingleFileModel with the same
// access costs, rates and delay law (pinned by core_simplex_allocator_test
// on randomized instances). It needs no model object, which is why the
// catalog's inner solves (src/catalog/) run here: they already hold each
// object's priced access costs, and its ∂U row at the point-mass start.
#pragma once

#include <cstddef>
#include <vector>

#include "core/active_set.hpp"
#include "core/allocator.hpp"
#include "core/cost_model.hpp"
#include "queueing/delay.hpp"

namespace fap::core {

/// One single-file problem, by pointer into caller-owned rows: node i
/// receives accesses at rate λ·x_i and costs C_i + k·T(λ·x_i, μ_i) per
/// unit of the file it holds (SingleFileModel's objective).
struct SimplexProblem {
  std::size_t n = 0;
  double rate = 0.0;                    ///< λ, the file's total access rate
  double k = 0.0;                       ///< delay-vs-communication scaling
  const double* access_cost = nullptr;  ///< C_i, n entries
  const double* mu = nullptr;           ///< μ_i, n entries
};

class SimplexAllocator {
 public:
  /// Checks `options` as the ResourceDirectedAllocator constructor does
  /// (α > 0, ε > 0, at least one iteration) and rejects trace recording.
  /// Throws PreconditionError.
  SimplexAllocator(queueing::DelayModel delay, AllocatorOptions options);

  /// Per-thread scratch, sized on first use and refilled in place.
  struct Workspace {
    ConstraintGroup group;       ///< indices 0..n-1, total 1
    std::vector<double> d2c;     ///< ∂²C at x (dynamic rule only)
    std::vector<double> deltas;  ///< per-active-node Δx
    detail::ActiveSetWorkspace aset;
  };

  struct Result {
    std::size_t iterations = 0;  ///< reallocation steps taken
    bool converged = false;      ///< false when the iteration cap stopped it
  };

  /// T(a) + a·T'(a): the delay part of ∂U at load a, through the same
  /// expressions SingleFileModel's gradient evaluates.
  double marginal_delay(double a, double mu) const;

  /// ∂U_i = −(C_i + k·marginal_delay(λ·x_i, μ_i)) at allocation x_i.
  double marginal_utility(const SimplexProblem& problem, std::size_t i,
                          double x_i) const;

  /// Runs the iteration from the feasible allocation `x`, with `du`
  /// holding ∂U at `x` (marginal_utility() of every node). On return `x`
  /// is the allocation ResourceDirectedAllocator::run returns and `du` is
  /// ∂U there. First applies the checks SingleFileModel's constructor and
  /// check_feasible make (finite non-negative k, finite positive rate,
  /// finite access costs, positive service rates, λ below every node's
  /// capacity under a pure delay law, a feasible `x`) and throws
  /// PreconditionError on failure. `workspace` must not be shared between
  /// concurrent calls.
  Result run(const SimplexProblem& problem, std::vector<double>& x,
             std::vector<double>& du, Workspace& workspace) const;

 private:
  /// ∂²C_i at allocation x_i (the dynamic rule's curvature).
  double second_derivative(const SimplexProblem& problem, std::size_t i,
                           double x_i) const;

  queueing::DelayModel delay_;
  AllocatorOptions options_;
  bool single_server_ = true;  ///< not M/M/c: the inline delay expressions
};

}  // namespace fap::core
