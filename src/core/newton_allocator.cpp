#include "core/newton_allocator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/active_set.hpp"
#include "util/contracts.hpp"

namespace fap::core {

namespace {

// Boundary threshold shared with the first-order allocator; the rationale
// lives with its definition in core/active_set.hpp.
using detail::kBoundaryTol;

// Curvatures below this floor (relative to the largest curvature in the
// group) are clamped, so the update stays bounded on the delay model's
// linear extension where ∂²U = 0.
constexpr double kCurvatureFloor = 1e-9;

// Curvature-weighted mean ū of marginal utilities over `subset`.
double weighted_mean(const std::vector<double>& du,
                     const std::vector<double>& inv_h,
                     const std::vector<std::size_t>& subset) {
  double num = 0.0;
  double den = 0.0;
  for (const std::size_t i : subset) {
    num += du[i] * inv_h[i];
    den += inv_h[i];
  }
  return num / den;
}

double spread_over(const std::vector<double>& values,
                   const std::vector<std::size_t>& subset) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const std::size_t i : subset) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  return hi - lo;
}

}  // namespace

NewtonAllocator::NewtonAllocator(const CostModel& model,
                                 NewtonAllocatorOptions options)
    : model_(model), options_(options) {
  FAP_EXPECTS(options_.alpha > 0.0, "step size must be positive");
  FAP_EXPECTS(options_.epsilon > 0.0, "epsilon must be positive");
  FAP_EXPECTS(options_.max_iterations > 0, "need at least one iteration");
  FAP_EXPECTS(model_.upper_bounds().empty(),
              "NewtonAllocator does not support storage capacities; use "
              "ResourceDirectedAllocator");
}

NewtonAllocator::StepOutcome NewtonAllocator::step(
    const std::vector<double>& x) const {
  model_.check_feasible(x);
  const std::vector<double> du = model_.marginal_utilities(x);
  const std::vector<double> d2c = model_.second_derivative(x);
  const std::vector<ConstraintGroup> groups = model_.constraint_groups();

  // Inverse curvatures with the relative floor applied per group.
  std::vector<double> inv_h(du.size(), 1.0);

  StepOutcome outcome;
  outcome.x = x;
  bool all_within_epsilon = true;
  double max_spread = 0.0;

  struct GroupPlan {
    std::vector<std::size_t> active;
  };
  std::vector<GroupPlan> plans;
  plans.reserve(groups.size());

  for (const ConstraintGroup& group : groups) {
    double max_h = 0.0;
    for (const std::size_t i : group.indices) {
      max_h = std::max(max_h, std::fabs(d2c[i]));
    }
    const double floor = std::max(kCurvatureFloor * max_h,
                                  std::numeric_limits<double>::min());
    for (const std::size_t i : group.indices) {
      const double h = std::max(std::fabs(d2c[i]), floor);
      inv_h[i] = max_h > 0.0 ? 1.0 / h : 1.0;  // all-zero curvature: revert
                                               // to first-order weights
    }

    // Active-set determination, mirroring Section 5.2 steps (i)-(v) with
    // the curvature-weighted average and scaled moves.
    const auto delta = [&](std::size_t i,
                           const std::vector<std::size_t>& members) {
      return options_.alpha * (du[i] - weighted_mean(du, inv_h, members)) *
             inv_h[i];
    };

    GroupPlan plan;
    for (const std::size_t i : group.indices) {
      if (x[i] > kBoundaryTol || x[i] + delta(i, group.indices) > 0.0) {
        plan.active.push_back(i);
      }
    }
    if (plan.active.empty()) {
      plan.active.push_back(*std::max_element(
          group.indices.begin(), group.indices.end(),
          [&](std::size_t a, std::size_t b) { return du[a] < du[b]; }));
    }
    const std::size_t round_limit = 2 * group.indices.size() + 2;
    for (std::size_t round = 0; round < round_limit; ++round) {
      bool changed = false;
      for (;;) {  // re-admit gainers
        std::size_t best = 0;
        double best_du = -std::numeric_limits<double>::infinity();
        bool found = false;
        for (const std::size_t j : group.indices) {
          if (std::find(plan.active.begin(), plan.active.end(), j) !=
              plan.active.end()) {
            continue;
          }
          if (du[j] > best_du) {
            best_du = du[j];
            best = j;
            found = true;
          }
        }
        if (!found || best_du <= weighted_mean(du, inv_h, plan.active)) {
          break;
        }
        plan.active.push_back(best);
        changed = true;
      }
      std::vector<std::size_t> survivors;
      for (const std::size_t i : plan.active) {
        const double d = delta(i, plan.active);
        if (x[i] <= kBoundaryTol && d < 0.0 && x[i] + d <= 0.0) {
          changed = true;
          continue;
        }
        survivors.push_back(i);
      }
      if (survivors.empty()) {
        survivors.push_back(*std::max_element(
            plan.active.begin(), plan.active.end(),
            [&](std::size_t a, std::size_t b) { return du[a] < du[b]; }));
      }
      plan.active = std::move(survivors);
      if (!changed) {
        break;
      }
    }
    std::sort(plan.active.begin(), plan.active.end());

    const double spread = spread_over(du, plan.active);
    max_spread = std::max(max_spread, spread);
    if (spread >= options_.epsilon) {
      all_within_epsilon = false;
    }
    outcome.active_set_size += plan.active.size();
    plans.push_back(std::move(plan));
  }

  outcome.marginal_spread = max_spread;
  if (all_within_epsilon) {
    outcome.terminal = true;
    return outcome;
  }

  for (const GroupPlan& plan : plans) {
    const double avg = weighted_mean(du, inv_h, plan.active);
    std::vector<double> deltas(plan.active.size());
    double theta = 1.0;
    for (std::size_t idx = 0; idx < plan.active.size(); ++idx) {
      const std::size_t i = plan.active[idx];
      deltas[idx] = options_.alpha * (du[i] - avg) * inv_h[i];
      if (deltas[idx] < 0.0 && x[i] + deltas[idx] < 0.0) {
        theta = std::min(theta, x[i] / -deltas[idx]);
      }
    }
    for (std::size_t idx = 0; idx < plan.active.size(); ++idx) {
      const std::size_t i = plan.active[idx];
      outcome.x[i] = std::max(0.0, x[i] + theta * deltas[idx]);
    }
    outcome.alpha_used = std::max(outcome.alpha_used, theta * options_.alpha);
  }
  return outcome;
}

AllocationResult NewtonAllocator::run(std::vector<double> initial) const {
  model_.check_feasible(initial);
  AllocationResult result;
  result.x = std::move(initial);

  auto record = [&](std::size_t iteration, const StepOutcome& outcome) {
    if (!options_.record_trace) {
      return;
    }
    IterationRecord rec;
    rec.iteration = iteration;
    rec.cost = model_.cost(result.x);
    rec.alpha = outcome.terminal ? 0.0 : outcome.alpha_used;
    rec.active_set_size = outcome.active_set_size;
    rec.marginal_spread = outcome.marginal_spread;
    rec.x = result.x;
    result.trace.push_back(std::move(rec));
  };

  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    StepOutcome outcome = step(result.x);
    record(iter, outcome);
    if (outcome.terminal) {
      result.converged = true;
      break;
    }
    result.x = std::move(outcome.x);
    ++result.iterations;
  }
  result.cost = model_.cost(result.x);
  return result;
}

}  // namespace fap::core
