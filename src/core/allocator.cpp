#include "core/allocator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace fap::core {

namespace {

// Boundary tolerance shared with the fast path; the rationale for
// boundary-only exclusion lives with its definition in core/active_set.hpp.
using detail::kBoundaryTol;

// Mean of `values` over the index subset `subset`.
double mean_over(const std::vector<double>& values,
                 const std::vector<std::size_t>& subset) {
  double sum = 0.0;
  for (const std::size_t i : subset) {
    sum += values[i];
  }
  return sum / static_cast<double>(subset.size());
}

// max - min of `values` over `subset`.
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

ResourceDirectedAllocator::ResourceDirectedAllocator(const CostModel& model,
                                                     AllocatorOptions options)
    : model_(model),
      options_(options),
      groups_(model.constraint_groups()),
      caps_(model.upper_bounds()),
      dim_(model.dimension()) {
  FAP_EXPECTS(options_.alpha > 0.0, "step size must be positive");
  FAP_EXPECTS(options_.epsilon > 0.0, "epsilon must be positive");
  FAP_EXPECTS(options_.max_iterations > 0, "need at least one iteration");
}

double ResourceDirectedAllocator::dynamic_alpha_bound_cached(
    const std::vector<std::size_t>& active) const {
  const double avg = mean_over(ws_.du, active);
  double numerator = 0.0;
  double denominator = 0.0;
  for (const std::size_t i : active) {
    const double dev = ws_.du[i] - avg;
    numerator += dev * dev;
    denominator += std::fabs(ws_.d2c[i]) * dev * dev;
  }
  if (denominator <= 0.0) {
    // Locally linear objective (e.g. on the delay model's tangent
    // extension): the quadratic model imposes no bound; fall back to a
    // conservative finite step.
    return options_.alpha;
  }
  return 2.0 * numerator / denominator;
}

void ResourceDirectedAllocator::check_feasible_cached(
    const std::vector<double>& x, double sum_tolerance) const {
  // CostModel::check_feasible against the cached constraint structure:
  // identical checks, messages, and default tolerance, but no
  // constraint_groups()/upper_bounds() round trips. Only the
  // conservation-sum check honors `sum_tolerance` (step_with_drift).
  constexpr double tol = 1e-9;
  FAP_EXPECTS(x.size() == dim_, "allocation has wrong dimension");
  for (const double xi : x) {
    FAP_EXPECTS(xi >= -tol, "allocation must be non-negative");
  }
  if (!caps_.empty()) {
    FAP_EXPECTS(caps_.size() == x.size(),
                "one upper bound per variable when bounds are present");
    for (std::size_t i = 0; i < x.size(); ++i) {
      FAP_EXPECTS(x[i] <= caps_[i] + tol,
                  "allocation exceeds a storage capacity");
    }
  }
  for (const ConstraintGroup& group : groups_) {
    double sum = 0.0;
    for (const std::size_t i : group.indices) {
      FAP_EXPECTS(i < x.size(), "constraint index out of range");
      sum += x[i];
    }
    FAP_EXPECTS(std::fabs(sum - group.total) <= sum_tolerance,
                "allocation violates a resource-conservation constraint");
  }
}

std::vector<std::size_t> ResourceDirectedAllocator::active_set(
    const ConstraintGroup& group, const std::vector<double>& x,
    const std::vector<double>& marginal_u, double alpha) const {
  detail::active_set_fast(group, x, marginal_u, alpha, caps_, dim_, ws_.aset);
  return ws_.aset.active;
}

std::vector<std::size_t> ResourceDirectedAllocator::active_set_reference(
    const ConstraintGroup& group, const std::vector<double>& x,
    const std::vector<double>& marginal_u, double alpha) const {
  FAP_EXPECTS(!group.indices.empty(), "constraint group must be non-empty");
  const std::vector<double> caps = model_.upper_bounds();
  const auto cap_of = [&caps](std::size_t i) {
    return caps.empty() ? std::numeric_limits<double>::infinity() : caps[i];
  };

  // Δx under the average of the candidate set `members`.
  const auto delta = [&](std::size_t i,
                         const std::vector<std::size_t>& members) {
    return alpha * (marginal_u[i] - mean_over(marginal_u, members));
  };

  // A variable pinned at a boundary moving further into it is excluded
  // (both bounds treated symmetrically: the paper's x_i >= 0 logic, plus
  // the storage-capacity ceiling of the Suri [33] generalization).
  const auto pinned = [&](std::size_t i, double d) {
    if (x[i] <= kBoundaryTol && d < 0.0 && x[i] + d <= 0.0) {
      return true;  // at the floor, being decreased
    }
    const double cap = cap_of(i);
    return x[i] >= cap - kBoundaryTol && d > 0.0 && x[i] + d >= cap;
  };

  // Step (i): start from the whole group, keep nodes not pinned under the
  // full-group average.
  std::vector<std::size_t> active;
  active.reserve(group.indices.size());
  for (const std::size_t i : group.indices) {
    if (!pinned(i, delta(i, group.indices))) {
      active.push_back(i);
    }
  }
  if (active.empty()) {
    // Degenerate; keep the node with the highest marginal utility.
    const std::size_t best = *std::max_element(
        group.indices.begin(), group.indices.end(),
        [&](std::size_t a, std::size_t b) {
          return marginal_u[a] < marginal_u[b];
        });
    active.push_back(best);
  }

  // Steps (ii)-(v) plus the fixed-point strengthening: alternately
  // re-admit excluded nodes that would move AWAY from their boundary
  // (floor-pinned gainers, cap-pinned losers — both safe), and drop
  // active nodes whose recomputed Δx pins them.
  const std::size_t round_limit = 2 * group.indices.size() + 2;
  for (std::size_t round = 0; round < round_limit; ++round) {
    bool changed = false;

    // Re-admission: largest |marginal - average| eligible node first.
    for (;;) {
      const double avg = mean_over(marginal_u, active);
      std::size_t best = 0;
      double best_gap = 0.0;
      bool found = false;
      for (const std::size_t j : group.indices) {
        if (std::find(active.begin(), active.end(), j) != active.end()) {
          continue;
        }
        const double gap = marginal_u[j] - avg;
        const bool safe_gainer = gap > 0.0 && x[j] < cap_of(j) - kBoundaryTol;
        const bool safe_loser = gap < 0.0 && x[j] > kBoundaryTol;
        if ((safe_gainer || safe_loser) && std::fabs(gap) > best_gap) {
          best_gap = std::fabs(gap);
          best = j;
          found = true;
        }
      }
      if (!found) {
        break;
      }
      active.push_back(best);
      changed = true;
    }

    // Drop: members whose recomputed Δx pins them at a boundary.
    std::vector<std::size_t> survivors;
    survivors.reserve(active.size());
    for (const std::size_t i : active) {
      if (pinned(i, delta(i, active))) {
        changed = true;
        continue;
      }
      survivors.push_back(i);
    }
    if (survivors.empty()) {
      // Everyone is a violator only in degenerate corner cases; keep the
      // best node defensively.
      survivors.push_back(*std::max_element(
          active.begin(), active.end(), [&](std::size_t a, std::size_t b) {
            return marginal_u[a] < marginal_u[b];
          }));
    }
    active = std::move(survivors);

    if (!changed) {
      break;
    }
  }
  std::sort(active.begin(), active.end());
  return active;
}

ResourceDirectedAllocator::StepStats ResourceDirectedAllocator::step_into(
    const std::vector<double>& x, std::vector<double>& x_out,
    double sum_tolerance) const {
  check_feasible_cached(x, sum_tolerance);
  model_.marginal_utilities_into(x, ws_.du);
  if (options_.step_rule == StepRule::kDynamic) {
    model_.second_derivative_into(x, ws_.d2c);
  }

  const std::size_t n_groups = groups_.size();
  if (ws_.group_active.size() != n_groups) {
    ws_.group_active.resize(n_groups);
  }
  ws_.group_alpha.assign(n_groups, 0.0);

  StepStats stats;
  bool all_within_epsilon = true;
  double max_spread = 0.0;

  // First pass: determine the active set and step size per group and check
  // the global termination criterion.
  for (std::size_t g = 0; g < n_groups; ++g) {
    const ConstraintGroup& group = groups_[g];
    // Provisional step size for set-A determination; for the dynamic rule
    // this uses the whole group, then is refined over the active set.
    double alpha = options_.alpha;
    if (options_.step_rule == StepRule::kDynamic) {
      alpha = kDynamicSafety * dynamic_alpha_bound_cached(group.indices);
    }
    std::vector<std::size_t>& active = ws_.group_active[g];
    if (options_.use_reference_active_set) {
      active = active_set_reference(group, x, ws_.du, alpha);
    } else {
      detail::active_set_fast(group, x, ws_.du, alpha, caps_, dim_, ws_.aset);
      active = ws_.aset.active;
    }
    if (options_.step_rule == StepRule::kDynamic) {
      alpha = kDynamicSafety * dynamic_alpha_bound_cached(active);
    }
    ws_.group_alpha[g] = alpha;

    const double spread = spread_over(ws_.du, active);
    max_spread = std::max(max_spread, spread);
    if (spread >= options_.epsilon) {
      all_within_epsilon = false;
    }
    stats.active_set_size += active.size();
  }

  stats.marginal_spread = max_spread;
  x_out = x;
  if (all_within_epsilon) {
    stats.terminal = true;
    return stats;
  }

  // Second pass: apply Δx_i = α (∂U/∂x_i - avg_A) per group, scaled by the
  // largest θ ∈ (0,1] that keeps the group within [0, cap].
  const auto cap_of = [this](std::size_t i) {
    return caps_.empty() ? std::numeric_limits<double>::infinity() : caps_[i];
  };
  double alpha_used = 0.0;
  for (std::size_t g = 0; g < n_groups; ++g) {
    const std::vector<std::size_t>& active = ws_.group_active[g];
    const double group_alpha = ws_.group_alpha[g];
    const double avg = mean_over(ws_.du, active);
    std::vector<double>& deltas = ws_.deltas;
    deltas.assign(active.size(), 0.0);
    double theta = 1.0;
    for (std::size_t idx = 0; idx < active.size(); ++idx) {
      const std::size_t i = active[idx];
      deltas[idx] = group_alpha * (ws_.du[i] - avg);
      if (deltas[idx] < 0.0 && x[i] + deltas[idx] < 0.0) {
        theta = std::min(theta, x[i] / -deltas[idx]);
      }
      const double cap = cap_of(i);
      if (deltas[idx] > 0.0 && x[i] + deltas[idx] > cap) {
        theta = std::min(theta, (cap - x[i]) / deltas[idx]);
      }
    }
    theta = std::max(theta, 0.0);
    for (std::size_t idx = 0; idx < active.size(); ++idx) {
      const std::size_t i = active[idx];
      x_out[i] = x[i] + theta * deltas[idx];
      if (x_out[i] < 0.0) {
        x_out[i] = 0.0;  // absorb floating-point dust
      }
      if (x_out[i] > cap_of(i)) {
        x_out[i] = cap_of(i);
      }
    }
    alpha_used = std::max(alpha_used, theta * group_alpha);
  }
  stats.alpha_used = alpha_used;
  return stats;
}

ResourceDirectedAllocator::StepOutcome ResourceDirectedAllocator::step(
    const std::vector<double>& x) const {
  StepOutcome outcome;
  const StepStats stats = step_into(x, outcome.x);
  outcome.terminal = stats.terminal;
  outcome.marginal_spread = stats.marginal_spread;
  outcome.active_set_size = stats.active_set_size;
  outcome.alpha_used = stats.alpha_used;
  return outcome;
}

ResourceDirectedAllocator::StepOutcome
ResourceDirectedAllocator::step_with_drift(const std::vector<double>& x,
                                           double sum_tolerance) const {
  FAP_EXPECTS(sum_tolerance >= 0.0, "drift tolerance must be non-negative");
  StepOutcome outcome;
  const StepStats stats = step_into(x, outcome.x, sum_tolerance);
  outcome.terminal = stats.terminal;
  outcome.marginal_spread = stats.marginal_spread;
  outcome.active_set_size = stats.active_set_size;
  outcome.alpha_used = stats.alpha_used;
  return outcome;
}

AllocationResult ResourceDirectedAllocator::run(
    std::vector<double> initial) const {
  check_feasible_cached(initial);
  AllocationResult result;
  result.x = std::move(initial);

  auto record = [&](std::size_t iteration, const StepStats& stats) {
    if (!options_.record_trace) {
      return;
    }
    IterationRecord rec;
    rec.iteration = iteration;
    rec.cost = model_.cost(result.x);
    rec.alpha = stats.terminal ? 0.0 : stats.alpha_used;
    rec.active_set_size = stats.active_set_size;
    rec.marginal_spread = stats.marginal_spread;
    rec.x = result.x;
    result.trace.push_back(std::move(rec));
  };

  // Steady state allocates nothing: each iteration steps result.x into the
  // workspace's ping-pong buffer and swaps (trace recording, when enabled,
  // copies by design).
  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    const StepStats stats = step_into(result.x, ws_.x_next);
    record(iter, stats);
    if (stats.terminal) {
      result.converged = true;
      break;
    }
    std::swap(result.x, ws_.x_next);
    ++result.iterations;
  }
  if (!result.converged && options_.record_trace) {
    // Record the final state reached at the iteration cap.
    StepStats final_state;
    final_state.terminal = true;
    record(result.iterations, final_state);
  }
  result.cost = model_.cost(result.x);
  return result;
}

}  // namespace fap::core
