#include "baselines/projected_gradient.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/contracts.hpp"

namespace fap::baselines {

std::vector<double> project_simplex(std::vector<double> v, double total) {
  FAP_EXPECTS(!v.empty(), "cannot project an empty vector");
  FAP_EXPECTS(total > 0.0, "simplex total must be positive");
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double cumulative = 0.0;
  double tau = 0.0;
  std::size_t rho = 0;
  for (std::size_t j = 0; j < sorted.size(); ++j) {
    cumulative += sorted[j];
    const double candidate =
        (cumulative - total) / static_cast<double>(j + 1);
    if (sorted[j] - candidate > 0.0) {
      rho = j + 1;
      tau = candidate;
    }
  }
  FAP_ENSURES(rho > 0, "simplex projection found no support");
  for (double& x : v) {
    x = std::max(0.0, x - tau);
  }
  return v;
}

std::vector<double> project_capped_simplex(const std::vector<double>& v,
                                           double total,
                                           const std::vector<double>& caps) {
  FAP_EXPECTS(!v.empty(), "cannot project an empty vector");
  FAP_EXPECTS(total > 0.0, "simplex total must be positive");
  FAP_EXPECTS(caps.size() == v.size(), "one cap per coordinate");
  double cap_total = 0.0;
  for (const double cap : caps) {
    FAP_EXPECTS(cap >= 0.0, "caps must be non-negative");
    cap_total += cap;
  }
  FAP_EXPECTS(cap_total >= total - 1e-9,
              "caps must admit a feasible allocation");

  const auto sum_at = [&](double tau) {
    double sum = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      sum += std::clamp(v[i] - tau, 0.0, caps[i]);
    }
    return sum;
  };
  // Bracket τ: very negative -> everything at cap (>= total); at
  // max(v) -> everything at 0 (<= total).
  double lo = *std::min_element(v.begin(), v.end()) - total - 1.0;
  double hi = *std::max_element(v.begin(), v.end());
  for (int iter = 0; iter < 200 && hi - lo > 1e-14 * (1.0 + std::fabs(hi));
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (sum_at(mid) > total) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double tau = 0.5 * (lo + hi);
  std::vector<double> x(v.size(), 0.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    x[i] = std::clamp(v[i] - tau, 0.0, caps[i]);
  }
  // Exactness: distribute the tiny residual over unsaturated coordinates.
  double residual = total;
  for (const double xi : x) {
    residual -= xi;
  }
  for (std::size_t i = 0; i < x.size() && std::fabs(residual) > 1e-12;
       ++i) {
    const double room = residual > 0.0 ? caps[i] - x[i] : x[i];
    const double moved = std::copysign(
        std::min(std::fabs(residual), room), residual);
    x[i] += moved;
    residual -= moved;
  }
  return x;
}

namespace {

// Armijo backtracking: each iteration tries kInitialStep first and
// shrinks it by kBacktrack until the projected step decreases the cost by
// at least kArmijoC times the directional derivative.
constexpr double kInitialStep = 1.0;
constexpr double kBacktrack = 0.5;
constexpr double kArmijoC = 1e-4;

// Project each constraint group's coordinates onto its (possibly capped)
// scaled simplex.
std::vector<double> project_groups(const core::CostModel& model,
                                   std::vector<double> x) {
  const std::vector<double> caps = model.upper_bounds();
  for (const core::ConstraintGroup& group : model.constraint_groups()) {
    std::vector<double> sub(group.indices.size());
    for (std::size_t k = 0; k < group.indices.size(); ++k) {
      sub[k] = x[group.indices[k]];
    }
    if (caps.empty()) {
      sub = project_simplex(std::move(sub), group.total);
    } else {
      std::vector<double> group_caps(group.indices.size());
      for (std::size_t k = 0; k < group.indices.size(); ++k) {
        group_caps[k] = caps[group.indices[k]];
      }
      sub = project_capped_simplex(sub, group.total, group_caps);
    }
    for (std::size_t k = 0; k < group.indices.size(); ++k) {
      x[group.indices[k]] = sub[k];
    }
  }
  return x;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  return std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
}

double linf(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::fabs(a[i] - b[i]));
  }
  return d;
}

}  // namespace

ProjectedGradientResult projected_gradient_solve(
    const core::CostModel& model, std::vector<double> initial,
    const ProjectedGradientOptions& options) {
  FAP_EXPECTS(initial.size() == model.dimension(),
              "initial point has wrong dimension");

  ProjectedGradientResult result;
  result.x = project_groups(model, std::move(initial));
  double cost = model.cost(result.x);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    const std::vector<double> grad = model.gradient(result.x);
    double step = kInitialStep;
    std::vector<double> candidate;
    double candidate_cost = cost;
    bool accepted = false;
    // Armijo backtracking on the projected step.
    for (int attempt = 0; attempt < 60; ++attempt) {
      std::vector<double> moved(result.x.size());
      for (std::size_t i = 0; i < moved.size(); ++i) {
        moved[i] = result.x[i] - step * grad[i];
      }
      candidate = project_groups(model, std::move(moved));
      candidate_cost = model.cost(candidate);
      std::vector<double> direction(candidate.size());
      for (std::size_t i = 0; i < direction.size(); ++i) {
        direction[i] = candidate[i] - result.x[i];
      }
      // Sufficient decrease relative to the directional derivative.
      if (candidate_cost <=
          cost + kArmijoC * dot(grad, direction)) {
        accepted = true;
        break;
      }
      step *= kBacktrack;
    }
    if (!accepted) {
      // No descent step found: we are at a stationary point numerically.
      result.converged = true;
      break;
    }
    const double movement = linf(candidate, result.x);
    result.x = std::move(candidate);
    cost = candidate_cost;
    ++result.iterations;
    if (movement < options.tol) {
      result.converged = true;
      break;
    }
  }
  result.cost = cost;
  return result;
}

}  // namespace fap::baselines
