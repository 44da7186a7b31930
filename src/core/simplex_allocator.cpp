#include "core/simplex_allocator.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace fap::core {

namespace {

// The problems here have no storage caps.
const std::vector<double> kNoCaps;

}  // namespace

SimplexAllocator::SimplexAllocator(queueing::DelayModel delay,
                                   AllocatorOptions options)
    : delay_(delay),
      options_(options),
      single_server_(delay.discipline() != queueing::Discipline::kMMc) {
  FAP_EXPECTS(options_.alpha > 0.0, "step size must be positive");
  FAP_EXPECTS(options_.epsilon > 0.0, "epsilon must be positive");
  FAP_EXPECTS(options_.max_iterations > 0, "need at least one iteration");
  FAP_EXPECTS(!options_.record_trace,
              "SimplexAllocator does not record traces; use the serial "
              "ResourceDirectedAllocator for traced runs");
}

double SimplexAllocator::marginal_delay(double a, double mu) const {
  if (single_server_) {
    return detail::marginal_delay(a, mu, delay_.scv(), delay_.rho_max());
  }
  return delay_.sojourn(a, mu) + a * delay_.d_sojourn(a, mu);
}

double SimplexAllocator::marginal_utility(const SimplexProblem& problem,
                                          std::size_t i, double x_i) const {
  return -(problem.access_cost[i] +
           problem.k * marginal_delay(problem.rate * x_i, problem.mu[i]));
}

double SimplexAllocator::second_derivative(const SimplexProblem& problem,
                                           std::size_t i, double x_i) const {
  const double a = problem.rate * x_i;
  const double mu = problem.mu[i];
  if (single_server_) {
    const double scv = delay_.scv();
    const double rho = delay_.rho_max();
    return problem.rate * problem.k *
           (2.0 * queueing::detail::lin_d_sojourn(a, mu, scv, rho) +
            a * queueing::detail::lin_d2_sojourn(a, mu, scv, rho));
  }
  return problem.rate * problem.k *
         (2.0 * delay_.d_sojourn(a, mu) + a * delay_.d2_sojourn(a, mu));
}

SimplexAllocator::Result SimplexAllocator::run(const SimplexProblem& problem,
                                               std::vector<double>& x,
                                               std::vector<double>& du,
                                               Workspace& workspace) const {
  const std::size_t n = problem.n;
  FAP_EXPECTS(n >= 1, "problem needs at least one node");
  FAP_EXPECTS(problem.access_cost != nullptr && problem.mu != nullptr,
              "problem needs access costs and service rates");
  FAP_EXPECTS(x.size() == n && du.size() == n,
              "allocation has wrong dimension");
  FAP_EXPECTS(problem.rate > 0.0, "network-wide access rate must be positive");
  FAP_EXPECTS(std::isfinite(problem.rate),
              "network-wide access rate must be finite");
  FAP_EXPECTS(problem.k >= 0.0, "k must be non-negative");
  FAP_EXPECTS(std::isfinite(problem.k), "k must be finite");
  constexpr double kTol = 1e-9;  // CostModel::check_feasible's tolerance
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    FAP_EXPECTS(std::isfinite(problem.access_cost[i]),
                "access costs must be finite");
    FAP_EXPECTS(problem.mu[i] > 0.0, "service rates must be positive");
    if (delay_.rho_max() >= 1.0) {
      FAP_EXPECTS(problem.rate < delay_.capacity(problem.mu[i]),
                  "stability requires λ below every node's service "
                  "capacity (or a linearized delay model, see DelayModel "
                  "rho_max)");
    }
    FAP_EXPECTS(x[i] >= -kTol, "allocation must be non-negative");
    sum += x[i];
  }
  FAP_EXPECTS(std::fabs(sum - 1.0) <= kTol,
              "allocation violates a resource-conservation constraint");

  ConstraintGroup& group = workspace.group;
  if (group.indices.size() != n) {
    group.indices.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      group.indices[i] = i;
    }
    group.total = 1.0;
  }
  const bool dynamic = options_.step_rule == StepRule::kDynamic;
  std::vector<double>& d2c = workspace.d2c;
  if (dynamic) {
    d2c.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      d2c[i] = second_derivative(problem, i, x[i]);
    }
  }

  // ResourceDirectedAllocator::run's loop for its one group: the step
  // size, set A, the spread test and the θ-scaled apply, in step_into's
  // order. A run stops before stepping when the spread over A is below ε,
  // and after its last step at the iteration cap.
  const std::vector<std::size_t>& active = workspace.aset.active;
  Result result;
  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    double alpha = options_.alpha;
    if (dynamic) {
      alpha = kDynamicSafety * detail::dynamic_alpha_bound(
                                   du, d2c, group.indices, options_.alpha);
    }
    detail::active_set_fast(group, x, du, alpha, kNoCaps, n, workspace.aset);
    if (dynamic) {
      alpha = kDynamicSafety *
              detail::dynamic_alpha_bound(du, d2c, active, options_.alpha);
    }
    if (!(detail::spread_over(du, active) >= options_.epsilon)) {
      result.converged = true;
      break;
    }
    detail::apply_scaled_step(active, x, du, alpha, kNoCaps,
                              workspace.deltas, x);
    ++result.iterations;
    // Only the nodes of A moved; every other entry of du and d2c is
    // already the value at its unchanged x.
    for (const std::size_t i : active) {
      du[i] = marginal_utility(problem, i, x[i]);
      if (dynamic) {
        d2c[i] = second_derivative(problem, i, x[i]);
      }
    }
  }
  return result;
}

}  // namespace fap::core
