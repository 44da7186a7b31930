// Generic economic-agent abstractions (Section 2).
//
// The paper frames FAP as a special case of the pure-exchange resource
// allocation problem from mathematical economics: N agents share a fixed
// amount of one divisible resource, agent i derives utility u_i(x_i) from
// holding x_i of it, and a mechanism must find the allocation maximizing
// the social utility Σ u_i(x_i) subject to Σ x_i = total, x_i >= 0.
// This header defines the agent utility abstraction shared by the two
// mechanism families the paper contrasts: resource-directed (Heal [15],
// Section 2 & 5) and price-directed (Walras/Arrow-Hahn [3], Section 2).
#pragma once

#include <functional>
#include <vector>

namespace fap::econ {

/// A twice-differentiable concave utility of a scalar holding.
struct ConcaveUtility {
  std::function<double(double)> value;
  std::function<double(double)> derivative;         // u'(x), decreasing
  std::function<double(double)> second_derivative;  // u''(x) <= 0
};

/// Common parametric utilities used in tests and examples.
/// Logarithmic: u(x) = w · log(x + shift).
ConcaveUtility log_utility(double weight, double shift = 1e-9);
/// Quadratic: u(x) = a x - b x² / 2 (b > 0).
ConcaveUtility quadratic_utility(double a, double b);
/// Power: u(x) = w x^p with p in (0, 1). Its marginal utility at the
/// boundary is u'(0) = +inf, which UtilityModel::gradient rejects.
ConcaveUtility power_utility(double weight, double exponent);

/// Social utility Σ u_i(x_i).
double social_utility(const std::vector<ConcaveUtility>& agents,
                      const std::vector<double>& x);

}  // namespace fap::econ
