#include "econ/utility_model.hpp"

#include <cmath>
#include <numeric>
#include <utility>

#include "util/contracts.hpp"

namespace fap::econ {

UtilityModel::UtilityModel(std::vector<ConcaveUtility> agents, double total)
    : agents_(std::move(agents)), total_(total) {
  FAP_EXPECTS(!agents_.empty(), "need at least one agent");
  FAP_EXPECTS(total_ > 0.0, "resource total must be positive");
}

std::vector<core::ConstraintGroup> UtilityModel::constraint_groups() const {
  core::ConstraintGroup group;
  group.indices.resize(agents_.size());
  std::iota(group.indices.begin(), group.indices.end(), std::size_t{0});
  group.total = total_;
  return {std::move(group)};
}

double UtilityModel::cost(const std::vector<double>& x) const {
  return -social_utility(agents_, x);
}

std::vector<double> UtilityModel::gradient(const std::vector<double>& x) const {
  FAP_EXPECTS(x.size() == agents_.size(), "size mismatch");
  std::vector<double> grad(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double marginal = agents_[i].derivative(x[i]);
    FAP_EXPECTS(std::isfinite(marginal),
                "marginal utility must be finite at the allocation (a "
                "power utility has u'(0) = +inf)");
    grad[i] = -marginal;
  }
  return grad;
}

std::vector<double> UtilityModel::second_derivative(
    const std::vector<double>& x) const {
  FAP_EXPECTS(x.size() == agents_.size(), "size mismatch");
  std::vector<double> hessian(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    hessian[i] = -agents_[i].second_derivative(x[i]);
  }
  return hessian;
}

}  // namespace fap::econ
