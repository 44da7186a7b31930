#include "catalog/capacity_price_loop.hpp"

#include <algorithm>

#include "econ/price_directed.hpp"
#include "util/contracts.hpp"

namespace fap::catalog {

namespace {

// Guards the relative-overload division on a zero-budget node: such a
// node's residual is measured against one volume unit instead.
constexpr double kMinBudget = 1e-12;

}  // namespace

CapacityPriceLoop::CapacityPriceLoop(std::vector<double> capacity,
                                     double price_scale)
    : capacity_(std::move(capacity)),
      prices_(capacity_.size(), 0.0),
      gamma_(capacity_.size()),
      price_scale_(price_scale) {
  FAP_EXPECTS(!capacity_.empty(), "need at least one capacity budget");
  for (const double cap : capacity_) {
    FAP_EXPECTS(cap >= 0.0, "capacity budgets must be non-negative");
  }
  FAP_EXPECTS(price_scale_ > 0.0, "price scale must be positive");
}

bool CapacityPriceLoop::update(const std::vector<double>& demand) {
  FAP_EXPECTS(demand.size() == capacity_.size(),
              "demand vector must match capacity vector");
  FAP_EXPECTS(active(), "price loop already finished");

  double residual = 0.0;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    const double budget = std::max(capacity_[i], kMinBudget);
    residual = std::max(residual, (demand[i] - capacity_[i]) / budget);
  }

  const bool improved = diagnostics_.residual_history.empty() ||
                        residual < diagnostics_.residual_history.back();
  diagnostics_.residual_history.push_back(residual);

  if (residual <= kTolerance) {
    converged_ = true;
    return true;
  }

  if (!improved) {
    ++diagnostics_.oscillations;
    diagnostics_.gamma *= kGammaDecay;
  }
  for (std::size_t i = 0; i < gamma_.size(); ++i) {
    gamma_[i] = diagnostics_.gamma * price_scale_ /
                std::max(capacity_[i], kMinBudget);
  }
  econ::tatonnement_step(prices_, demand, capacity_, gamma_);
  ++diagnostics_.rounds;
  return false;
}

}  // namespace fap::catalog
