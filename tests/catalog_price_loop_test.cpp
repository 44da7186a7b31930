// The capacity price loop is the dual half of the catalog decomposition:
// its projected tâtonnement step, convergence rule (check residual
// BEFORE moving prices) and γ decay decide whether a million inner
// solves settle or thrash. These tests pin the mechanism on
// hand-computable demand sequences.
#include "catalog/capacity_price_loop.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "econ/price_directed.hpp"
#include "util/contracts.hpp"

namespace {

using fap::catalog::CapacityPriceLoop;
using fap::util::PreconditionError;

constexpr double kScale = 2.0;  // price units per unit of relative overload

TEST(TatonnementStep, ProjectsOntoNonNegativePrices) {
  std::vector<double> prices = {1.0, 0.1, 0.0};
  const std::vector<double> demand = {3.0, 1.0, 2.0};
  const std::vector<double> supply = {2.0, 2.0, 2.0};
  const std::vector<double> gamma = {0.5, 0.5, 0.5};
  fap::econ::tatonnement_step(prices, demand, supply, gamma);
  EXPECT_DOUBLE_EQ(prices[0], 1.5);  // 1.0 + 0.5·(3-2)
  EXPECT_DOUBLE_EQ(prices[1], 0.0);  // 0.1 + 0.5·(1-2) projected to 0
  EXPECT_DOUBLE_EQ(prices[2], 0.0);  // 0.0 + 0.5·(2-2)
  EXPECT_THROW(fap::econ::tatonnement_step(prices, {1.0}, supply, gamma),
               PreconditionError);
}

TEST(CapacityPriceLoop, StartsAtZeroPricesAndConvergesWithoutMovingThem) {
  CapacityPriceLoop loop({2.0, 2.0}, kScale);
  EXPECT_EQ(loop.prices(), std::vector<double>({0.0, 0.0}));
  // Demand within every budget: converged on the spot, prices untouched —
  // this is what keeps the slack-capacity catalog path identical to the
  // unconstrained single-file solves.
  EXPECT_TRUE(loop.update({1.5, 1.9}));
  EXPECT_TRUE(loop.converged());
  EXPECT_EQ(loop.prices(), std::vector<double>({0.0, 0.0}));
  EXPECT_EQ(loop.diagnostics().rounds, 0u);
  EXPECT_DOUBLE_EQ(loop.residual(), 0.0);
}

TEST(CapacityPriceLoop, RaisesOnlyOverloadedNodesPrices) {
  CapacityPriceLoop loop({2.0, 4.0}, kScale);
  // Node 0 overloaded by 50%, node 1 underfull.
  EXPECT_FALSE(loop.update({3.0, 2.0}));
  // γ_i = γ·scale/B_i; Δp_0 = 0.5·2.0/2.0·(3-2) = 0.5.
  EXPECT_DOUBLE_EQ(loop.prices()[0], 0.5);
  EXPECT_DOUBLE_EQ(loop.prices()[1], 0.0);
  EXPECT_DOUBLE_EQ(loop.residual(), 0.5);
  EXPECT_EQ(loop.diagnostics().rounds, 1u);
}

TEST(CapacityPriceLoop, NormalizedSpeedIsBudgetInvariant) {
  // The same RELATIVE overload must move prices identically regardless
  // of the absolute budget scale.
  CapacityPriceLoop small({1.0}, kScale);
  CapacityPriceLoop large({1000.0}, kScale);
  small.update({1.5});
  large.update({1500.0});
  EXPECT_DOUBLE_EQ(small.prices()[0], large.prices()[0]);
}

TEST(CapacityPriceLoop, AdaptiveRuleDampsOnNonImprovingRounds) {
  CapacityPriceLoop loop({2.0}, kScale);
  loop.update({3.0});  // residual 0.5 (first round: counts as improving)
  EXPECT_DOUBLE_EQ(loop.diagnostics().gamma, 0.5);
  loop.update({3.2});  // residual 0.6 > 0.5: oscillation, γ halves
  EXPECT_DOUBLE_EQ(loop.diagnostics().gamma, 0.25);
  EXPECT_EQ(loop.diagnostics().oscillations, 1u);
  loop.update({2.5});  // improving again: γ holds
  EXPECT_DOUBLE_EQ(loop.diagnostics().gamma, 0.25);
  EXPECT_EQ(loop.diagnostics().oscillations, 1u);
  EXPECT_EQ(loop.diagnostics().residual_history.size(), 3u);
}

TEST(CapacityPriceLoop, RefusesUpdatesAfterFinishing) {
  CapacityPriceLoop loop({1.0}, kScale);
  for (std::size_t round = 1; round < CapacityPriceLoop::kMaxRounds;
       ++round) {
    EXPECT_FALSE(loop.update({2.0}));
    EXPECT_TRUE(loop.active());
  }
  EXPECT_FALSE(loop.update({2.0}));
  EXPECT_FALSE(loop.active());  // round budget spent
  EXPECT_EQ(loop.diagnostics().rounds, 16u);
  EXPECT_THROW(loop.update({2.0}), PreconditionError);

  CapacityPriceLoop converged({1.0}, kScale);
  EXPECT_TRUE(converged.update({0.5}));
  EXPECT_THROW(converged.update({0.5}), PreconditionError);
}

TEST(CapacityPriceLoop, ValidatesItsInputs) {
  EXPECT_THROW(CapacityPriceLoop({}, kScale), PreconditionError);
  EXPECT_THROW(CapacityPriceLoop({-1.0}, kScale), PreconditionError);
  EXPECT_THROW(CapacityPriceLoop({1.0}, 0.0), PreconditionError);
  CapacityPriceLoop loop({1.0, 1.0}, kScale);
  EXPECT_THROW(loop.update({1.0}), PreconditionError);  // size mismatch
}

}  // namespace
