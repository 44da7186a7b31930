// Tests for the generic microeconomic mechanisms of Section 2: Heal's
// resource-directed planner (the core allocator over a UtilityModel) and
// Walrasian tâtonnement, including the comparative properties the paper
// lists.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "core/allocator.hpp"
#include "econ/price_directed.hpp"
#include "econ/utility.hpp"
#include "econ/utility_model.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace {

namespace core = fap::core;
namespace econ = fap::econ;

TEST(Utilities, DerivativesMatchNumeric) {
  const std::vector<econ::ConcaveUtility> utilities{
      econ::log_utility(2.0, 0.1), econ::quadratic_utility(3.0, 1.5),
      econ::power_utility(1.0, 0.5)};
  for (const econ::ConcaveUtility& u : utilities) {
    for (const double x : {0.2, 0.7, 1.5}) {
      const auto f = [&u](const std::vector<double>& v) {
        return u.value(v[0]);
      };
      EXPECT_NEAR(u.derivative(x), fap::util::numeric_gradient(f, {x})[0],
                  1e-5);
      EXPECT_NEAR(u.second_derivative(x),
                  fap::util::numeric_second_derivative(f, {x}, 0), 1e-3);
      EXPECT_LE(u.second_derivative(x), 0.0);  // concavity
    }
  }
}

TEST(Utilities, RejectBadParameters) {
  EXPECT_THROW(econ::log_utility(0.0), fap::util::PreconditionError);
  EXPECT_THROW(econ::quadratic_utility(1.0, 0.0),
               fap::util::PreconditionError);
  EXPECT_THROW(econ::power_utility(1.0, 1.5), fap::util::PreconditionError);
}

// Weighted log utilities have the closed-form optimum x_i + s ∝ w_i.
std::vector<econ::ConcaveUtility> log_agents(const std::vector<double>& w,
                                             double shift) {
  std::vector<econ::ConcaveUtility> agents;
  for (const double weight : w) {
    agents.push_back(econ::log_utility(weight, shift));
  }
  return agents;
}

// Heal's planner: the Section 5.2 allocator on the agents' social
// utility, sharing a resource total of 1.
core::AllocationResult plan(std::vector<econ::ConcaveUtility> agents,
                            std::vector<double> start,
                            const core::AllocatorOptions& options) {
  const econ::UtilityModel model(std::move(agents), 1.0);
  return core::ResourceDirectedAllocator(model, options).run(std::move(start));
}

// The five agents of the economy example.
std::vector<econ::ConcaveUtility> economy_agents() {
  return {econ::log_utility(1.0, 0.05), econ::log_utility(3.0, 0.05),
          econ::quadratic_utility(4.0, 6.0), econ::power_utility(2.0, 0.5),
          econ::log_utility(0.5, 0.05)};
}

TEST(UtilityModel, CostIsNegatedSocialUtility) {
  const auto agents = log_agents({1.0, 2.0, 3.0}, 0.1);
  const econ::UtilityModel model(agents, 2.0);
  const std::vector<double> x{0.5, 1.0, 0.5};
  EXPECT_EQ(model.dimension(), 3u);
  const std::vector<core::ConstraintGroup> groups = model.constraint_groups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].indices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(groups[0].total, 2.0);
  EXPECT_EQ(model.cost(x), -econ::social_utility(agents, x));
  const std::vector<double> grad = model.gradient(x);
  const std::vector<double> curvature = model.second_derivative(x);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(grad[i], -agents[i].derivative(x[i]));
    EXPECT_EQ(curvature[i], -agents[i].second_derivative(x[i]));
  }
  EXPECT_THROW(econ::UtilityModel({}, 1.0), fap::util::PreconditionError);
  EXPECT_THROW(econ::UtilityModel(agents, 0.0), fap::util::PreconditionError);
  EXPECT_THROW(model.gradient({0.5, 1.5}), fap::util::PreconditionError);
}

TEST(UtilityModel, InfiniteMarginalUtilityFailsLoudly) {
  // The power agent starts at x = 0, where u'(0) = +inf: no finite
  // averaging step exists. The run must throw rather than average inf
  // against inf and drain every agent to 0.
  const econ::UtilityModel model(economy_agents(), 1.0);
  core::AllocatorOptions options;
  options.alpha = 0.01;
  const core::ResourceDirectedAllocator allocator(model, options);
  try {
    allocator.run({0.25, 0.25, 0.25, 0.0, 0.25});
    FAIL() << "expected PreconditionError";
  } catch (const fap::util::PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("marginal utility must be finite"),
              std::string::npos)
        << error.what();
  }
}

/// FNV-1a over a planner result: x by bit pattern, then the iteration
/// count and the converged flag.
std::uint64_t plan_digest(const core::AllocationResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const double xi : result.x) {
    mix(std::bit_cast<std::uint64_t>(xi));
  }
  mix(result.iterations);
  mix(result.converged ? 1u : 0u);
  return hash;
}

// Golden pins recorded from econ's former stand-alone copy of the §5.2
// loop, which the core allocator over UtilityModel replaced: the economy
// example's plan (200 iterations, agent 2 ends at 0) and the instance of
// ResourceDirected.BoundaryAgentsReceiveNothing (7 iterations).
TEST(UtilityModel, PlannerGoldenPin) {
  core::AllocatorOptions options;
  options.alpha = 0.01;
  options.epsilon = 1e-8;
  options.max_iterations = 500000;
  const core::AllocationResult economy =
      plan(economy_agents(), std::vector<double>(5, 0.2), options);
  EXPECT_TRUE(economy.converged);
  EXPECT_EQ(economy.iterations, 200u);
  EXPECT_EQ(economy.x[2], 0.0);
  EXPECT_EQ(plan_digest(economy), 0x1710b14f2d62c0c3ULL)
      << std::hex << "0x" << plan_digest(economy);

  options.max_iterations = 200000;
  const core::AllocationResult boundary =
      plan({econ::quadratic_utility(10.0, 1.0),
            econ::quadratic_utility(10.0, 1.0),
            econ::quadratic_utility(0.01, 1.0)},
           {0.3, 0.3, 0.4}, options);
  EXPECT_TRUE(boundary.converged);
  EXPECT_EQ(boundary.iterations, 7u);
  EXPECT_EQ(plan_digest(boundary), 0x52fbc27d888a6e63ULL)
      << std::hex << "0x" << plan_digest(boundary);
}

TEST(ResourceDirected, ConvergesToClosedFormLogOptimum) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  const double shift = 0.05;
  const double total = 1.0;
  const auto agents = log_agents(weights, shift);

  core::AllocatorOptions options;
  options.alpha = 0.01;
  options.epsilon = 1e-9;
  options.max_iterations = 500000;
  const core::AllocationResult result =
      plan(agents, {0.25, 0.25, 0.25, 0.25}, options);
  ASSERT_TRUE(result.converged);

  // KKT: w_i / (x_i + s) equal for all i => x_i = w_i (total + 4s)/Σw - s.
  const double wsum = 10.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double expected =
        weights[i] * (total + 4.0 * shift) / wsum - shift;
    EXPECT_NEAR(result.x[i], expected, 1e-5) << "agent " << i;
  }
}

TEST(ResourceDirected, FeasibleAndMonotoneEveryIteration) {
  const auto agents = log_agents({1.0, 5.0, 2.0}, 0.1);
  core::AllocatorOptions options;
  options.alpha = 0.02;
  options.epsilon = 1e-7;
  options.record_trace = true;
  options.max_iterations = 100000;
  const core::AllocationResult result =
      plan(agents, {0.9, 0.05, 0.05}, options);
  ASSERT_TRUE(result.converged);
  for (std::size_t t = 0; t < result.trace.size(); ++t) {
    EXPECT_NEAR(fap::util::sum(result.trace[t].x), 1.0, 1e-9);
    for (const double xi : result.trace[t].x) {
      EXPECT_GE(xi, 0.0);
    }
    if (t > 0) {
      EXPECT_LE(result.trace[t].cost, result.trace[t - 1].cost + 1e-12);
    }
  }
}

TEST(ResourceDirected, BoundaryAgentsReceiveNothing) {
  // One agent with negligible weight should end at (essentially) zero
  // under a quadratic utility with a low intercept.
  std::vector<econ::ConcaveUtility> agents{
      econ::quadratic_utility(10.0, 1.0),
      econ::quadratic_utility(10.0, 1.0),
      econ::quadratic_utility(0.01, 1.0)};  // marginal utility ~0 at x=0
  core::AllocatorOptions options;
  options.alpha = 0.01;
  options.epsilon = 1e-8;
  options.max_iterations = 200000;
  const core::AllocationResult result = plan(agents, {0.3, 0.3, 0.4}, options);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.x[2], 0.0, 1e-6);
  EXPECT_NEAR(result.x[0], 0.5, 1e-5);
}

TEST(AgentDemand, DecreasingInPriceAndClamped) {
  const econ::ConcaveUtility agent = econ::quadratic_utility(4.0, 2.0);
  // u'(x) = 4 - 2x = p  =>  x = (4 - p)/2.
  EXPECT_NEAR(econ::agent_demand(agent, 2.0, 10.0), 1.0, 1e-9);
  EXPECT_NEAR(econ::agent_demand(agent, 0.5, 10.0), 1.75, 1e-9);
  EXPECT_DOUBLE_EQ(econ::agent_demand(agent, 5.0, 10.0), 0.0);  // p > u'(0)
  EXPECT_DOUBLE_EQ(econ::agent_demand(agent, 0.5, 1.0), 1.0);   // cap binds
  double previous = 1e300;
  for (double p = 0.1; p < 4.0; p += 0.3) {
    const double demand = econ::agent_demand(agent, p, 10.0);
    EXPECT_LE(demand, previous);
    previous = demand;
  }
}

TEST(Tatonnement, ConvergesToMarketClearing) {
  const auto agents = log_agents({1.0, 2.0, 3.0}, 0.1);
  econ::TatonnementOptions options;
  options.gamma = 0.5;
  options.initial_price = 5.0;
  options.demand_cap = 1.0;
  options.tol = 1e-8;
  options.record_trace = true;
  const econ::TatonnementResult result =
      econ::tatonnement(agents, 1.0, options);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(fap::util::sum(result.x), 1.0, 1e-6);
  // Clearing price equals each active agent's marginal utility.
  for (std::size_t i = 0; i < 3; ++i) {
    if (result.x[i] > 1e-6) {
      EXPECT_NEAR(agents[i].derivative(result.x[i]), result.price, 1e-5);
    }
  }
}

TEST(Tatonnement, IntermediateDemandsAreInfeasible) {
  // The drawback the paper highlights: before convergence Σ demand ≠ total.
  const auto agents = log_agents({1.0, 2.0, 3.0}, 0.1);
  econ::TatonnementOptions options;
  options.gamma = 0.2;
  options.initial_price = 20.0;  // far from clearing
  options.record_trace = true;
  options.tol = 1e-10;
  const econ::TatonnementResult result =
      econ::tatonnement(agents, 1.0, options);
  ASSERT_GT(result.trace.size(), 2u);
  bool saw_infeasible = false;
  for (std::size_t t = 0; t + 1 < result.trace.size(); ++t) {
    if (std::fabs(result.trace[t].excess_demand) > 1e-3) {
      saw_infeasible = true;
    }
  }
  EXPECT_TRUE(saw_infeasible);
}

TEST(Tatonnement, StopsAtIterationCapWhenGammaTooLarge) {
  const auto agents = log_agents({1.0, 1.0}, 1e-3);
  econ::TatonnementOptions options;
  options.gamma = 1e6;  // violently overshooting price updates
  options.max_iterations = 50;
  const econ::TatonnementResult result =
      econ::tatonnement(agents, 1.0, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 50u);
}

TEST(WalrasianEquilibrium, MatchesResourceDirectedOptimum) {
  // For a separable concave social objective the market equilibrium and
  // the planner's optimum coincide.
  const std::vector<double> weights{1.0, 2.0, 5.0};
  const auto agents = log_agents(weights, 0.1);
  const econ::Equilibrium eq =
      econ::walrasian_equilibrium(agents, 1.0, 1.0);
  core::AllocatorOptions options;
  options.alpha = 0.01;
  options.epsilon = 1e-9;
  options.max_iterations = 500000;
  const core::AllocationResult planned =
      plan(agents, {0.34, 0.33, 0.33}, options);
  ASSERT_TRUE(planned.converged);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(eq.x[i], planned.x[i], 1e-4) << "agent " << i;
  }
  EXPECT_NEAR(fap::util::sum(eq.x), 1.0, 1e-6);
}

TEST(SocialUtility, SumsAgentValues) {
  const auto agents = log_agents({1.0, 1.0}, 1.0);
  EXPECT_NEAR(econ::social_utility(agents, {0.0, 0.0}), 0.0, 1e-12);
  EXPECT_THROW(econ::social_utility(agents, {0.0}),
               fap::util::PreconditionError);
}

}  // namespace
