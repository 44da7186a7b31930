// The microeconomic machinery on its own terms (Section 2): one divisible
// resource, heterogeneous concave agents, and the two mechanism families
// side by side — Heal's resource-directed planning ("planning without
// prices") and Walrasian tâtonnement. The example shows both finding the
// same optimum while exhibiting the path properties the paper contrasts:
// the planner's path is always feasible and monotone; the market's path
// is infeasible until it clears.
#include <cmath>
#include <iostream>

#include "core/allocator.hpp"
#include "econ/price_directed.hpp"
#include "econ/utility.hpp"
#include "econ/utility_model.hpp"
#include "util/table.hpp"

int main() {
  using namespace fap;
  std::cout << "One resource, five agents, two mechanisms (Section 2)\n"
            << "-----------------------------------------------------\n";

  // Five agents with different tastes for the resource.
  std::vector<econ::ConcaveUtility> agents;
  agents.push_back(econ::log_utility(1.0, 0.05));
  agents.push_back(econ::log_utility(3.0, 0.05));
  agents.push_back(econ::quadratic_utility(4.0, 6.0));
  agents.push_back(econ::power_utility(2.0, 0.5));
  agents.push_back(econ::log_utility(0.5, 0.05));
  const double total = 1.0;

  // Resource-directed planning: the Section 5.2 allocator itself, run on
  // the agents' social utility.
  const econ::UtilityModel economy(agents, total);
  core::AllocatorOptions plan_options;
  plan_options.alpha = 0.01;
  plan_options.epsilon = 1e-8;
  plan_options.max_iterations = 500000;
  plan_options.record_trace = true;
  const core::AllocationResult plan =
      core::ResourceDirectedAllocator(economy, plan_options)
          .run(std::vector<double>(5, 0.2));

  // Price-directed tâtonnement.
  econ::TatonnementOptions market_options;
  market_options.gamma = 0.3;
  market_options.initial_price = 10.0;
  market_options.demand_cap = total;
  market_options.tol = 1e-8;
  market_options.record_trace = true;
  const econ::TatonnementResult market =
      econ::tatonnement(agents, total, market_options);
  const econ::Equilibrium equilibrium =
      econ::walrasian_equilibrium(agents, total, total);

  util::Table table({"agent", "planner x_i", "market x_i",
                     "marginal utility at optimum"},
                    4);
  for (std::size_t i = 0; i < agents.size(); ++i) {
    table.add_row({static_cast<long long>(i), plan.x[i], market.x[i],
                   agents[i].derivative(plan.x[i])});
  }
  std::cout << table.to_string() << '\n';
  std::cout << "clearing price: " << equilibrium.price
            << " (= the common marginal utility: the planner's Lagrange "
               "multiplier q)\n\n";

  // Path diagnostics.
  double max_infeasibility = 0.0;
  for (const econ::TatonnementIteration& rec : market.trace) {
    max_infeasibility =
        std::max(max_infeasibility, std::fabs(rec.excess_demand));
  }
  bool monotone = true;
  for (std::size_t t = 1; t < plan.trace.size(); ++t) {
    monotone = monotone &&
               plan.trace[t].cost <= plan.trace[t - 1].cost + 1e-12;
  }
  util::Table paths({"mechanism", "iterations", "path feasible",
                     "path monotone"},
                    0);
  paths.add_row({std::string("resource-directed (Heal)"),
                 static_cast<long long>(plan.iterations),
                 std::string("always"),
                 std::string(monotone ? "yes" : "no")});
  paths.add_row({std::string("price-directed (Walras)"),
                 static_cast<long long>(market.iterations),
                 std::string("only at the fixed point (max excess " +
                             util::format_double(max_infeasibility, 3) +
                             ")"),
                 std::string("not guaranteed")});
  std::cout << paths.to_string() << '\n';
  std::cout << "The file allocation algorithm of Section 5 is exactly the\n"
               "first row applied to U = -C of Eq. 2.\n";
  return 0;
}
