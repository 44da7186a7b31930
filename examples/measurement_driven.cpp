// Closing the adaptive loop of Section 8: the operator does NOT know the
// workload or the service rates. The system runs under the current
// allocation, a monitoring log is collected, per-node λ and μ are
// estimated from the log, the decentralized algorithm optimizes on the
// *estimated* model, and the improved allocation is deployed. Repeat as
// the (hidden) workload drifts.
#include <iostream>

#include "core/allocator.hpp"
#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "sim/des.hpp"
#include "sim/estimation.hpp"
#include "util/table.hpp"

namespace {

// The hidden truth for epoch t: demand gradually migrates from node 0 to
// node 4 over the run; node 2's server degrades halfway through.
fap::core::SingleFileProblem hidden_truth(
    std::shared_ptr<const fap::net::CostProvider> comm, int epoch) {
  const double shift = static_cast<double>(epoch) / 4.0;  // 0 .. 1
  fap::core::SingleFileProblem truth{
      std::move(comm),
      {0.40 * (1.0 - shift) + 0.05, 0.10, 0.10,
       0.10, 0.40 * shift + 0.05, 0.10},
      std::vector<double>(6, 2.0),
      /*k=*/1.0,
      fap::queueing::DelayModel(),
      /*comm_weight_rates=*/{},
      /*storage_capacity=*/{},
      /*access_cost_override=*/{}};
  if (epoch >= 2) {
    truth.mu[2] = 1.2;  // degraded disk
  }
  return truth;
}

}  // namespace

int main() {
  using namespace fap;
  std::cout << "Measurement-driven adaptive allocation (Section 8 loop)\n"
            << "-------------------------------------------------------\n"
            << "Operator knowledge: the network only. Workload and server\n"
            << "speeds are estimated from access logs each epoch.\n\n";

  const net::Topology mesh = net::make_ring(6, 1.0);
  const auto comm = std::make_shared<net::DenseCostProvider>(
      std::make_shared<const net::CostMatrix>(
          net::all_pairs_shortest_paths(mesh)));

  std::vector<double> deployed(6, 1.0 / 6.0);  // day-one default

  util::Table table({"epoch", "true cost of deployed x", "oracle optimum",
                     "gap %", "est. hot node", "samples"},
                    4);
  for (int epoch = 0; epoch <= 4; ++epoch) {
    const core::SingleFileModel truth(hidden_truth(comm, epoch));

    // 1. Operate: run the real system under the deployed allocation and
    //    collect the monitoring log.
    sim::DesConfig config = sim::des_config_for(truth, deployed);
    config.record_log = true;
    config.measured_accesses = 80000;
    config.seed = 1000 + static_cast<std::uint64_t>(epoch);
    const sim::DesResult observed = sim::run_des(config);

    // 2. Estimate λ̂, μ̂ from the log; rebuild the optimization model.
    const sim::EstimatedParameters estimates =
        sim::estimate_parameters(observed.log, 6);
    const core::SingleFileModel estimated(sim::problem_from_estimates(
        estimates, comm, /*k=*/1.0, /*fallback_mu=*/2.0));

    // 3. Optimize on the estimated model, starting from the deployed
    //    allocation (feasible + monotone => always deployable).
    core::AllocatorOptions options;
    options.alpha = 0.15;
    options.epsilon = 1e-6;
    options.max_iterations = 100000;
    const core::ResourceDirectedAllocator allocator(estimated, options);
    const core::AllocationResult adapted = allocator.run(deployed);

    // 4. Score against the oracle that knows the truth.
    const core::ResourceDirectedAllocator oracle(truth, options);
    const core::AllocationResult best =
        oracle.run(core::uniform_allocation(truth));
    const double deployed_cost = truth.cost(adapted.x);

    std::size_t hot = 0;
    for (std::size_t i = 1; i < 6; ++i) {
      if (estimates.lambda[i] > estimates.lambda[hot]) {
        hot = i;
      }
    }
    table.add_row({static_cast<long long>(epoch), deployed_cost, best.cost,
                   100.0 * (deployed_cost - best.cost) / best.cost,
                   static_cast<long long>(hot),
                   static_cast<long long>(estimates.samples)});
    deployed = adapted.x;
  }
  std::cout << table.to_string() << '\n';
  std::cout
      << "Each epoch the estimated model tracks the drifting truth (hot\n"
         "node moves 0 -> 4; node 2 degrades at epoch 2) and the deployed\n"
         "allocation stays within a few percent of the clairvoyant optimum\n"
         "— the paper's adaptive vision, end to end.\n";
  return 0;
}
