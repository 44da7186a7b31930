// Live adaptation: re-optimizing the allocation while the system keeps
// serving traffic.
//
// Unlike examples/measurement_driven (epoch-based: stop, estimate,
// redeploy), this example runs ONE continuous simulation. Every
// observation window the controller estimates the workload from the
// window's access sums, runs a few iterations of the decentralized
// algorithm from the currently deployed allocation (Section 5.3:
// intermediate allocations are feasible and strictly better, so partial
// runs are always safe to deploy), and rewires the running system in
// place — no draining, no restart. Midway through, the (hidden) workload
// flips its hot spot, and the measured per-access cost visibly recovers.
#include <iostream>

#include "core/allocator.hpp"
#include "core/single_file.hpp"
#include "net/generators.hpp"
#include "sim/des.hpp"
#include "sim/des_system.hpp"
#include "sim/estimation.hpp"
#include "util/table.hpp"

int main() {
  using namespace fap;
  std::cout << "Live in-place adaptation on a running system\n"
            << "--------------------------------------------\n";

  const net::Topology ring = net::make_ring(6, 1.0);
  const auto comm = std::make_shared<net::DenseCostProvider>(
      std::make_shared<const net::CostMatrix>(
          net::all_pairs_shortest_paths(ring)));

  // Hidden truth, phase 1: node 0 is hot.
  core::SingleFileProblem phase1{comm,
                                 {0.45, 0.05, 0.05, 0.05, 0.05, 0.05},
                                 std::vector<double>(6, 1.4),
                                 /*k=*/1.0,
                                 queueing::DelayModel(),
                                 /*comm_weight_rates=*/{},
                                 /*storage_capacity=*/{},
                                 /*access_cost_override=*/{}};
  // Hidden truth, phase 2: the hot spot jumps to node 3.
  core::SingleFileProblem phase2 = phase1;
  phase2.lambda = {0.05, 0.05, 0.05, 0.45, 0.05, 0.05};

  // The system starts in phase 1 under a uniform allocation.
  std::vector<double> deployed(6, 1.0 / 6.0);
  const core::SingleFileModel phase1_model(phase1);
  sim::DesConfig config = sim::des_config_for(phase1_model, deployed);
  config.seed = 31337;
  sim::DesSystem system(config);
  system.advance_until(200.0);  // warm up

  constexpr int kWindows = 10;
  constexpr double kWindowLength = 600.0;
  util::Table table({"window", "phase", "measured cost/access",
                     "deployed max x_i", "controller iterations"},
                    4);

  for (int w = 0; w < kWindows; ++w) {
    // The workload flips at the start of window 5. A real system would
    // not announce this; here we swap the generator rates by rebuilding
    // the DES routing inputs (rates live in the hidden truth).
    const bool second_phase = w >= 5;
    if (w == 5) {
      // Rebuild the system with phase-2 rates, carrying the deployed
      // allocation over (a new DesSystem models the regime change in the
      // exogenous arrival processes).
      const core::SingleFileModel model2(phase2);
      sim::DesConfig cfg2 = sim::des_config_for(model2, deployed);
      cfg2.seed = 77777;
      system = sim::DesSystem(cfg2);
      system.advance_until(200.0);
    }

    system.reset_window();
    system.advance_until(system.now() + kWindowLength);
    const sim::WindowStats& window = system.window();
    const double measured = window.measured_cost(/*k=*/1.0);

    // Controller: estimate from the window's access sums, improve the
    // allocation with a *budgeted* run (8 iterations), deploy by rewiring
    // in place.
    std::size_t iterations_used = 0;
    if (window.completions > 0) {
      const sim::EstimatedParameters estimates =
          sim::estimate_parameters(window.sums);
      const core::SingleFileModel estimated(sim::problem_from_estimates(
          estimates, comm, /*k=*/1.0, /*fallback_mu=*/1.4));
      core::AllocatorOptions options;
      options.alpha = 0.2;
      options.epsilon = 1e-6;
      options.max_iterations = 8;  // background budget per window
      const core::ResourceDirectedAllocator allocator(estimated, options);
      const core::AllocationResult improved = allocator.run(deployed);
      iterations_used = improved.iterations;
      deployed = improved.x;
      system.set_routing(std::vector<std::vector<double>>(6, deployed));
    }

    double max_x = 0.0;
    for (const double xi : deployed) {
      max_x = std::max(max_x, xi);
    }
    table.add_row({static_cast<long long>(w),
                   std::string(second_phase ? "hot=3" : "hot=0"), measured,
                   max_x, static_cast<long long>(iterations_used)});
  }
  std::cout << table.to_string() << '\n';
  std::cout
      << "The measured cost drops over windows 0-4 as the controller\n"
         "learns phase 1, spikes when the hot spot jumps at window 5, and\n"
         "recovers as the budgeted background iterations re-fragment the\n"
         "file — all without ever taking the system offline.\n";
  return 0;
}
