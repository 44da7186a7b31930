// Ablation A2: first- vs second-derivative algorithm (Section 8.2). The
// second-derivative variant is claimed to be (a) resilient to rescaling
// the problem (link costs, service rates) and (b) tolerant to the choice
// of the step-size parameter. Both claims are measured here.
#include <iostream>

#include "bench_common.hpp"
#include "core/allocator.hpp"
#include "core/batch_allocator.hpp"
#include "core/newton_allocator.hpp"
#include "core/single_file.hpp"
#include "runtime/sweep.hpp"
#include "util/table.hpp"

namespace {

fap::core::SingleFileProblem scaled_problem(double cost_scale) {
  fap::core::SingleFileProblem problem = fap::core::make_paper_ring_problem();
  fap::net::CostMatrix comm(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      comm.set_cost(i, j, problem.comm->cost(i, j) * cost_scale);
    }
  }
  problem.comm = std::make_shared<fap::net::DenseCostProvider>(
      std::make_shared<const fap::net::CostMatrix>(std::move(comm)));
  problem.k *= cost_scale;
  return problem;
}

}  // namespace

int main(int argc, char** argv) {
  fap::bench::init(argc, argv);
  using namespace fap;
  bench::print_header("Ablation A2",
                      "first- vs second-derivative algorithm");

  const std::vector<double> start{0.8, 0.1, 0.1, 0.0};

  // (a) Scale resilience: same fixed step, problem costs scaled by
  // 0.01x .. 100x. ε scales with the problem (it is a marginal-utility
  // spread).
  std::cout << "-- scale resilience (fixed step, costs scaled) --\n";
  util::Table scale_table(
      {"cost scale", "first-order iters", "second-order iters"}, 4);
  const std::vector<double> scales{0.01, 0.1, 1.0, 10.0, 100.0};
  std::vector<core::SingleFileModel> scale_models;
  scale_models.reserve(scales.size());
  for (const double scale : scales) {
    scale_models.emplace_back(scaled_problem(scale));
  }

  // The first-order runs are independent gradient descents (one model per
  // lane — the batch kernel supports heterogeneous lanes), so they step as
  // one SoA batch, bit-identical to the serial loop they replace.
  core::BatchAllocator scale_batch;
  for (std::size_t i = 0; i < scales.size(); ++i) {
    core::AllocatorOptions first;
    first.alpha = 0.3;
    first.epsilon = 1e-3 * scales[i];
    first.max_iterations = 200000;
    scale_batch.submit(scale_models[i], first, start);
  }
  const std::vector<core::BatchRunResult> scale_first =
      scale_batch.run_all();

  // The Newton runs have no batched kernel; fan them out through the
  // runtime instead (order and output independent of --jobs).
  const std::vector<core::AllocationResult> scale_second = runtime::sweep(
      scales.size(), bench::sweep_options("ablation_newton"),
      [&](std::size_t i, std::uint64_t /*seed*/) {
        core::NewtonAllocatorOptions second;
        second.alpha = 0.5;
        second.epsilon = 1e-3 * scales[i];
        second.max_iterations = 200000;
        return core::NewtonAllocator(scale_models[i], second).run(start);
      });

  for (std::size_t i = 0; i < scales.size(); ++i) {
    scale_table.add_row(
        {scales[i],
         static_cast<long long>(scale_first[i].converged
                                    ? scale_first[i].iterations
                                    : -1),
         static_cast<long long>(scale_second[i].converged
                                    ? scale_second[i].iterations
                                    : -1)});
  }
  std::cout << bench::render(scale_table)
            << "(second-order column is flat; first-order varies by orders "
               "of magnitude)\n\n";

  // (b) Step-size tolerance on the unscaled problem.
  std::cout << "-- step-size tolerance --\n";
  util::Table alpha_table(
      {"alpha", "first-order iters", "second-order iters"}, 4);
  const core::SingleFileModel model(core::make_paper_ring_problem());
  const std::vector<double> alphas{0.05, 0.1, 0.3, 0.5, 0.8, 1.0};

  core::BatchAllocator alpha_batch;
  for (const double alpha : alphas) {
    core::AllocatorOptions first;
    first.alpha = alpha;
    first.epsilon = 1e-3;
    first.max_iterations = 50000;
    alpha_batch.submit(model, first, start);
  }
  const std::vector<core::BatchRunResult> alpha_first =
      alpha_batch.run_all();

  const std::vector<core::AllocationResult> alpha_second = runtime::sweep(
      alphas.size(), bench::sweep_options("ablation_newton"),
      [&](std::size_t i, std::uint64_t /*seed*/) {
        core::NewtonAllocatorOptions second;
        second.alpha = alphas[i];
        second.epsilon = 1e-3;
        second.max_iterations = 50000;
        return core::NewtonAllocator(model, second).run(start);
      });

  for (std::size_t i = 0; i < alphas.size(); ++i) {
    alpha_table.add_row(
        {alphas[i],
         static_cast<long long>(
             alpha_first[i].converged ? alpha_first[i].iterations : -1),
         static_cast<long long>(
             alpha_second[i].converged ? alpha_second[i].iterations : -1)});
  }
  std::cout << bench::render(alpha_table)
            << "(-1 = did not converge within the cap)\n";
  return 0;
}
