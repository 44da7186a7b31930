// Figure 5: how the choice of α affects convergence time. Iterations to
// converge (ε = 0.001) on the paper's four-node ring as α is swept.
//
// Paper: convergence time blows up as α shrinks, while "there is a
// relatively large range of α values which result in nearly optimal
// convergence speeds".
//
// The 45 α points are independent allocator runs on the same model, so
// they go through runtime::batch_sweep + core::BatchAllocator: the whole
// sweep steps in SoA lockstep (bit-identical to the serial allocator),
// `--jobs N` distributes whole batches, and every task's model copies one
// problem built before the sweep (one APSP for the whole sweep).
#include <iostream>

#include "bench_common.hpp"
#include "core/batch_allocator.hpp"
#include "core/single_file.hpp"
#include "runtime/sweep.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  fap::bench::init(argc, argv);
  using namespace fap;
  bench::print_header("Figure 5", "iterations to converge vs alpha");

  const std::vector<double> start{0.8, 0.1, 0.1, 0.0};
  // The historical accumulation loop, kept verbatim so the α values (and
  // therefore the table) stay bit-identical to the serial versions.
  std::vector<double> alphas;
  for (double alpha = 0.02; alpha <= 0.90001; alpha += 0.02) {
    alphas.push_back(alpha);
  }

  struct Submission {
    core::SingleFileModel model;
    core::AllocatorOptions options;
  };
  const core::SingleFileProblem ring = core::make_paper_ring_problem();
  const std::vector<core::BatchRunResult> results = runtime::batch_sweep(
      alphas.size(), core::BatchAllocator::kDefaultWidth,
      bench::sweep_options("fig5_alpha_sweep"),
      [&](std::size_t i, std::uint64_t /*seed*/) {
        core::AllocatorOptions options;
        options.alpha = alphas[i];
        options.epsilon = 1e-3;
        options.max_iterations = 20000;
        return Submission{core::SingleFileModel(ring), options};
      },
      [&](std::size_t /*first*/, std::vector<Submission> items) {
        core::BatchAllocator batch;
        for (const Submission& item : items) {
          batch.submit(item.model, item.options, start);
        }
        return batch.run_all();
      });

  util::Table table({"alpha", "iterations", "converged", "final cost"}, 4);
  std::vector<double> iteration_series;
  std::size_t best_iterations = static_cast<std::size_t>(-1);
  double best_alpha = 0.0;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    const core::BatchRunResult& result = results[i];
    table.add_row({alphas[i], static_cast<long long>(result.iterations),
                   static_cast<long long>(result.converged ? 1 : 0),
                   result.cost});
    iteration_series.push_back(static_cast<double>(result.iterations));
    if (result.converged && result.iterations < best_iterations) {
      best_iterations = result.iterations;
      best_alpha = alphas[i];
    }
  }
  std::cout << bench::render(table) << '\n';
  std::cout << util::ascii_chart(iteration_series, 45, 10,
                                 "iterations (x: alpha 0.02..0.90)")
            << '\n';
  std::cout << "fastest alpha in sweep: " << best_alpha << " ("
            << best_iterations << " iterations)\n";

  // The plateau observation: count how many α values converge within 2x of
  // the best.
  std::size_t plateau = 0;
  for (const double iterations : iteration_series) {
    if (iterations <= 2.0 * static_cast<double>(best_iterations)) {
      ++plateau;
    }
  }
  std::cout << "alphas within 2x of fastest: " << plateau << " of "
            << iteration_series.size() << " (the paper's wide plateau)\n";
  return 0;
}
