#include "core/copy_count.hpp"

#include <limits>

#include "core/cost_model.hpp"
#include "util/contracts.hpp"

namespace fap::core {

CopyCountResult optimal_copy_count(const RingProblem& base,
                                   const CopyCountOptions& options) {
  FAP_EXPECTS(options.storage_cost_per_copy >= 0.0,
              "storage cost must be non-negative");
  const std::size_t n = base.ring.size();

  CopyCountResult result;
  result.best_total_cost = std::numeric_limits<double>::infinity();
  for (std::size_t m = 1; m <= n; ++m) {
    RingProblem problem = base;
    problem.copies = static_cast<double>(m);
    const RingModel model(problem);
    const MultiCopyAllocator allocator(model, options.inner);
    const MultiCopyResult run = allocator.run(uniform_allocation(model));

    CopyCountEntry entry;
    entry.copies = m;
    entry.access_cost = run.best_cost;
    entry.storage_cost =
        options.storage_cost_per_copy * static_cast<double>(m);
    entry.total_cost = entry.access_cost + entry.storage_cost;
    entry.allocation = run.best_x;
    if (entry.total_cost < result.best_total_cost) {
      result.best_total_cost = entry.total_cost;
      result.best_copies = m;
    }
    result.sweep.push_back(std::move(entry));
  }
  return result;
}

}  // namespace fap::core
