// Choosing the number of copies — the most salient open issue the paper
// lists for the multicopy model (Section 8.2): "how many copies are
// optimal for the system? i.e. what is the best value of m? ...
// Furthermore, the cost of storage and copy maintenance will affect the
// optimal number of copies."
//
// optimal_copy_count() answers it the way the paper frames it: sweep
// m = 1..n (more copies than nodes would leave integral placements
// meaningless), optimize the fragment allocation for each m with the
// Section 7.3 multicopy driver, and add a per-copy storage/maintenance
// cost. More copies reduce access cost (shorter ring walks, parallel
// service) with diminishing returns, while storage grows linearly, so the
// total is unimodal in practice and the sweep exposes the knee.
#pragma once

#include <cstddef>
#include <vector>

#include "core/multicopy_allocator.hpp"
#include "core/ring_model.hpp"

namespace fap::core {

struct CopyCountOptions {
  /// Cost per unit time of storing and maintaining one whole copy
  /// (consistency traffic, disk, etc.).
  double storage_cost_per_copy = 0.1;
  /// Inner optimizer settings per m.
  MultiCopyOptions inner;
};

struct CopyCountEntry {
  std::size_t copies = 0;
  double access_cost = 0.0;   ///< optimized RingModel cost (comm + delay)
  double storage_cost = 0.0;  ///< storage_cost_per_copy * m
  double total_cost = 0.0;
  std::vector<double> allocation;  ///< best fragment allocation found
};

struct CopyCountResult {
  std::vector<CopyCountEntry> sweep;  ///< one entry per m = 1..n
  std::size_t best_copies = 0;
  double best_total_cost = 0.0;
};

/// Sweeps the copy count for a ring system described by `base` (its
/// `copies` field is overridden per sweep entry).
CopyCountResult optimal_copy_count(const RingProblem& base,
                                   const CopyCountOptions& options);

}  // namespace fap::core
