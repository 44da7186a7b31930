// Price-decomposed catalog allocation.
//
// CatalogSolver runs the dual decomposition end to end:
//
//   1. Post per-node capacity prices p (CapacityPriceLoop, starting at 0).
//   2. Solve K independent single-file subproblems, object o seeing the
//      priced access costs C_i^o + v_o p_i — fed in 64-lane batches
//      through core::BatchAllocator, sharded across runtime::ThreadPool
//      via runtime::batch_sweep.
//   3. Account the resulting node loads Σ_o v_o x_i^o (compensated
//      summation in canonical object order) and let the price loop step;
//      repeat from 2 until the relative overload is within tolerance or
//      the round budget is spent.
//   4. Deterministic repair: greedily move fragments off any node still
//      over budget (coldest objects first, cheapest slack receiver by
//      priced cost) until every capacity holds exactly — the returned
//      allocation is always feasible, with residual <= ~1e-9·B.
//
// Determinism contract (pinned by catalog_solver_test): the result is a
// pure function of (spec, options) — bit-identical across --jobs and
// batch-width choices. Every parallel stage flows through batch_sweep
// (results flattened in object order), inner subproblem assembly is a
// pure function of (object, prices), load accounting and price updates
// run serially in canonical order, and the repair pass is serial. With
// K = 1 and slack capacity the loop converges at round 0 with zero
// prices, so the single inner solve IS the paper's algorithm on that
// object's single-file problem — bit-identical to the serial
// ResourceDirectedAllocator by the BatchAllocator equivalence contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog_spec.hpp"
#include "core/allocator.hpp"
#include "core/batch_allocator.hpp"
#include "runtime/metrics.hpp"

namespace fap::catalog {

struct CatalogOptions {
  /// Sweep workers for the inner-solve rounds (0 = hardware); the result
  /// is bit-identical for every value.
  std::size_t jobs = 1;
  /// Base seed of the runtime::sweep seed-splitting scheme. The solver
  /// itself is deterministic given the spec; the seed is threaded through
  /// so per-task --metrics records carry the same identity as every
  /// other sweep in the repo.
  std::uint64_t base_seed = 1;
  /// Objects per BatchAllocator submission batch (one sweep task each).
  std::size_t batch_width = core::BatchAllocator::kDefaultWidth;
  /// Inner resource-directed solve controls. The defaults here override
  /// the AllocatorOptions defaults: a catalog round solves ~1e6 small
  /// problems from warm (point-mass) starts, so a moderate fixed step
  /// and a bounded iteration budget beat the single-run defaults.
  core::AllocatorOptions inner = [] {
    core::AllocatorOptions options;
    options.alpha = 0.3;
    options.epsilon = 1e-4;
    options.max_iterations = 2000;
    return options;
  }();
  /// Optional observability sink (not owned), forwarded to batch_sweep.
  runtime::MetricsSink* metrics = nullptr;
  std::string run_id;
};

/// One fragment of one object: `fraction` of the object at `node`.
struct Placement {
  std::uint32_t node = 0;
  double fraction = 0.0;
};

struct CatalogResult {
  /// CSR layout: object o's placements are
  /// placements[offsets[o] .. offsets[o + 1]). Fractions are the solved
  /// x_i^o > 0 (each object's row sums to 1).
  std::vector<std::uint32_t> offsets;
  std::vector<Placement> placements;

  std::vector<double> prices;     ///< final capacity prices p_i
  std::vector<double> node_load;  ///< Σ_o v_o x_i^o after repair
  /// Max over nodes of (load - capacity) in volume units, after repair.
  /// The acceptance contract is <= 1e-9.
  double residual = 0.0;
  double pre_repair_residual = 0.0;  ///< same, before repair
  std::size_t rounds = 0;            ///< inner-solve rounds executed
  bool price_converged = false;
  std::size_t oscillations = 0;     ///< from the price loop diagnostics
  double gamma = 0.0;               ///< final adapted speed
  std::size_t repair_moves = 0;
  /// Inner resource-directed iterations summed over the FINAL round
  /// (the work a steady-state re-solve at the posted prices costs).
  std::uint64_t inner_iterations = 0;
  std::size_t unconverged_objects = 0;  ///< final-round iteration-cap hits

  // onlineJCCP-style workload metrics of the final allocation.
  /// Fraction of total access traffic served at its origin node.
  double hit_rate = 0.0;
  /// Communication cost per unit time: Σ_o λ_o Σ_i C_i^o x_i^o.
  double external_traffic = 0.0;
  /// Mean placements per object (1 = everything point-mass).
  double mean_fragments = 0.0;
};

class CatalogSolver {
 public:
  /// Validates the spec. The spec reference must outlive the solver.
  CatalogSolver(const CatalogSpec& spec, CatalogOptions options);

  CatalogResult solve() const;

  /// Object o's priced access-cost vector C_i^o + v_o p_i — the exact
  /// values (same expressions, same order) the inner solves see.
  /// Exposed so the serial-reference bit-identity test can hand the
  /// identical vector to a SingleFileModel via access_cost_override.
  std::vector<double> object_access_cost(
      std::size_t o, const std::vector<double>& prices) const;

  /// Object o's deterministic start: a point mass on the node minimizing
  /// the full-concentration cost C_i^o + v_o p_i + k·T(λ_o, μ_i), ties
  /// to the lowest index. A pure function of (object, prices), so
  /// sharding cannot perturb it.
  std::vector<double> object_start(std::size_t o,
                                   const std::vector<double>& prices) const;

  /// Σ_j w_j c_ji — the shared O(N²) part of every object's access cost.
  const std::vector<double>& base_access_cost() const noexcept {
    return base_cost_;
  }

  const CatalogOptions& options() const noexcept { return options_; }

 private:
  struct ObjectAllocation {
    std::vector<Placement> placements;
    std::uint32_t iterations = 0;
    bool converged = false;
  };
  /// The batch states of one solve() (defined in catalog_solver.cpp).
  class BatchStatePool;

  std::vector<ObjectAllocation> solve_round(const std::vector<double>& prices,
                                            BatchStatePool& states) const;
  std::vector<double> node_loads(
      const std::vector<ObjectAllocation>& allocations) const;
  void repair(std::vector<ObjectAllocation>& allocations,
              std::vector<double>& loads, const std::vector<double>& prices,
              CatalogResult& result) const;
  void assemble_access(std::size_t o, const std::vector<double>& prices,
                       double* out) const;
  std::size_t start_node(std::size_t o, const double* access) const;

  const CatalogSpec& spec_;
  CatalogOptions options_;
  std::vector<double> base_cost_;  ///< Σ_j w_j c_ji
  /// The price loop's price units per unit of relative overload:
  /// (spread of the base access costs + k/μ_min) per mean object volume,
  /// so a full-node overload reprices a typical object by about γ × the
  /// cost spread it chooses placements by.
  double price_scale_ = 1.0;
};

}  // namespace fap::catalog
