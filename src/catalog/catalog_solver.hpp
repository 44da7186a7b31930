// Price-decomposed catalog allocation.
//
// CatalogSolver runs the dual decomposition end to end:
//
//   1. Post per-node capacity prices p (CapacityPriceLoop, starting at 0).
//   2. Solve K independent single-file subproblems, object o seeing the
//      priced access costs C_i^o + v_o p_i, in 64-object sweep tasks
//      sharded across the sweep's worker threads via runtime::batch_sweep.
//      One pass over an object's nodes assembles those costs, picks its
//      point-mass start e_s, writes ∂U at e_s and decides the vertex
//      certificate (DESIGN §4g): a start it proves optimal is the
//      object's answer, and every other object runs core::SimplexAllocator
//      on its own rows from that ∂U row, its nonzero fractions appended
//      straight to the task's CSR slice.
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
// object's single-file problem. It is bit-identical to the serial
// ResourceDirectedAllocator by construction: SimplexAllocator runs the
// serial step's shared code in its order, and the certificate answers
// only starts on which that step would stop at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog_spec.hpp"
#include "core/allocator.hpp"
#include "core/simplex_allocator.hpp"
#include "runtime/metrics.hpp"

namespace fap::catalog {

struct CatalogOptions {
  /// Sweep workers for the inner-solve rounds (0 = hardware, at most
  /// runtime::kMaxJobs); the result is bit-identical for every value.
  std::size_t jobs = 1;
  /// Base seed of the runtime::sweep seed-splitting scheme. The solver
  /// itself is deterministic given the spec; the seed is threaded through
  /// so per-task --metrics records carry the same identity as every
  /// other sweep in the repo.
  std::uint64_t base_seed = 1;
  /// Objects per sweep task: the unit --jobs distributes and --metrics
  /// records. The result is bit-identical for every value.
  std::size_t batch_width = 64;
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
  /// sharding cannot perturb it. Where the vertex certificate holds, it
  /// is also the object's inner-solve result.
  std::vector<double> object_start(std::size_t o,
                                   const std::vector<double>& prices) const;

  /// Σ_j w_j c_ji — the shared O(N²) part of every object's access cost.
  const std::vector<double>& base_access_cost() const noexcept {
    return base_cost_;
  }

  const CatalogOptions& options() const noexcept { return options_; }

 private:
  /// One price round's allocation in CSR form: object o's placements are
  /// placements[offsets[o] .. offsets[o + 1]), in ascending node order as
  /// solved, followed by any the repair pass appended. A batch returns
  /// its objects' slice in the same form, with offsets from 0.
  struct RoundAllocation {
    std::vector<std::uint32_t> offsets;
    std::vector<Placement> placements;
    std::uint64_t inner_iterations = 0;   ///< summed over the objects
    std::size_t unconverged_objects = 0;  ///< iteration-cap hits
  };
  /// Object o's start as its pass over the nodes chose it: the point mass
  /// e_node, and whether the vertex certificate proved it optimal.
  struct ObjectStart {
    std::size_t node = 0;
    bool certified = false;
  };

  RoundAllocation solve_round(const std::vector<double>& prices) const;
  std::vector<double> node_loads(const RoundAllocation& round) const;
  void repair(RoundAllocation& round, std::vector<double>& loads,
              const std::vector<double>& prices,
              CatalogResult& result) const;
  /// Object o's one pass over its n nodes at `prices`: writes its priced
  /// access costs C_i^o + v_o p_i to `access` and picks its start node
  /// (object_start()). Given `marginal_u` (n doubles of scratch), it also
  /// writes ∂U at the start there, the bits the inner solve would
  /// evaluate, and decides the vertex certificate (DESIGN §4g).
  ObjectStart price_object(std::size_t o, const std::vector<double>& prices,
                           double* access, double* marginal_u) const;

  const CatalogSpec& spec_;
  CatalogOptions options_;
  std::vector<double> base_cost_;  ///< Σ_j w_j c_ji
  /// The price loop's price units per unit of relative overload:
  /// (spread of the base access costs + k/μ_min) per mean object volume,
  /// so a full-node overload reprices a typical object by about γ × the
  /// cost spread it chooses placements by.
  double price_scale_ = 1.0;
  /// The inner solve: options.inner under the spec's delay law.
  core::SimplexAllocator inner_;
  /// Whether the inner solves can be certified: a fixed step and a
  /// single-server delay law.
  bool certify_ = false;
  /// T + a·T' at zero load per node: an empty node's delay part of ∂U.
  std::vector<double> zero_load_delay_;
};

}  // namespace fap::catalog
