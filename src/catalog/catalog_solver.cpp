#include "catalog/catalog_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>

#include "catalog/capacity_price_loop.hpp"
#include "runtime/sweep.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace fap::catalog {

namespace {

// Safety margin of the repair pass, relative to each node's budget:
// overloaded nodes are drained to B_i(1 - margin) so the recomputed
// compensated load cannot round back above B_i. ~1e3×eps of slack — far
// below the 1e-9 residual the result guarantees.
constexpr double kRepairMargin = 1e-12;
constexpr std::size_t kMaxRepairPasses = 8;

}  // namespace

// The batch states of one solve: each is an allocator of the full batch
// width plus the scratch its submissions are assembled in. A batch task
// takes a state and gives it back when done, so a solve holds no more
// states than batches ran at once, and later batches and rounds reuse
// their planes and queues. Reuse keeps the heap flat: planes freed after
// every batch would land between the round's live per-object results,
// where they cannot coalesce. A task that throws drops its state.
class CatalogSolver::BatchStatePool {
 public:
  struct State {
    State(std::size_t width, std::size_t n)
        : batch(width), access(n), start(n) {}
    core::BatchAllocator batch;
    std::vector<double> access;
    std::vector<double> start;
  };

  BatchStatePool(std::size_t width, std::size_t n) : width_(width), n_(n) {}

  std::unique_ptr<State> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) {
      return std::make_unique<State>(width_, n_);
    }
    std::unique_ptr<State> state = std::move(free_.back());
    free_.pop_back();
    return state;
  }

  void give_back(std::unique_ptr<State> state) {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(state));
  }

 private:
  const std::size_t width_;
  const std::size_t n_;
  std::mutex mutex_;  // guards free_
  std::vector<std::unique_ptr<State>> free_;
};

CatalogSolver::CatalogSolver(const CatalogSpec& spec, CatalogOptions options)
    : spec_(spec), options_(std::move(options)) {
  spec_.validate();
  FAP_EXPECTS(options_.batch_width >= 1, "batch width must be at least 1");

  // Cbar_i = Σ_j w_j c_ji: the shared part of every object's access-cost
  // vector. Same accumulation pattern as SingleFileModel (j outer over
  // contiguous rows); every provider returns the identical rows, so every
  // provider assembles the same bytes.
  const std::size_t n = spec_.node_count();
  base_cost_.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double weight = spec_.origin_weight[j];
    const net::CostRow row = spec_.comm->row(j);
    for (std::size_t i = 0; i < n; ++i) {
      base_cost_[i] += weight * row[i];
    }
  }

  // A price must be comparable, through v_o·p_i, to the cost spread an
  // object chooses placements by: the base access-cost spread plus the
  // no-load delay term. Normalizing by the mean volume makes the typical
  // object see ~γ × that spread per unit of relative overload.
  const auto [lo, hi] =
      std::minmax_element(base_cost_.begin(), base_cost_.end());
  const double mu_min = *std::min_element(spec_.mu.begin(), spec_.mu.end());
  const double cost_span = (*hi - *lo) + spec_.k / mu_min;
  const double mean_volume = util::stable_sum(spec_.volume) /
                             static_cast<double>(spec_.object_count());
  if (cost_span > 0.0 && mean_volume > 0.0) {
    price_scale_ = cost_span / mean_volume;
  }
}

void CatalogSolver::assemble_access(std::size_t o,
                                    const std::vector<double>& prices,
                                    double* out) const {
  const double beta = spec_.locality;
  const double base_share = 1.0 - beta;
  const double v = spec_.volume[o];
  const net::CostRow row = spec_.comm->row(spec_.home[o]);
  const std::size_t n = spec_.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (base_share * base_cost_[i] + beta * row[i]) + v * prices[i];
  }
}

std::size_t CatalogSolver::start_node(std::size_t o,
                                      const double* access) const {
  // Cheapest full concentration: argmin_i C_i^o + v_o p_i + k·T(λ_o, μ_i)
  // (the priced access vector already carries the first two terms).
  // Strict < keeps the lowest index on ties.
  const double rate = spec_.rate[o];
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < spec_.node_count(); ++i) {
    const double cost =
        access[i] + spec_.k * spec_.delay.sojourn(rate, spec_.mu[i]);
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }
  return best;
}

std::vector<double> CatalogSolver::object_access_cost(
    std::size_t o, const std::vector<double>& prices) const {
  FAP_EXPECTS(o < spec_.object_count(), "object index out of range");
  FAP_EXPECTS(prices.size() == spec_.node_count(),
              "one price per node");
  std::vector<double> access(spec_.node_count());
  assemble_access(o, prices, access.data());
  return access;
}

std::vector<double> CatalogSolver::object_start(
    std::size_t o, const std::vector<double>& prices) const {
  const std::vector<double> access = object_access_cost(o, prices);
  std::vector<double> start(spec_.node_count(), 0.0);
  start[start_node(o, access.data())] = 1.0;
  return start;
}

std::vector<CatalogSolver::ObjectAllocation> CatalogSolver::solve_round(
    const std::vector<double>& prices, BatchStatePool& states) const {
  const std::size_t n = spec_.node_count();
  runtime::SweepOptions sweep_options;
  sweep_options.jobs = options_.jobs;
  sweep_options.base_seed = options_.base_seed;
  sweep_options.metrics = options_.metrics;
  sweep_options.run_id = options_.run_id;
  // All per-object state is a pure function of (index, prices), so the
  // batch seeds are unused here — they exist so --metrics records line up
  // with the repo's other sweeps.
  return runtime::batch_sweep(
      spec_.object_count(), options_.batch_width, sweep_options,
      [this, n, &prices, &states](std::size_t first, std::size_t last) {
        std::unique_ptr<BatchStatePool::State> state = states.take();
        core::BatchAllocator& batch = state->batch;
        std::vector<double>& access = state->access;
        std::vector<double>& start = state->start;
        for (std::size_t o = first; o < last; ++o) {
          assemble_access(o, prices, access.data());
          std::fill(start.begin(), start.end(), 0.0);
          start[start_node(o, access.data())] = 1.0;
          core::BatchAllocator::RawInstance raw;
          raw.n = n;
          raw.total_rate = spec_.rate[o];
          raw.k = spec_.k;
          raw.delay = spec_.delay;
          raw.access_cost = access.data();
          raw.mu = spec_.mu.data();
          raw.start = start.data();
          batch.submit(raw, options_.inner);
        }
        std::vector<core::BatchRunResult> solved = batch.run_all();
        runtime::add_task_metric(
            "lane_steps", static_cast<double>(batch.stats().lane_steps));
        runtime::add_task_metric(
            "boundary_lane_steps",
            static_cast<double>(batch.stats().boundary_lane_steps));
        states.give_back(std::move(state));
        std::vector<ObjectAllocation> out;
        out.reserve(solved.size());
        for (const core::BatchRunResult& run : solved) {
          ObjectAllocation alloc;
          alloc.iterations = static_cast<std::uint32_t>(run.iterations);
          alloc.converged = run.converged;
          for (std::size_t i = 0; i < n; ++i) {
            if (run.x[i] != 0.0) {
              alloc.placements.push_back(
                  Placement{static_cast<std::uint32_t>(i), run.x[i]});
            }
          }
          out.push_back(std::move(alloc));
        }
        return out;
      });
}

std::vector<double> CatalogSolver::node_loads(
    const std::vector<ObjectAllocation>& allocations) const {
  // Canonical accounting: objects in index order, Neumaier-compensated
  // per node, so the loads (and every residual decision made from them)
  // are independent of how the solve was sharded and accurate to O(eps)
  // at a million addends.
  std::vector<util::NeumaierSum> acc(spec_.node_count());
  for (std::size_t o = 0; o < allocations.size(); ++o) {
    const double v = spec_.volume[o];
    for (const Placement& placement : allocations[o].placements) {
      acc[placement.node].add(v * placement.fraction);
    }
  }
  std::vector<double> loads(spec_.node_count());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    loads[i] = acc[i].value();
  }
  return loads;
}

void CatalogSolver::repair(std::vector<ObjectAllocation>& allocations,
                           std::vector<double>& loads,
                           const std::vector<double>& prices,
                           CatalogResult& result) const {
  const std::size_t n = spec_.node_count();
  std::vector<double> access(n);
  // Drain targets sit kRepairMargin below each budget so the canonical
  // recompute cannot round a drained node back over B_i.
  std::vector<double> target(n);
  for (std::size_t i = 0; i < n; ++i) {
    target[i] = spec_.node_capacity[i] * (1.0 - kRepairMargin);
  }

  for (std::size_t pass = 0; pass < kMaxRepairPasses; ++pass) {
    bool any_overloaded = false;
    for (std::size_t i = 0; i < n; ++i) {
      any_overloaded |= loads[i] > spec_.node_capacity[i];
    }
    if (!any_overloaded) {
      break;
    }

    // Holders of fragments on overloaded nodes, built in one pass over
    // the catalog (ascending object index, so back() is the coldest —
    // highest-index — object under the synthetic generator's
    // rate-descending ordering, and a deterministic choice regardless).
    std::vector<std::vector<std::uint32_t>> holders(n);
    for (std::size_t o = 0; o < allocations.size(); ++o) {
      for (const Placement& placement : allocations[o].placements) {
        if (placement.fraction > 0.0 &&
            loads[placement.node] > spec_.node_capacity[placement.node]) {
          holders[placement.node].push_back(static_cast<std::uint32_t>(o));
        }
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      while (loads[i] > target[i] && !holders[i].empty()) {
        const std::uint32_t o = holders[i].back();
        holders[i].pop_back();
        std::vector<Placement>& placements = allocations[o].placements;
        auto source = std::find_if(
            placements.begin(), placements.end(),
            [i](const Placement& p) { return p.node == i; });
        if (source == placements.end() || source->fraction <= 0.0) {
          continue;
        }
        const double v = spec_.volume[o];
        assemble_access(o, prices, access.data());

        while (loads[i] > target[i] && source->fraction > 0.0) {
          // Cheapest receiver with slack, by the same priced cost the
          // inner solves minimize.
          std::size_t best = n;
          double best_cost = std::numeric_limits<double>::infinity();
          for (std::size_t j = 0; j < n; ++j) {
            if (j == i || loads[j] >= target[j]) {
              continue;
            }
            if (access[j] < best_cost) {
              best_cost = access[j];
              best = j;
            }
          }
          if (best == n) {
            // No slack anywhere: nothing more this pass (or any later
            // one) can move. Settle the books and report what remains.
            loads = node_loads(allocations);
            return;
          }
          double move = std::min(source->fraction,
                                 (loads[i] - target[i]) / v);
          move = std::min(move, (target[best] - loads[best]) / v);
          if (move <= 0.0) {
            break;
          }
          if (move >= source->fraction) {
            move = source->fraction;
            source->fraction = 0.0;
          } else {
            source->fraction -= move;
          }
          auto sink = std::find_if(
              placements.begin(), placements.end(),
              [best](const Placement& p) { return p.node == best; });
          if (sink == placements.end()) {
            placements.push_back(
                Placement{static_cast<std::uint32_t>(best), move});
            source = std::find_if(
                placements.begin(), placements.end(),
                [i](const Placement& p) { return p.node == i; });
          } else {
            sink->fraction += move;
          }
          loads[i] -= v * move;
          loads[best] += v * move;
          ++result.repair_moves;
        }
      }
    }
    // Canonical recompute: the incremental adds above are bookkeeping;
    // decisions for the next pass use the compensated ground truth.
    loads = node_loads(allocations);
  }
}

CatalogResult CatalogSolver::solve() const {
  CapacityPriceLoop loop(spec_.node_capacity, price_scale_);

  BatchStatePool states(options_.batch_width, spec_.node_count());
  CatalogResult result;
  std::vector<ObjectAllocation> allocations;
  std::vector<double> loads;
  while (true) {
    allocations = solve_round(loop.prices(), states);
    ++result.rounds;
    loads = node_loads(allocations);
    if (loop.update(loads) || !loop.active()) {
      break;
    }
  }
  result.price_converged = loop.converged();
  result.oscillations = loop.diagnostics().oscillations;
  result.gamma = loop.diagnostics().gamma;
  result.prices = loop.prices();

  const std::size_t n = spec_.node_count();
  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    residual = std::max(residual, loads[i] - spec_.node_capacity[i]);
  }
  result.pre_repair_residual = std::max(0.0, residual);

  repair(allocations, loads, result.prices, result);

  result.node_load = loads;
  residual = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    residual = std::max(residual, loads[i] - spec_.node_capacity[i]);
  }
  result.residual = std::max(0.0, residual);

  // Final CSR + the onlineJCCP-style workload metrics.
  const std::size_t count = spec_.object_count();
  const double beta = spec_.locality;
  const double base_share = 1.0 - beta;
  result.offsets.resize(count + 1);
  util::NeumaierSum rate_total;
  util::NeumaierSum hit_traffic;
  util::NeumaierSum comm_traffic;
  std::size_t fragment_total = 0;
  std::uint64_t iteration_total = 0;
  for (std::size_t o = 0; o < count; ++o) {
    result.offsets[o] =
        static_cast<std::uint32_t>(result.placements.size());
    const ObjectAllocation& alloc = allocations[o];
    iteration_total += alloc.iterations;
    if (!alloc.converged) {
      ++result.unconverged_objects;
    }
    const double rate = spec_.rate[o];
    const std::uint32_t home = spec_.home[o];
    const net::CostRow row = spec_.comm->row(home);
    double hit = 0.0;
    double comm_cost = 0.0;
    for (const Placement& placement : alloc.placements) {
      if (placement.fraction <= 0.0) {
        continue;  // entries drained to exactly 0 by the repair pass
      }
      result.placements.push_back(placement);
      ++fragment_total;
      const double unpriced = base_share * base_cost_[placement.node] +
                              beta * row[placement.node];
      comm_cost += placement.fraction * unpriced;
      // An access is a "hit" when it is served where it originated:
      // origin node j hosts share x_j, and object o's origins are the
      // (1-β) w_j mix plus the β home-node mass.
      hit += placement.fraction *
             (base_share * spec_.origin_weight[placement.node] +
              (placement.node == home ? beta : 0.0));
    }
    rate_total.add(rate);
    hit_traffic.add(rate * hit);
    comm_traffic.add(rate * comm_cost);
  }
  result.offsets[count] =
      static_cast<std::uint32_t>(result.placements.size());
  result.inner_iterations = iteration_total;
  result.hit_rate = hit_traffic.value() / rate_total.value();
  result.external_traffic = comm_traffic.value();
  result.mean_fragments =
      static_cast<double>(fragment_total) / static_cast<double>(count);
  return result;
}

}  // namespace fap::catalog
