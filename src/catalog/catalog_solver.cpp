#include "catalog/catalog_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "catalog/capacity_price_loop.hpp"
#include "core/active_set.hpp"
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

// The objects the repair pass moved onto a node they did not hold, each
// with a growable copy of its placements, keyed in object order.
using GrownPlacements = std::map<std::uint32_t, std::vector<Placement>>;

// Writes the grown copies into the CSR in place of their objects' slices,
// objects in index order, and empties `grown`.
void merge_grown(GrownPlacements& grown, std::vector<std::uint32_t>& offsets,
                 std::vector<Placement>& placements) {
  if (grown.empty()) {
    return;
  }
  std::size_t size = placements.size();
  for (const auto& [o, copy] : grown) {
    size += copy.size() - (offsets[o + 1] - offsets[o]);
  }
  std::vector<Placement> merged;
  merged.reserve(size);
  auto next = grown.begin();
  for (std::size_t o = 0; o + 1 < offsets.size(); ++o) {
    const std::uint32_t begin = offsets[o];
    const std::uint32_t end = offsets[o + 1];
    offsets[o] = static_cast<std::uint32_t>(merged.size());
    if (next != grown.end() && next->first == o) {
      merged.insert(merged.end(), next->second.begin(), next->second.end());
      ++next;
    } else {
      merged.insert(merged.end(), placements.begin() + begin,
                    placements.begin() + end);
    }
  }
  offsets.back() = static_cast<std::uint32_t>(merged.size());
  placements = std::move(merged);
  grown.clear();
}

}  // namespace

CatalogSolver::CatalogSolver(const CatalogSpec& spec, CatalogOptions options)
    : spec_(spec),
      options_(std::move(options)),
      // Checks the inner options here, so they fail even in a catalog whose
      // every start the vertex certificate answers.
      inner_(spec.delay, options_.inner) {
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

  // An empty node's delay term in ∂U is its zero-load value, the same for
  // every object. The vertex certificate covers single-server laws at a
  // fixed step (the catalog has no storage caps).
  zero_load_delay_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    zero_load_delay_[i] = inner_.marginal_delay(0.0, spec_.mu[i]);
  }
  certify_ = options_.inner.step_rule == core::StepRule::kFixed &&
             spec_.delay.discipline() != queueing::Discipline::kMMc;
}

CatalogSolver::ObjectStart CatalogSolver::price_object(
    std::size_t o, const std::vector<double>& prices, double* access,
    double* marginal_u) const {
  const double beta = spec_.locality;
  const double base_share = 1.0 - beta;
  const double v = spec_.volume[o];
  const double rate = spec_.rate[o];
  const double k = spec_.k;
  const net::CostRow row = spec_.comm->row(spec_.home[o]);
  const std::size_t n = spec_.node_count();
  // The start is the cheapest full concentration: argmin_i C_i^o + v_o p_i
  // + k·T(λ_o, μ_i). Strict < keeps the lowest index on ties. A node whose
  // μ equals its predecessor's reuses that node's delay: same operands,
  // same bits.
  ObjectStart start;
  double best_cost = std::numeric_limits<double>::infinity();
  double delay = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double c =
        (base_share * base_cost_[i] + beta * row[i]) + v * prices[i];
    access[i] = c;
    if (i == 0 || spec_.mu[i] != spec_.mu[i - 1]) {
      delay = spec_.delay.sojourn(rate, spec_.mu[i]);
    }
    const double cost = c + k * delay;
    if (cost < best_cost) {
      best_cost = cost;
      start.node = i;
    }
    if (marginal_u != nullptr) {
      // ∂U_i at e_s for every i != s, whose load λ·(+0.0) is +0.0.
      marginal_u[i] = -(c + k * zero_load_delay_[i]);
    }
  }
  if (marginal_u != nullptr) {
    // Node s carries the whole unit, so its load λ·1.0 is λ itself.
    const std::size_t s = start.node;
    marginal_u[s] = -(access[s] + k * inner_.marginal_delay(rate, spec_.mu[s]));
    start.certified =
        certify_ && core::detail::vertex_start_terminates(
                        marginal_u, n, s, options_.inner.alpha,
                        options_.inner.epsilon);
  }
  return start;
}

std::vector<double> CatalogSolver::object_access_cost(
    std::size_t o, const std::vector<double>& prices) const {
  FAP_EXPECTS(o < spec_.object_count(), "object index out of range");
  FAP_EXPECTS(prices.size() == spec_.node_count(),
              "one price per node");
  std::vector<double> access(spec_.node_count());
  price_object(o, prices, access.data(), nullptr);
  return access;
}

std::vector<double> CatalogSolver::object_start(
    std::size_t o, const std::vector<double>& prices) const {
  std::vector<double> access = object_access_cost(o, prices);
  std::vector<double> start(spec_.node_count(), 0.0);
  start[price_object(o, prices, access.data(), nullptr).node] = 1.0;
  return start;
}

CatalogSolver::RoundAllocation CatalogSolver::solve_round(
    const std::vector<double>& prices) const {
  const std::size_t n = spec_.node_count();
  runtime::SweepOptions sweep_options;
  sweep_options.jobs = options_.jobs;
  sweep_options.base_seed = options_.base_seed;
  sweep_options.metrics = options_.metrics;
  sweep_options.run_id = options_.run_id;
  // All per-object state is a pure function of (index, prices), so the
  // batch seeds are unused here — they exist so --metrics records line up
  // with the repo's other sweeps. Each batch returns its objects' slice
  // as its one result, so the slices come back in batch order.
  std::vector<RoundAllocation> slices = runtime::batch_sweep(
      spec_.object_count(), options_.batch_width, sweep_options,
      [this, n, &prices](std::size_t first, std::size_t last) {
        std::vector<double> access(n);
        std::vector<double> marginal_u(n);
        std::vector<double> x;
        core::SimplexAllocator::Workspace workspace;
        std::vector<RoundAllocation> slice(1);
        RoundAllocation& out = slice.front();
        out.offsets.reserve(last - first + 1);
        out.offsets.push_back(0);
        out.placements.reserve(last - first);
        std::size_t certified = 0;
        for (std::size_t o = first; o < last; ++o) {
          const ObjectStart start =
              price_object(o, prices, access.data(), marginal_u.data());
          if (start.certified) {
            // What the inner solve would return: e_s itself, converged
            // after 0 iterations.
            ++certified;
            out.placements.push_back(
                Placement{static_cast<std::uint32_t>(start.node), 1.0});
          } else {
            x.assign(n, 0.0);
            x[start.node] = 1.0;
            const core::SimplexAllocator::Result run = inner_.run(
                core::SimplexProblem{n, spec_.rate[o], spec_.k, access.data(),
                                     spec_.mu.data()},
                x, marginal_u, workspace);
            out.inner_iterations += run.iterations;
            out.unconverged_objects += run.converged ? 0 : 1;
            for (std::size_t i = 0; i < n; ++i) {
              if (x[i] != 0.0) {
                out.placements.push_back(
                    Placement{static_cast<std::uint32_t>(i), x[i]});
              }
            }
          }
          out.offsets.push_back(
              static_cast<std::uint32_t>(out.placements.size()));
        }
        runtime::add_task_metric("certified", static_cast<double>(certified));
        return slice;
      });

  std::size_t total = 0;
  for (const RoundAllocation& part : slices) {
    total += part.placements.size();
  }
  FAP_EXPECTS(total <= std::numeric_limits<std::uint32_t>::max(),
              "a round's placements must fit 32-bit offsets");
  RoundAllocation round;
  round.offsets.reserve(spec_.object_count() + 1);
  round.offsets.push_back(0);
  round.placements.reserve(total);
  for (const RoundAllocation& part : slices) {
    const auto base = static_cast<std::uint32_t>(round.placements.size());
    for (std::size_t o = 1; o < part.offsets.size(); ++o) {
      round.offsets.push_back(base + part.offsets[o]);
    }
    round.placements.insert(round.placements.end(), part.placements.begin(),
                            part.placements.end());
    round.inner_iterations += part.inner_iterations;
    round.unconverged_objects += part.unconverged_objects;
  }
  return round;
}

std::vector<double> CatalogSolver::node_loads(
    const RoundAllocation& round) const {
  // Canonical accounting: objects in index order, Neumaier-compensated
  // per node, so the loads (and every residual decision made from them)
  // are independent of how the solve was sharded and accurate to O(eps)
  // at a million addends.
  std::vector<util::NeumaierSum> acc(spec_.node_count());
  for (std::size_t o = 0; o < spec_.object_count(); ++o) {
    const double v = spec_.volume[o];
    for (std::uint32_t p = round.offsets[o]; p < round.offsets[o + 1]; ++p) {
      acc[round.placements[p].node].add(v * round.placements[p].fraction);
    }
  }
  std::vector<double> loads(spec_.node_count());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    loads[i] = acc[i].value();
  }
  return loads;
}

void CatalogSolver::repair(RoundAllocation& round, std::vector<double>& loads,
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
  // Moves edit fractions in the CSR in place. A move onto a node the
  // object does not hold appends to the object's grown copy, and the
  // copies go back into the CSR before every canonical recompute, so each
  // load adds an object's solved placements first, then its appended ones
  // in the order they were appended.
  GrownPlacements grown;
  const auto settle = [&] {
    merge_grown(grown, round.offsets, round.placements);
    loads = node_loads(round);
  };
  const auto on_node = [](std::size_t node) {
    return [node](const Placement& p) { return p.node == node; };
  };

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
    for (std::size_t o = 0; o < spec_.object_count(); ++o) {
      for (std::uint32_t p = round.offsets[o]; p < round.offsets[o + 1];
           ++p) {
        const Placement& placement = round.placements[p];
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
        // Object o's placements: its grown copy if it has one, else its
        // slice of the CSR.
        const auto copy = grown.find(o);
        Placement* first = copy != grown.end()
                               ? copy->second.data()
                               : round.placements.data() + round.offsets[o];
        Placement* last = copy != grown.end()
                              ? first + copy->second.size()
                              : round.placements.data() + round.offsets[o + 1];
        Placement* source = std::find_if(first, last, on_node(i));
        if (source == last || source->fraction <= 0.0) {
          continue;
        }
        const double v = spec_.volume[o];
        price_object(o, prices, access.data(), nullptr);

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
            settle();
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
          Placement* sink = std::find_if(first, last, on_node(best));
          if (sink == last) {
            std::vector<Placement>& placements =
                grown.try_emplace(o, first, last).first->second;
            placements.push_back(
                Placement{static_cast<std::uint32_t>(best), move});
            first = placements.data();
            last = first + placements.size();
            source = std::find_if(first, last, on_node(i));
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
    settle();
  }
}

CatalogResult CatalogSolver::solve() const {
  CapacityPriceLoop loop(spec_.node_capacity, price_scale_);

  CatalogResult result;
  RoundAllocation round;
  std::vector<double> loads;
  while (true) {
    round = RoundAllocation{};  // released before the next round is solved
    round = solve_round(loop.prices());
    ++result.rounds;
    loads = node_loads(round);
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

  repair(round, loads, result.prices, result);

  result.node_load = loads;
  residual = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    residual = std::max(residual, loads[i] - spec_.node_capacity[i]);
  }
  result.residual = std::max(0.0, residual);

  // Final CSR: the last round's, with the entries the repair pass drained
  // to 0 dropped in place, plus the onlineJCCP-style workload metrics.
  const std::size_t count = spec_.object_count();
  const double beta = spec_.locality;
  const double base_share = 1.0 - beta;
  result.offsets = std::move(round.offsets);
  result.placements = std::move(round.placements);
  result.inner_iterations = round.inner_iterations;
  result.unconverged_objects = round.unconverged_objects;
  util::NeumaierSum rate_total;
  util::NeumaierSum hit_traffic;
  util::NeumaierSum comm_traffic;
  std::size_t kept = 0;
  for (std::size_t o = 0; o < count; ++o) {
    const std::uint32_t begin = result.offsets[o];
    const std::uint32_t end = result.offsets[o + 1];
    result.offsets[o] = static_cast<std::uint32_t>(kept);
    const double rate = spec_.rate[o];
    const std::uint32_t home = spec_.home[o];
    const net::CostRow row = spec_.comm->row(home);
    double hit = 0.0;
    double comm_cost = 0.0;
    for (std::uint32_t p = begin; p < end; ++p) {
      const Placement placement = result.placements[p];
      if (placement.fraction <= 0.0) {
        continue;  // entries drained to exactly 0 by the repair pass
      }
      result.placements[kept++] = placement;
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
  result.offsets[count] = static_cast<std::uint32_t>(kept);
  result.placements.resize(kept);
  result.hit_rate = hit_traffic.value() / rate_total.value();
  result.external_traffic = comm_traffic.value();
  result.mean_fragments =
      static_cast<double>(kept) / static_cast<double>(count);
  return result;
}

}  // namespace fap::catalog
