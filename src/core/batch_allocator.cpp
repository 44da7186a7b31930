// SoA lockstep driver. See batch_allocator.hpp for the contract and
// core/batch_kernels.hpp for the kernel table the dense passes dispatch
// through; the comments here focus on the padding invariants that let
// the row loops run dense (no per-element lane guards) without
// perturbing any lane's arithmetic:
//
//   rows j >= lane_n_[k] of column k hold  x = 0, mu = 1, imu = 1,
//   cap = +inf, du = 0  at every point where a dense loop reads them.
//
// Consequences, each load-bearing for bit-identity:
//   * the derivative row loop may evaluate padding cells (a = 0, mu = 1
//     is well inside every stability region — no traps, no NaNs); the
//     results are zeroed by a tail pass before anyone reads du;
//   * the lane sum Σ_j du[j][k] sees the real values first (rows are
//     ordered) and then adds +0.0 terms, which cannot change a partial
//     sum s except for s = -0.0 — and a -0.0 sum implies every du is
//     ±0.0, in which case the lane's spread is 0, it terminates without
//     stepping, and the sign never reaches an observable value;
//   * the pinned/violation row predicates are identically false on
//     padding cells (x = 0 with step d >= 0 against cap = +inf);
//   * min/max spread reductions CANNOT include padding (a 0.0 would
//     masquerade as the max of all-negative utilities), so the spread
//     kernels guard the [n_min, n_max) tail explicitly.
//
// Columns are another matter: the AVX2 kernels process whole 4-lane
// groups, so columns in [live, round_up4(live)) — initial zero-fill or a
// retired lane's stale values — are computed on but never read, and a
// backfilled lane has its whole column rewritten by load_lane before it
// goes live.

#include "core/batch_allocator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/simd_dispatch.hpp"
#include "util/contracts.hpp"

namespace fap::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

BatchAllocator::BatchAllocator(std::size_t width) : width_(width) {
  FAP_EXPECTS(width >= 1, "batch width must be at least 1");
}

std::size_t BatchAllocator::submit(const SingleFileModel& model,
                                   const AllocatorOptions& options,
                                   const std::vector<double>& start) {
  FAP_EXPECTS(options.alpha > 0.0, "step size must be positive");
  FAP_EXPECTS(options.epsilon > 0.0, "epsilon must be positive");
  FAP_EXPECTS(options.max_iterations > 0, "need at least one iteration");
  FAP_EXPECTS(!options.record_trace,
              "BatchAllocator does not record traces; use the serial "
              "ResourceDirectedAllocator for traced runs");
  const std::size_t n = model.dimension();
  FAP_EXPECTS(start.size() == n, "allocation has wrong dimension");
  const SingleFileProblem& problem = model.problem();
  const std::vector<double>& caps = problem.storage_capacity;

  // Start feasibility, mirroring CostModel::check_feasible (tol 1e-9,
  // one Σ = 1 group).
  constexpr double kTol = 1e-9;
  double start_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    FAP_EXPECTS(start[i] >= -kTol, "allocation must be non-negative");
    if (!caps.empty()) {
      FAP_EXPECTS(start[i] <= caps[i] + kTol,
                  "allocation exceeds a storage capacity");
    }
    start_sum += start[i];
  }
  FAP_EXPECTS(std::fabs(start_sum - 1.0) <= kTol,
              "allocation violates a resource-conservation constraint");

  Instance inst;
  inst.n = n;
  inst.offset = queue_start_.size();
  inst.alpha = options.alpha;
  inst.epsilon = options.epsilon;
  inst.dynamic_rule = options.step_rule == StepRule::kDynamic;
  inst.max_iterations = options.max_iterations;
  inst.total_rate = model.total_rate();
  inst.k = problem.k;
  inst.delay = problem.delay;
  const std::vector<double>& access = model.access_costs();
  queue_access_.insert(queue_access_.end(), access.begin(), access.end());
  queue_mu_.insert(queue_mu_.end(), problem.mu.begin(), problem.mu.end());
  if (!caps.empty()) {
    queue_cap_.insert(queue_cap_.end(), caps.begin(), caps.end());
  } else {
    queue_cap_.insert(queue_cap_.end(), n, kInf);
  }
  queue_start_.insert(queue_start_.end(), start.begin(), start.end());
  pending_.push_back(inst);
  return pending_.size() - 1;
}

void BatchAllocator::load_lane(std::size_t lane, std::size_t instance_id) {
  const Instance& inst = pending_[instance_id];
  const double* access = queue_access_.data() + inst.offset;
  const double* mu = queue_mu_.data() + inst.offset;
  const double* cap = queue_cap_.data() + inst.offset;
  const double* start = queue_start_.data() + inst.offset;
  const std::size_t s = soa_.stride;
  for (std::size_t j = 0; j < node_cap_; ++j) {
    const bool real = j < inst.n;
    const double m = real ? mu[j] : 1.0;
    soa_.x[j * s + lane] = real ? start[j] : 0.0;
    soa_.c[j * s + lane] = real ? access[j] : 0.0;
    soa_.mu[j * s + lane] = m;
    // Cached quotient: 1/μ divides the same operands the delay-law
    // expression would every iteration, so reusing it is bitwise
    // reevaluation (division is deterministic).
    soa_.imu[j * s + lane] = 1.0 / m;
    soa_.cap[j * s + lane] = real ? cap[j] : kInf;
  }
  lane_inst_[lane] = instance_id;
  lane_n_[lane] = inst.n;
  lane_maxit_[lane] = inst.max_iterations;
  lane_iter_[lane] = 0;
  lane_eps_[lane] = inst.epsilon;
  lane_dyn_[lane] = inst.dynamic_rule ? 1 : 0;
  lane_single_[lane] =
      inst.delay.discipline() != queueing::Discipline::kMMc ? 1 : 0;
  lane_delay_[lane] = inst.delay;
  soa_.lane_tr[lane] = inst.total_rate;
  soa_.lane_k[lane] = inst.k;
  soa_.lane_scv[lane] = inst.delay.scv();
  soa_.lane_rho[lane] = inst.delay.rho_max();
  soa_.lane_nd[lane] = static_cast<double>(inst.n);
  soa_.lane_dynd[lane] = inst.dynamic_rule ? 1.0 : 0.0;
  soa_.lane_alpha_opt[lane] = inst.alpha;
}

void BatchAllocator::refresh_lane_summary() {
  std::size_t n_min = std::numeric_limits<std::size_t>::max();
  std::size_t n_max = 0;
  all_single_ = true;
  bool any_dyn = false;
  for (std::size_t k = 0; k < live_; ++k) {
    n_min = std::min(n_min, lane_n_[k]);
    n_max = std::max(n_max, lane_n_[k]);
    all_single_ = all_single_ && lane_single_[k] != 0;
    any_dyn = any_dyn || lane_dyn_[k] != 0;
  }
  if (live_ == 0) {
    n_min = n_max = 0;
  }
  soa_.live = live_;
  soa_.n_min = n_min;
  soa_.n_max = n_max;
  soa_.any_dyn = any_dyn;
}

void BatchAllocator::compute_derivatives() {
  if (all_single_) {
    kernels_->derivative_rows(soa_, soa_.any_dyn);
    return;
  }
  // A multi-server lane is present: evaluate per lane through the exact
  // scalar DelayModel entry points (Erlang C has a data-dependent
  // series; there is nothing to vectorize across lanes).
  const std::size_t s = soa_.stride;
  for (std::size_t k = 0; k < live_; ++k) {
    const queueing::DelayModel& delay = lane_delay_[k];
    const double tr = soa_.lane_tr[k];
    const double kk = soa_.lane_k[k];
    const bool dyn = lane_dyn_[k] != 0;
    for (std::size_t j = 0; j < lane_n_[k]; ++j) {
      const double a = tr * soa_.x[j * s + k];
      const double m = soa_.mu[j * s + k];
      const double T = delay.sojourn(a, m);
      const double dT = delay.d_sojourn(a, m);
      soa_.du[j * s + k] = -(soa_.c[j * s + k] + kk * (T + a * dT));
      if (dyn) {
        const double d2T = delay.d2_sojourn(a, m);
        soa_.d2c[j * s + k] = tr * kk * (2.0 * dT + a * d2T);
      }
    }
  }
  // Restore the du padding invariant (the per-lane path left stale
  // values on padding rows).
  kernels_->zero_du_padding(soa_);
}

void BatchAllocator::scalar_lane_step(std::size_t lane) {
  // A lane with a pinned node: gather it into contiguous scratch and run
  // the serial step verbatim — the SAME shared active-set fast path the
  // serial allocator calls, then the dynamic-α refinement, spread check
  // and θ-scaled apply, writing the stepped column into xn.
  const std::size_t s = soa_.stride;
  const std::size_t n = lane_n_[lane];
  gx_.resize(n);
  gdu_.resize(n);
  gcaps_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    gx_[j] = soa_.x[j * s + lane];
    gdu_[j] = soa_.du[j * s + lane];
    gcaps_[j] = soa_.cap[j * s + lane];
  }
  ConstraintGroup& group = group_by_n_[n];
  if (group.indices.size() != n) {
    group.indices.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      group.indices[j] = j;
    }
    group.total = 1.0;
  }

  double al = soa_.alpha[lane];
  detail::active_set_fast(group, gx_, gdu_, al, gcaps_, n, aset_);
  const std::vector<std::size_t>& active = aset_.active;

  if (lane_dyn_[lane] != 0) {
    // Refine α over the active set (dynamic_alpha_bound_cached).
    double sum = 0.0;
    for (const std::size_t i : active) {
      sum += gdu_[i];
    }
    const double avg = sum / static_cast<double>(active.size());
    double numerator = 0.0;
    double denominator = 0.0;
    for (const std::size_t i : active) {
      const double dev = gdu_[i] - avg;
      numerator += dev * dev;
      denominator += std::fabs(soa_.d2c[i * s + lane]) * dev * dev;
    }
    const double bound = denominator <= 0.0
                             ? soa_.lane_alpha_opt[lane]
                             : 2.0 * numerator / denominator;
    al = kDynamicSafety * bound;
  }

  double lo = kInf;
  double hi = -kInf;
  for (const std::size_t i : active) {
    lo = std::min(lo, gdu_[i]);
    hi = std::max(hi, gdu_[i]);
  }
  if (hi - lo < lane_eps_[lane]) {
    term_[lane] = 1;
    return;
  }

  double sum = 0.0;
  for (const std::size_t i : active) {
    sum += gdu_[i];
  }
  const double avg = sum / static_cast<double>(active.size());
  deltas_.assign(active.size(), 0.0);
  double theta = 1.0;
  for (std::size_t idx = 0; idx < active.size(); ++idx) {
    const std::size_t i = active[idx];
    deltas_[idx] = al * (gdu_[i] - avg);
    if (deltas_[idx] < 0.0 && gx_[i] + deltas_[idx] < 0.0) {
      theta = std::min(theta, gx_[i] / -deltas_[idx]);
    }
    const double cp = gcaps_[i];
    if (deltas_[idx] > 0.0 && gx_[i] + deltas_[idx] > cp) {
      theta = std::min(theta, (cp - gx_[i]) / deltas_[idx]);
    }
  }
  theta = std::max(theta, 0.0);

  // x_out = x, then overwrite the active entries (serial order).
  for (std::size_t j = 0; j < n; ++j) {
    soa_.xn[j * s + lane] = gx_[j];
  }
  for (std::size_t idx = 0; idx < active.size(); ++idx) {
    const std::size_t i = active[idx];
    double t = gx_[i] + theta * deltas_[idx];
    if (t < 0.0) {
      t = 0.0;  // absorb floating-point dust
    }
    if (t > gcaps_[i]) {
      t = gcaps_[i];
    }
    soa_.xn[i * s + lane] = t;
  }
}

double BatchAllocator::column_cost(std::size_t lane,
                                   const util::AlignedVector& plane) const {
  // SingleFileModel::cost in node order over the lane's column.
  const std::size_t s = soa_.stride;
  const double tr = soa_.lane_tr[lane];
  const double kk = soa_.lane_k[lane];
  const queueing::DelayModel& delay = lane_delay_[lane];
  double total = 0.0;
  for (std::size_t j = 0; j < lane_n_[lane]; ++j) {
    const double xj = plane[j * s + lane];
    if (xj == 0.0) {
      continue;  // zero fragment contributes zero cost regardless of T_i
    }
    const double a = tr * xj;
    total += xj * (soa_.c[j * s + lane] +
                   kk * delay.sojourn(a, soa_.mu[j * s + lane]));
  }
  return total;
}

void BatchAllocator::harvest(std::size_t lane,
                             const util::AlignedVector& plane, bool converged,
                             std::vector<BatchRunResult>& results) const {
  const std::size_t s = soa_.stride;
  BatchRunResult& out = results[lane_inst_[lane]];
  out.x.resize(lane_n_[lane]);
  for (std::size_t j = 0; j < lane_n_[lane]; ++j) {
    out.x[j] = plane[j * s + lane];
  }
  out.converged = converged;
  out.iterations = lane_iter_[lane];
  out.cost = column_cost(lane, plane);
}

std::vector<BatchRunResult> BatchAllocator::run_all() {
  stats_ = Stats{};
  stats_.instances = pending_.size();
  // Dispatch is resolved once per run: override > env > CPUID (see
  // core/simd_dispatch.hpp). Every kernel set yields identical results.
  kernels_ = &detail::select_batch_kernels();
  stats_.kernels = kernels_->name;
  std::vector<BatchRunResult> results(pending_.size());
  if (pending_.empty()) {
    return results;
  }

  lanes_ = std::min(width_, pending_.size());
  node_cap_ = 0;
  for (const Instance& inst : pending_) {
    node_cap_ = std::max(node_cap_, inst.n);
  }
  const std::size_t stride = detail::round_up_stride(lanes_);
  soa_.stride = stride;
  soa_.node_cap = node_cap_;
  const std::size_t cells = node_cap_ * stride;
  soa_.x.assign(cells, 0.0);
  soa_.xn.assign(cells, 0.0);
  soa_.du.assign(cells, 0.0);
  soa_.d2c.assign(cells, 0.0);
  soa_.c.assign(cells, 0.0);
  soa_.mu.assign(cells, 1.0);
  soa_.imu.assign(cells, 1.0);
  soa_.cap.assign(cells, kInf);
  // Lane-indexed arrays are allocated at the full stride and
  // zero-initialized so the vector kernels' whole-group loads never see
  // uninitialized memory in the dead columns.
  for (util::AlignedVector* v :
       {&soa_.lane_tr, &soa_.lane_k, &soa_.lane_scv, &soa_.lane_rho,
        &soa_.lane_nd, &soa_.lane_dynd, &soa_.lane_alpha_opt,
        &soa_.sum_full, &soa_.avg_full, &soa_.alpha, &soa_.lo, &soa_.hi,
        &soa_.theta}) {
    v->assign(stride, 0.0);
  }
  soa_.pinc.assign(stride, 0u);
  soa_.viol.assign(stride, 0u);
  lane_inst_.resize(lanes_);
  lane_n_.resize(lanes_);
  lane_maxit_.resize(lanes_);
  lane_iter_.resize(lanes_);
  lane_eps_.resize(lanes_);
  lane_dyn_.resize(lanes_);
  lane_single_.resize(lanes_);
  lane_delay_.resize(lanes_);
  term_.resize(lanes_);
  scalar_lane_.resize(lanes_);

  // The aligned-row geometry the vector kernels rely on: 64-byte plane
  // bases and a stride that keeps every row on a cache line.
  assert(stride % util::kDoublesPerCacheLine == 0);
  assert(reinterpret_cast<std::uintptr_t>(soa_.x.data()) %
             util::kCacheLineBytes ==
         0);
  assert(reinterpret_cast<std::uintptr_t>(soa_.du.data()) %
             util::kCacheLineBytes ==
         0);

  std::size_t next_pending = 0;
  live_ = 0;
  while (live_ < lanes_ && next_pending < pending_.size()) {
    load_lane(live_++, next_pending++);
  }
  refresh_lane_summary();

  std::vector<unsigned char> retired(lanes_, 0);
  const std::size_t s = stride;

  while (live_ > 0) {
    ++stats_.lockstep_iterations;
    const std::size_t live = live_;
    stats_.lane_steps += live;

    compute_derivatives();

    // Dense lockstep passes through the dispatched kernel table (each
    // documented in core/batch_kernels.hpp).
    kernels_->lane_sums(soa_);
    kernels_->step_sizes(soa_);
    kernels_->census_theta(soa_);
    kernels_->spread(soa_);

    // Classify lanes: full-active lanes resolve termination here (their
    // θ came out of census_theta); lanes with a pinned node take the
    // gathered scalar path below, which re-derives everything — the θ
    // the kernels computed for them is dead.
    for (std::size_t k = 0; k < live; ++k) {
      term_[k] = 0;
      scalar_lane_[k] = 0;
      if (soa_.pinc[k] != 0) {
        scalar_lane_[k] = 1;
        ++stats_.boundary_lane_steps;
        continue;
      }
      if (soa_.hi[k] - soa_.lo[k] < lane_eps_[k]) {
        term_[k] = 1;
      }
    }

    // Vectorized apply: xn = clamp(x + θ·α·(du - avg)). Runs for every
    // lane — terminal lanes harvest from x so their xn garbage is dead,
    // and scalar lanes overwrite their column immediately after.
    kernels_->apply_step(soa_);

    for (std::size_t k = 0; k < live; ++k) {
      if (scalar_lane_[k] != 0) {
        scalar_lane_step(k);
      }
    }

    // Retire: termination fires on the PRE-step allocation (serial run()
    // breaks before the swap), the iteration cap on the post-step one
    // (serial run() exits the loop after its last swap).
    bool changed = false;
    std::fill(retired.begin(), retired.begin() + live, 0);
    for (std::size_t k = 0; k < live; ++k) {
      if (term_[k] != 0) {
        harvest(k, soa_.x, /*converged=*/true, results);
        retired[k] = 1;
        changed = true;
        continue;
      }
      ++lane_iter_[k];
      if (lane_iter_[k] >= lane_maxit_[k]) {
        harvest(k, soa_.xn, /*converged=*/false, results);
        retired[k] = 1;
        changed = true;
      }
    }

    std::swap(soa_.x, soa_.xn);

    if (changed) {
      // Compact survivors left (full-column copies preserve the padding
      // zeros), then backfill the freed lanes from the pending queue.
      std::size_t dst = 0;
      for (std::size_t src = 0; src < live; ++src) {
        if (retired[src] != 0) {
          continue;
        }
        if (dst != src) {
          for (std::size_t j = 0; j < node_cap_; ++j) {
            soa_.x[j * s + dst] = soa_.x[j * s + src];
            soa_.c[j * s + dst] = soa_.c[j * s + src];
            soa_.mu[j * s + dst] = soa_.mu[j * s + src];
            soa_.imu[j * s + dst] = soa_.imu[j * s + src];
            soa_.cap[j * s + dst] = soa_.cap[j * s + src];
          }
          lane_inst_[dst] = lane_inst_[src];
          lane_n_[dst] = lane_n_[src];
          lane_maxit_[dst] = lane_maxit_[src];
          lane_iter_[dst] = lane_iter_[src];
          lane_eps_[dst] = lane_eps_[src];
          lane_dyn_[dst] = lane_dyn_[src];
          lane_single_[dst] = lane_single_[src];
          lane_delay_[dst] = lane_delay_[src];
          soa_.lane_tr[dst] = soa_.lane_tr[src];
          soa_.lane_k[dst] = soa_.lane_k[src];
          soa_.lane_scv[dst] = soa_.lane_scv[src];
          soa_.lane_rho[dst] = soa_.lane_rho[src];
          soa_.lane_nd[dst] = soa_.lane_nd[src];
          soa_.lane_dynd[dst] = soa_.lane_dynd[src];
          soa_.lane_alpha_opt[dst] = soa_.lane_alpha_opt[src];
        }
        ++dst;
      }
      while (dst < lanes_ && next_pending < pending_.size()) {
        load_lane(dst++, next_pending++);
      }
      live_ = dst;
      refresh_lane_summary();
    }
  }

  pending_.clear();
  queue_access_.clear();
  queue_mu_.clear();
  queue_cap_.clear();
  queue_start_.clear();
  return results;
}

}  // namespace fap::core
