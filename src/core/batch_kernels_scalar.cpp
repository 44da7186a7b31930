// Portable batch kernels: the BatchAllocator row loops as they existed
// before SIMD dispatch, moved here verbatim and re-pointed at BatchSoA.
// This TU is compiled -O3 -ffp-contract=off (src/CMakeLists.txt): -O3 so
// GCC's autovectorizer takes the division-heavy stride-1 row loops, and
// contraction off so no FMA can perturb a rounding — these loops are the
// reference operation sequence BOTH the serial-equivalence pin and the
// AVX2-equivalence pin are measured against.
#include <algorithm>
#include <cmath>
#include <limits>

#include "core/active_set.hpp"
#include "core/allocator.hpp"
#include "core/batch_kernels.hpp"
#include "queueing/delay.hpp"

namespace fap::core::detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void zero_du_padding(BatchSoA& soa) {
  const std::size_t s = soa.stride;
  for (std::size_t j = soa.n_min; j < soa.n_max; ++j) {
    double* dur = soa.row(soa.du, j);
    for (std::size_t k = 0; k < soa.live; ++k) {
      if (static_cast<double>(j) >= soa.lane_nd[k]) {
        dur[k] = 0.0;
      }
    }
  }
  (void)s;
}

void derivative_rows(BatchSoA& soa, bool with_second) {
  const std::size_t s = soa.stride;
  const std::size_t live = soa.live;
  // Identical per-cell expression sequence as SingleFileModel::
  // gradient_into + marginal_utilities_into's negation (the lin_*
  // helpers are bit-equal to DelayModel::sojourn et al. for
  // single-server disciplines — see queueing/delay.hpp).
  if (with_second) {
    for (std::size_t j = 0; j < soa.n_max; ++j) {
      const double* xr = soa.row(soa.x, j);
      const double* mr = soa.row(soa.mu, j);
      const double* cr = soa.row(soa.c, j);
      double* dur = soa.row(soa.du, j);
      double* d2r = soa.row(soa.d2c, j);
      for (std::size_t k = 0; k < live; ++k) {
        const double a = soa.lane_tr[k] * xr[k];
        const double m = mr[k];
        const double scv = soa.lane_scv[k];
        const double rho = soa.lane_rho[k];
        const double dT = queueing::detail::lin_d_sojourn(a, m, scv, rho);
        const double d2T = queueing::detail::lin_d2_sojourn(a, m, scv, rho);
        dur[k] = -(cr[k] + soa.lane_k[k] * marginal_delay(a, m, scv, rho));
        d2r[k] = soa.lane_tr[k] * soa.lane_k[k] * (2.0 * dT + a * d2T);
      }
    }
  } else {
    for (std::size_t j = 0; j < soa.n_max; ++j) {
      const double* xr = soa.row(soa.x, j);
      const double* mr = soa.row(soa.mu, j);
      const double* cr = soa.row(soa.c, j);
      double* dur = soa.row(soa.du, j);
      for (std::size_t k = 0; k < live; ++k) {
        const double a = soa.lane_tr[k] * xr[k];
        const double m = mr[k];
        const double scv = soa.lane_scv[k];
        const double rho = soa.lane_rho[k];
        dur[k] = -(cr[k] + soa.lane_k[k] * marginal_delay(a, m, scv, rho));
      }
    }
  }
  // Restore the du padding invariant (the dense loop computed garbage on
  // padding cells).
  zero_du_padding(soa);
  (void)s;
}

void lane_sums(BatchSoA& soa) {
  const std::size_t live = soa.live;
  // Lane sums Σ_j du (left-to-right over node rows, so bit-equal to the
  // serial mean_over sums; padding adds trailing +0.0 terms — see the
  // padding notes in batch_allocator.cpp).
  std::fill(soa.sum_full.begin(), soa.sum_full.begin() + live, 0.0);
  for (std::size_t j = 0; j < soa.n_max; ++j) {
    const double* dur = soa.row(soa.du, j);
    for (std::size_t k = 0; k < live; ++k) {
      soa.sum_full[k] += dur[k];
    }
  }
  for (std::size_t k = 0; k < live; ++k) {
    soa.avg_full[k] = soa.sum_full[k] / soa.lane_nd[k];
  }
}

void step_sizes(BatchSoA& soa) {
  const std::size_t s = soa.stride;
  // Provisional per-lane step size (the serial first-pass α: fixed, or
  // the dynamic Theorem-2 bound over the whole group).
  for (std::size_t k = 0; k < soa.live; ++k) {
    if (soa.lane_dynd[k] == 0.0) {
      soa.alpha[k] = soa.lane_alpha_opt[k];
      continue;
    }
    const auto n = static_cast<std::size_t>(soa.lane_nd[k]);
    const double avg = soa.avg_full[k];
    double numerator = 0.0;
    double denominator = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double dev = soa.du[j * s + k] - avg;
      numerator += dev * dev;
      denominator += std::fabs(soa.d2c[j * s + k]) * dev * dev;
    }
    const double bound = denominator <= 0.0 ? soa.lane_alpha_opt[k]
                                            : 2.0 * numerator / denominator;
    soa.alpha[k] = kDynamicSafety * bound;
  }
}

// The serial second-pass θ loop over a full active set (all nodes).
double scalar_theta(const BatchSoA& soa, std::size_t lane) {
  const std::size_t s = soa.stride;
  const auto n = static_cast<std::size_t>(soa.lane_nd[lane]);
  const double al = soa.alpha[lane];
  const double avg = soa.avg_full[lane];
  double theta = 1.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double d = al * (soa.du[j * s + lane] - avg);
    const double xj = soa.x[j * s + lane];
    if (d < 0.0 && xj + d < 0.0) {
      theta = std::min(theta, xj / -d);
    }
    const double cp = soa.cap[j * s + lane];
    if (d > 0.0 && xj + d > cp) {
      theta = std::min(theta, (cp - xj) / d);
    }
  }
  return std::max(theta, 0.0);
}

void census_theta(BatchSoA& soa) {
  using detail::kBoundaryTol;
  const std::size_t live = soa.live;
  // Step (i) census: per lane, how many nodes the full-group average
  // pins (active-set fast-path predicate) and how many the unscaled
  // step would push outside [0, cap] (θ != 1 predicate). Padding cells
  // satisfy neither (x = 0, d >= 0, cap = +inf).
  std::fill(soa.pinc.begin(), soa.pinc.begin() + live, 0u);
  std::fill(soa.viol.begin(), soa.viol.begin() + live, 0u);
  for (std::size_t j = 0; j < soa.n_max; ++j) {
    const double* xr = soa.row(soa.x, j);
    const double* dur = soa.row(soa.du, j);
    const double* capr = soa.row(soa.cap, j);
    for (std::size_t k = 0; k < live; ++k) {
      const double d = soa.alpha[k] * (dur[k] - soa.avg_full[k]);
      const double xj = xr[k];
      const double cp = capr[k];
      const bool pin = (xj <= kBoundaryTol && d < 0.0 && xj + d <= 0.0) ||
                       (xj >= cp - kBoundaryTol && d > 0.0 && xj + d >= cp);
      const bool vi = (d < 0.0 && xj + d < 0.0) || (d > 0.0 && xj + d > cp);
      soa.pinc[k] += pin ? 1u : 0u;
      soa.viol[k] += vi ? 1u : 0u;
    }
  }
  // θ for unpinned violating lanes (the only lanes whose θ the apply
  // pass can make observable — pinned lanes are overwritten by the
  // gathered scalar step, and θ stays exactly 1.0 everywhere else).
  for (std::size_t k = 0; k < live; ++k) {
    soa.theta[k] = 1.0;
    if (soa.pinc[k] == 0 && soa.viol[k] != 0) {
      soa.theta[k] = scalar_theta(soa, k);
    }
  }
}

void spread(BatchSoA& soa) {
  const std::size_t live = soa.live;
  constexpr double inf = kInf;
  // Marginal-utility spread per lane (over all nodes == the full active
  // set). min/max must not see padding: dense region + guarded tail.
  std::fill(soa.lo.begin(), soa.lo.begin() + live, inf);
  std::fill(soa.hi.begin(), soa.hi.begin() + live, -inf);
  for (std::size_t j = 0; j < soa.n_min; ++j) {
    const double* dur = soa.row(soa.du, j);
    for (std::size_t k = 0; k < live; ++k) {
      soa.lo[k] = std::min(soa.lo[k], dur[k]);
      soa.hi[k] = std::max(soa.hi[k], dur[k]);
    }
  }
  for (std::size_t j = soa.n_min; j < soa.n_max; ++j) {
    const double* dur = soa.row(soa.du, j);
    for (std::size_t k = 0; k < live; ++k) {
      if (static_cast<double>(j) < soa.lane_nd[k]) {
        soa.lo[k] = std::min(soa.lo[k], dur[k]);
        soa.hi[k] = std::max(soa.hi[k], dur[k]);
      }
    }
  }
}

void apply_step(BatchSoA& soa) {
  const std::size_t live = soa.live;
  // Vectorized apply: xn = clamp(x + θ·α·(du - avg)). Runs for every
  // lane — terminal lanes harvest from x so their xn garbage is dead,
  // and pinned lanes overwrite their column immediately after.
  for (std::size_t j = 0; j < soa.n_max; ++j) {
    const double* xr = soa.row(soa.x, j);
    const double* dur = soa.row(soa.du, j);
    const double* capr = soa.row(soa.cap, j);
    double* xnr = soa.row(soa.xn, j);
    for (std::size_t k = 0; k < live; ++k) {
      const double d = soa.alpha[k] * (dur[k] - soa.avg_full[k]);
      double t = xr[k] + soa.theta[k] * d;
      t = t < 0.0 ? 0.0 : t;
      const double cp = capr[k];
      t = t > cp ? cp : t;
      xnr[k] = t;
    }
  }
  // Restore the x-plane padding invariant on the soon-to-be x plane.
  for (std::size_t j = soa.n_min; j < soa.n_max; ++j) {
    double* xnr = soa.row(soa.xn, j);
    for (std::size_t k = 0; k < live; ++k) {
      if (static_cast<double>(j) >= soa.lane_nd[k]) {
        xnr[k] = 0.0;
      }
    }
  }
}

}  // namespace

const BatchKernels& scalar_batch_kernels() {
  static constexpr BatchKernels kTable = {
      "scalar",     &derivative_rows, &zero_du_padding, &lane_sums,
      &step_sizes,  &census_theta,    &spread,          &apply_step,
  };
  return kTable;
}

}  // namespace fap::core::detail
