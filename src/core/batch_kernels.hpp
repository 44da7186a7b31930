// Shared state and kernel table for the batched SoA allocator.
//
// BatchAllocator's run_all() loop is a fixed sequence of dense row passes
// over [node][lane] planes. Each pass is expressed here as a function
// pointer so the same driver can run either the portable scalar kernels
// (core/batch_kernels_scalar.cpp — the loops the allocator always had,
// moved verbatim) or the hand-vectorized AVX2 kernels
// (core/batch_kernels_avx2.cpp), selected at runtime by
// core/simd_dispatch. The two kernel sets are BITWISE equivalent:
//
//   * lanes are independent instances, so no kernel performs a
//     cross-lane reduction — vectorizing across the lane dimension
//     re-orders nothing within any lane;
//   * every AVX2 arithmetic instruction used (add/sub/mul/div/min/max/
//     cmp/blend/and/xor) is exactly rounded or an exact selection, and
//     both TUs are compiled with -ffp-contract=off, so no FMA fusion can
//     perturb a rounding on either side;
//   * selections mirror the scalar ternaries' tie and signed-zero
//     behavior (see queueing/delay_simd.hpp and the per-kernel notes);
//   * cached quotients (the imu plane) are computed once with the same
//     operands the scalar expression divides every iteration — division
//     is deterministic, so reuse is bitwise reevaluation.
//
// Plane geometry: row j of a plane starts at data() + j * stride. stride
// is the lane count rounded up to util::kDoublesPerCacheLine (8), and
// planes are 64-byte aligned (util::AlignedVector), so every row is
// 64-byte aligned and the AVX2 loops need no scalar remainder: they
// process ceil(live/4)*4 lanes per row with aligned 32-byte accesses.
// Columns in [live, stride) are dead — they hold benign finite values
// (initial padding or a retired lane's stale column) whose results are
// never read, and no masked lane can trap (FP exceptions are masked).
//
// Padding invariants (rows j >= lane n of a live column): x = 0, c = 0,
// mu = 1, imu = 1, cap = +inf, du = 0 at every point a dense loop reads
// them — see batch_allocator.cpp for why each is load-bearing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/aligned.hpp"

namespace fap::core::detail {

/// Lane stride granularity in doubles: one 64-byte cache line.
inline constexpr std::size_t kLaneStrideMultiple = util::kDoublesPerCacheLine;

/// Doubles per AVX2 vector; the kernels' lane-group width.
inline constexpr std::size_t kSimdLanes = 4;

inline constexpr std::size_t round_up_stride(std::size_t lanes) {
  return (lanes + kLaneStrideMultiple - 1) / kLaneStrideMultiple *
         kLaneStrideMultiple;
}

/// Lane groups a vector kernel processes to cover `live` lanes.
inline constexpr std::size_t round_up_simd(std::size_t live) {
  return (live + kSimdLanes - 1) / kSimdLanes * kSimdLanes;
}

/// The structure-of-arrays state the kernels operate on. Owned by
/// BatchAllocator; kernels see it as plain pointers + geometry.
struct BatchSoA {
  std::size_t stride = 0;    ///< row stride (lanes rounded up to 8)
  std::size_t live = 0;      ///< occupied columns (prefix)
  std::size_t node_cap = 0;  ///< plane row count
  std::size_t n_min = 0;     ///< min lane dimension among live lanes
  std::size_t n_max = 0;     ///< max lane dimension among live lanes
  bool any_dyn = false;      ///< any live lane uses the dynamic step rule

  // Planes, row-major [node][lane], rows 64-byte aligned.
  util::AlignedVector x, xn, du, d2c, c, mu, imu, cap;

  // Per-lane constants (length stride). lane_nd and lane_dynd are the
  // double-typed twins of the allocator's integer metadata so vector
  // masks can compare them without conversions (n <= 2^53 is exact).
  util::AlignedVector lane_tr, lane_k, lane_scv, lane_rho, lane_nd,
      lane_dynd, lane_alpha_opt;

  // Per-iteration outputs (length stride).
  util::AlignedVector sum_full, avg_full, alpha, lo, hi, theta;
  // Census flags: nonzero iff some node of the lane trips the pin /
  // violation predicate. (The scalar kernels store counts, the AVX2
  // kernels store 0/1 — only zero-ness is ever observed.)
  std::vector<std::uint32_t> pinc, viol;

  double* row(util::AlignedVector& plane, std::size_t j) {
    return plane.data() + j * stride;
  }
  const double* row(const util::AlignedVector& plane, std::size_t j) const {
    return plane.data() + j * stride;
  }
};

/// One entry per dense pass of the lockstep iteration, in call order.
struct BatchKernels {
  const char* name;

  /// du (and d2c when with_second) for rows [0, n_max), then the du
  /// padding invariant restored (du = 0 on rows >= lane n). Only called
  /// when every live lane has a single-server delay law; M/M/c batches
  /// take the per-lane scalar path in batch_allocator.cpp.
  void (*derivative_rows)(BatchSoA& soa, bool with_second);

  /// Restores the du padding invariant alone (the per-lane M/M/c path
  /// leaves stale values on padding rows).
  void (*zero_du_padding)(BatchSoA& soa);

  /// sum_full[k] = Σ_j du[j][k] (node rows in ascending order, exactly
  /// the serial left-to-right sum), avg_full[k] = sum_full[k] / n_k.
  void (*lane_sums)(BatchSoA& soa);

  /// alpha[k]: the lane's fixed step, or the Theorem-2 dynamic bound
  /// over the whole group (kDynamicSafety * 2Σdev² / Σ|d2c|·dev²) for
  /// dynamic lanes.
  void (*step_sizes)(BatchSoA& soa);

  /// pinc/viol census against the full-group average step, plus the θ
  /// clipping scan: theta[k] = min over violating nodes of the exact
  /// serial candidates (1.0 when nothing violates). theta is only
  /// meaningful for unpinned lanes — pinned lanes re-derive their step
  /// on the gathered scalar path.
  void (*census_theta)(BatchSoA& soa);

  /// Marginal-utility spread: lo/hi over each lane's real rows only
  /// (padding must not participate in min/max).
  void (*spread)(BatchSoA& soa);

  /// xn = clamp(x + theta * alpha * (du - avg)) over rows [0, n_max),
  /// then the xn padding invariant restored (xn = 0 on rows >= lane n).
  void (*apply_step)(BatchSoA& soa);
};

/// The portable kernels (always available; bit-identical to the serial
/// allocator by construction — they ARE the original loops).
const BatchKernels& scalar_batch_kernels();

#if defined(FAP_HAVE_AVX2_KERNELS)
/// The hand-vectorized kernels (present only when the build compiled
/// core/batch_kernels_avx2.cpp with -mavx2).
const BatchKernels& avx2_batch_kernels();
#endif

/// Dispatch: the kernel set active_simd_level() selects right now.
const BatchKernels& select_batch_kernels();

}  // namespace fap::core::detail
