// Hand-vectorized AVX2 batch kernels: 4 lanes per 32-byte vector, walked
// k-outer / j-inner so lane constants stay in registers while a lane
// group streams down its plane columns.
//
// Bit-identity with core/batch_kernels_scalar.cpp rests on the rules in
// core/batch_kernels.hpp. The per-kernel notes below call out every
// place vector semantics could diverge from the scalar ternaries and how
// each is handled:
//
//   * std::min(acc, v)  ==  _mm256_min_pd(v, acc)   (src2 wins ties)
//     std::max(acc, v)  ==  _mm256_max_pd(v, acc)
//   * `t < 0.0 ? 0.0 : t` must be cmp+blend, NOT max_pd: max_pd(-0,+0)
//     returns +0 where the scalar ternary keeps -0.0. Same for the cap
//     clamp and for std::max(theta, 0.0).
//   * unary negation is an exact sign-bit XOR; fabs an exact AND.
//   * masked accumulations AND the addend to +0.0; every sum they feed
//     is provably never -0.0, so adding +0.0 is the identity bitwise.
//   * lane groups cover ceil(live/4)*4 columns. Columns beyond `live`
//     compute garbage that is never read and cannot trap (FP exceptions
//     are masked); metadata for them is zero-initialized by the
//     allocator, so no comparison sees uninitialized memory.
//
// This TU is compiled -O3 -mavx2 -ffp-contract=off (src/CMakeLists.txt)
// and its body is guarded so builds without AVX2 support compile it
// empty. NO FMA intrinsics anywhere — fused rounding would break the
// equivalence pin.
#include "core/batch_kernels.hpp"

#if defined(FAP_HAVE_AVX2_KERNELS) && defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>
#include <limits>

#include "core/active_set.hpp"
#include "core/allocator.hpp"
#include "queueing/delay_simd.hpp"

namespace fap::core::detail {

namespace {

namespace qx = fap::queueing::detail::avx2;

constexpr double kInf = std::numeric_limits<double>::infinity();

inline __m256d negate_pd(__m256d v) {
  return _mm256_xor_pd(v, _mm256_set1_pd(-0.0));
}

inline __m256d fabs_pd(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

void zero_du_padding(BatchSoA& soa) {
  const std::size_t s = soa.stride;
  const std::size_t kend = round_up_simd(soa.live);
  for (std::size_t k = 0; k < kend; k += kSimdLanes) {
    const __m256d nd = _mm256_load_pd(soa.lane_nd.data() + k);
    for (std::size_t j = soa.n_min; j < soa.n_max; ++j) {
      const __m256d keep =
          _mm256_cmp_pd(_mm256_set1_pd(static_cast<double>(j)), nd,
                        _CMP_LT_OQ);
      double* p = soa.du.data() + j * s + k;
      // Masked-off cells become +0.0 — the exact literal the scalar
      // kernel stores.
      _mm256_store_pd(p, _mm256_and_pd(_mm256_load_pd(p), keep));
    }
  }
}

void derivative_rows(BatchSoA& soa, bool with_second) {
  const std::size_t s = soa.stride;
  const std::size_t kend = round_up_simd(soa.live);
  const __m256d two = _mm256_set1_pd(2.0);
  for (std::size_t k = 0; k < kend; k += kSimdLanes) {
    const __m256d tr = _mm256_load_pd(soa.lane_tr.data() + k);
    const __m256d kk = _mm256_load_pd(soa.lane_k.data() + k);
    const __m256d scv = _mm256_load_pd(soa.lane_scv.data() + k);
    const __m256d rho = _mm256_load_pd(soa.lane_rho.data() + k);
    // tr*kk rounds the same way every cell; hoisting it is bitwise the
    // scalar per-cell `lane_tr * lane_k * (...)` left fold.
    const __m256d trkk = _mm256_mul_pd(tr, kk);
    if (with_second) {
      for (std::size_t j = 0; j < soa.n_max; ++j) {
        const std::size_t off = j * s + k;
        const __m256d x = _mm256_load_pd(soa.x.data() + off);
        const __m256d m = _mm256_load_pd(soa.mu.data() + off);
        const __m256d im = _mm256_load_pd(soa.imu.data() + off);
        const __m256d c = _mm256_load_pd(soa.c.data() + off);
        const __m256d a = _mm256_mul_pd(tr, x);
        const __m256d knee = _mm256_mul_pd(rho, m);
        const __m256d ae = qx::knee_clamp(a, knee);
        const __m256d pkT = qx::pk_sojourn_cached_imu(ae, m, im, scv);
        const __m256d pkd = qx::pk_d_sojourn(ae, m, scv);
        // lin_sojourn: T = pk_sojourn(ae) + pk_d_sojourn(ae) * (a - ae);
        // lin_d_sojourn re-derives the same ae, so dT is exactly pkd.
        const __m256d T =
            _mm256_add_pd(pkT, _mm256_mul_pd(pkd, _mm256_sub_pd(a, ae)));
        const __m256d inner = _mm256_add_pd(T, _mm256_mul_pd(a, pkd));
        const __m256d du =
            negate_pd(_mm256_add_pd(c, _mm256_mul_pd(kk, inner)));
        _mm256_store_pd(soa.du.data() + off, du);
        const __m256d d2T =
            qx::lin_d2_select(a, knee, qx::pk_d2_sojourn(a, m, scv));
        const __m256d d2 = _mm256_mul_pd(
            trkk, _mm256_add_pd(_mm256_mul_pd(two, pkd),
                                _mm256_mul_pd(a, d2T)));
        _mm256_store_pd(soa.d2c.data() + off, d2);
      }
    } else {
      for (std::size_t j = 0; j < soa.n_max; ++j) {
        const std::size_t off = j * s + k;
        const __m256d x = _mm256_load_pd(soa.x.data() + off);
        const __m256d m = _mm256_load_pd(soa.mu.data() + off);
        const __m256d im = _mm256_load_pd(soa.imu.data() + off);
        const __m256d c = _mm256_load_pd(soa.c.data() + off);
        const __m256d a = _mm256_mul_pd(tr, x);
        const __m256d knee = _mm256_mul_pd(rho, m);
        const __m256d ae = qx::knee_clamp(a, knee);
        const __m256d pkT = qx::pk_sojourn_cached_imu(ae, m, im, scv);
        const __m256d pkd = qx::pk_d_sojourn(ae, m, scv);
        const __m256d T =
            _mm256_add_pd(pkT, _mm256_mul_pd(pkd, _mm256_sub_pd(a, ae)));
        const __m256d inner = _mm256_add_pd(T, _mm256_mul_pd(a, pkd));
        const __m256d du =
            negate_pd(_mm256_add_pd(c, _mm256_mul_pd(kk, inner)));
        _mm256_store_pd(soa.du.data() + off, du);
      }
    }
  }
  zero_du_padding(soa);
}

void lane_sums(BatchSoA& soa) {
  const std::size_t s = soa.stride;
  const std::size_t kend = round_up_simd(soa.live);
  for (std::size_t k = 0; k < kend; k += kSimdLanes) {
    // Node rows in ascending order: the serial left-to-right sum, with
    // trailing +0.0 padding terms (see the padding notes).
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < soa.n_max; ++j) {
      acc = _mm256_add_pd(acc, _mm256_load_pd(soa.du.data() + j * s + k));
    }
    _mm256_store_pd(soa.sum_full.data() + k, acc);
    const __m256d nd = _mm256_load_pd(soa.lane_nd.data() + k);
    _mm256_store_pd(soa.avg_full.data() + k, _mm256_div_pd(acc, nd));
  }
}

void step_sizes(BatchSoA& soa) {
  const std::size_t s = soa.stride;
  const std::size_t kend = round_up_simd(soa.live);
  if (!soa.any_dyn) {
    for (std::size_t k = 0; k < kend; k += kSimdLanes) {
      _mm256_store_pd(soa.alpha.data() + k,
                      _mm256_load_pd(soa.lane_alpha_opt.data() + k));
    }
    return;
  }
  const __m256d zero = _mm256_setzero_pd();
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d safety = _mm256_set1_pd(kDynamicSafety);
  for (std::size_t k = 0; k < kend; k += kSimdLanes) {
    const __m256d nd = _mm256_load_pd(soa.lane_nd.data() + k);
    const __m256d avg = _mm256_load_pd(soa.avg_full.data() + k);
    const __m256d alpha_opt = _mm256_load_pd(soa.lane_alpha_opt.data() + k);
    __m256d num = zero;
    __m256d den = zero;
    for (std::size_t j = 0; j < soa.n_max; ++j) {
      const std::size_t off = j * s + k;
      const __m256d real =
          _mm256_cmp_pd(_mm256_set1_pd(static_cast<double>(j)), nd,
                        _CMP_LT_OQ);
      const __m256d dev =
          _mm256_sub_pd(_mm256_load_pd(soa.du.data() + off), avg);
      // Masked rows add +0.0 to partials that are never -0.0 (each
      // addend is dev² >= +0 resp. |d2c|·dev² >= +0), so the masked
      // fold is bitwise the scalar j < n loop.
      num = _mm256_add_pd(num,
                          _mm256_and_pd(_mm256_mul_pd(dev, dev), real));
      const __m256d d2 = fabs_pd(_mm256_load_pd(soa.d2c.data() + off));
      den = _mm256_add_pd(
          den,
          _mm256_and_pd(_mm256_mul_pd(_mm256_mul_pd(d2, dev), dev), real));
    }
    // bound = den <= 0 ? alpha_opt : 2*num/den  (the masked-off quotient
    // may be inf/NaN; it is blended away and cannot trap).
    const __m256d quot = _mm256_div_pd(_mm256_mul_pd(two, num), den);
    const __m256d bound = _mm256_blendv_pd(
        quot, alpha_opt, _mm256_cmp_pd(den, zero, _CMP_LE_OQ));
    const __m256d dyn_alpha = _mm256_mul_pd(safety, bound);
    const __m256d dynd = _mm256_load_pd(soa.lane_dynd.data() + k);
    const __m256d is_dyn = _mm256_cmp_pd(dynd, zero, _CMP_NEQ_OQ);
    _mm256_store_pd(soa.alpha.data() + k,
                    _mm256_blendv_pd(alpha_opt, dyn_alpha, is_dyn));
  }
}

void census_theta(BatchSoA& soa) {
  const std::size_t s = soa.stride;
  const std::size_t kend = round_up_simd(soa.live);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d tol = _mm256_set1_pd(kBoundaryTol);
  const __m256d inf = _mm256_set1_pd(kInf);
  for (std::size_t k = 0; k < kend; k += kSimdLanes) {
    const __m256d alpha = _mm256_load_pd(soa.alpha.data() + k);
    const __m256d avg = _mm256_load_pd(soa.avg_full.data() + k);
    // Pass 1 — census only (no divisions).
    __m256d pin_acc = zero;
    __m256d vi_acc = zero;
    for (std::size_t j = 0; j < soa.n_max; ++j) {
      const std::size_t off = j * s + k;
      const __m256d x = _mm256_load_pd(soa.x.data() + off);
      const __m256d du = _mm256_load_pd(soa.du.data() + off);
      const __m256d cap = _mm256_load_pd(soa.cap.data() + off);
      const __m256d d = _mm256_mul_pd(alpha, _mm256_sub_pd(du, avg));
      const __m256d xpd = _mm256_add_pd(x, d);
      const __m256d dneg = _mm256_cmp_pd(d, zero, _CMP_LT_OQ);
      const __m256d dpos = _mm256_cmp_pd(d, zero, _CMP_GT_OQ);
      // pin = (x <= tol && d < 0 && x+d <= 0) ||
      //       (x >= cap - tol && d > 0 && x+d >= cap)
      const __m256d pin_lo = _mm256_and_pd(
          _mm256_and_pd(_mm256_cmp_pd(x, tol, _CMP_LE_OQ), dneg),
          _mm256_cmp_pd(xpd, zero, _CMP_LE_OQ));
      const __m256d pin_hi = _mm256_and_pd(
          _mm256_and_pd(
              _mm256_cmp_pd(x, _mm256_sub_pd(cap, tol), _CMP_GE_OQ), dpos),
          _mm256_cmp_pd(xpd, cap, _CMP_GE_OQ));
      pin_acc = _mm256_or_pd(pin_acc, _mm256_or_pd(pin_lo, pin_hi));
      // vi = (d < 0 && x+d < 0) || (d > 0 && x+d > cap).
      const __m256d vi_lo =
          _mm256_and_pd(dneg, _mm256_cmp_pd(xpd, zero, _CMP_LT_OQ));
      const __m256d vi_hi =
          _mm256_and_pd(dpos, _mm256_cmp_pd(xpd, cap, _CMP_GT_OQ));
      vi_acc = _mm256_or_pd(vi_acc, _mm256_or_pd(vi_lo, vi_hi));
    }
    // Census flags: only zero-ness is observed, so 0/1 per lane is
    // equivalent to the scalar counts.
    const int pin_bits = _mm256_movemask_pd(pin_acc);
    const int vi_bits = _mm256_movemask_pd(vi_acc);
    for (std::size_t lane = 0; lane < kSimdLanes; ++lane) {
      soa.pinc[k + lane] =
          static_cast<std::uint32_t>((pin_bits >> lane) & 1);
      soa.viol[k + lane] =
          static_cast<std::uint32_t>((vi_bits >> lane) & 1);
    }
    // Pass 2 — the θ clipping scan, with its two divisions per cell,
    // runs only when some unpinned lane of the group violates. θ is
    // observable only for such lanes (the scalar kernel computes it
    // exactly for them and leaves 1.0 elsewhere); pinned lanes re-derive
    // their step on the gathered scalar path, so any value here is dead.
    __m256d theta = _mm256_set1_pd(1.0);
    if ((vi_bits & ~pin_bits & 0xF) != 0) {
      for (std::size_t j = 0; j < soa.n_max; ++j) {
        const std::size_t off = j * s + k;
        const __m256d x = _mm256_load_pd(soa.x.data() + off);
        const __m256d du = _mm256_load_pd(soa.du.data() + off);
        const __m256d cap = _mm256_load_pd(soa.cap.data() + off);
        const __m256d d = _mm256_mul_pd(alpha, _mm256_sub_pd(du, avg));
        const __m256d xpd = _mm256_add_pd(x, d);
        const __m256d vi_lo =
            _mm256_and_pd(_mm256_cmp_pd(d, zero, _CMP_LT_OQ),
                          _mm256_cmp_pd(xpd, zero, _CMP_LT_OQ));
        const __m256d vi_hi =
            _mm256_and_pd(_mm256_cmp_pd(d, zero, _CMP_GT_OQ),
                          _mm256_cmp_pd(xpd, cap, _CMP_GT_OQ));
        // θ candidates in the scalar order (cand1 then cand2 per node,
        // nodes ascending). std::min(theta, cand) == min_pd(cand, theta).
        // Non-candidates blend to +inf, which min_pd discards
        // (theta <= 1); the raw quotients may be inf/NaN but cannot trap.
        const __m256d cand1 = _mm256_blendv_pd(
            inf, _mm256_div_pd(x, negate_pd(d)), vi_lo);
        theta = _mm256_min_pd(cand1, theta);
        const __m256d cand2 = _mm256_blendv_pd(
            inf, _mm256_div_pd(_mm256_sub_pd(cap, x), d), vi_hi);
        theta = _mm256_min_pd(cand2, theta);
      }
      // std::max(theta, 0.0) keeps -0.0 (no max_pd — it would flip it).
      theta = _mm256_blendv_pd(theta, zero,
                               _mm256_cmp_pd(theta, zero, _CMP_LT_OQ));
    }
    _mm256_store_pd(soa.theta.data() + k, theta);
  }
}

void spread(BatchSoA& soa) {
  const std::size_t s = soa.stride;
  const std::size_t kend = round_up_simd(soa.live);
  const __m256d pinf = _mm256_set1_pd(kInf);
  const __m256d ninf = _mm256_set1_pd(-kInf);
  for (std::size_t k = 0; k < kend; k += kSimdLanes) {
    __m256d lo = pinf;
    __m256d hi = ninf;
    // Dense region: every live lane has a real row here.
    for (std::size_t j = 0; j < soa.n_min; ++j) {
      const __m256d du = _mm256_load_pd(soa.du.data() + j * s + k);
      // std::min(lo, du) == min_pd(du, lo); std::max(hi, du) ==
      // max_pd(du, hi) — ties and signed zeros resolve to src2 = acc,
      // exactly the scalar ternary.
      lo = _mm256_min_pd(du, lo);
      hi = _mm256_max_pd(du, hi);
    }
    // Guarded tail: padding must not enter min/max — blend it to the
    // reduction's identity element instead.
    const __m256d nd = _mm256_load_pd(soa.lane_nd.data() + k);
    for (std::size_t j = soa.n_min; j < soa.n_max; ++j) {
      const __m256d real =
          _mm256_cmp_pd(_mm256_set1_pd(static_cast<double>(j)), nd,
                        _CMP_LT_OQ);
      const __m256d du = _mm256_load_pd(soa.du.data() + j * s + k);
      lo = _mm256_min_pd(_mm256_blendv_pd(pinf, du, real), lo);
      hi = _mm256_max_pd(_mm256_blendv_pd(ninf, du, real), hi);
    }
    _mm256_store_pd(soa.lo.data() + k, lo);
    _mm256_store_pd(soa.hi.data() + k, hi);
  }
}

void apply_step(BatchSoA& soa) {
  const std::size_t s = soa.stride;
  const std::size_t kend = round_up_simd(soa.live);
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kend; k += kSimdLanes) {
    const __m256d alpha = _mm256_load_pd(soa.alpha.data() + k);
    const __m256d avg = _mm256_load_pd(soa.avg_full.data() + k);
    const __m256d theta = _mm256_load_pd(soa.theta.data() + k);
    for (std::size_t j = 0; j < soa.n_max; ++j) {
      const std::size_t off = j * s + k;
      const __m256d x = _mm256_load_pd(soa.x.data() + off);
      const __m256d du = _mm256_load_pd(soa.du.data() + off);
      const __m256d cap = _mm256_load_pd(soa.cap.data() + off);
      const __m256d d = _mm256_mul_pd(alpha, _mm256_sub_pd(du, avg));
      __m256d t = _mm256_add_pd(x, _mm256_mul_pd(theta, d));
      // Clamps via cmp+blend: `t < 0 ? 0 : t` keeps t = -0.0 (max_pd
      // would turn it into +0.0 and break bit-identity).
      t = _mm256_blendv_pd(t, zero, _mm256_cmp_pd(t, zero, _CMP_LT_OQ));
      t = _mm256_blendv_pd(t, cap, _mm256_cmp_pd(t, cap, _CMP_GT_OQ));
      _mm256_store_pd(soa.xn.data() + off, t);
    }
    // Restore the x-plane padding invariant on the soon-to-be x plane.
    const __m256d nd = _mm256_load_pd(soa.lane_nd.data() + k);
    for (std::size_t j = soa.n_min; j < soa.n_max; ++j) {
      const __m256d keep =
          _mm256_cmp_pd(_mm256_set1_pd(static_cast<double>(j)), nd,
                        _CMP_LT_OQ);
      double* p = soa.xn.data() + j * s + k;
      _mm256_store_pd(p, _mm256_and_pd(_mm256_load_pd(p), keep));
    }
  }
}

}  // namespace

const BatchKernels& avx2_batch_kernels() {
  static constexpr BatchKernels kTable = {
      "avx2",      &derivative_rows, &zero_du_padding, &lane_sums,
      &step_sizes, &census_theta,    &spread,          &apply_step,
  };
  return kTable;
}

}  // namespace fap::core::detail

#endif  // FAP_HAVE_AVX2_KERNELS && __AVX2__
