// The SIMD level probe that perfbench and micro_perf record as
// provenance: its names, and its agreement with the CPU it runs on.
#include "core/simd_dispatch.hpp"

#include <gtest/gtest.h>

namespace {

using fap::core::SimdLevel;

TEST(SimdDispatch, LevelNames) {
  EXPECT_STREQ(fap::core::simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(fap::core::simd_level_name(SimdLevel::kAvx2), "avx2");
}

TEST(SimdDispatch, DefaultLevelMatchesHardware) {
#if defined(__x86_64__) || defined(__i386__)
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
#else
  const bool avx2 = false;
#endif
  EXPECT_EQ(fap::core::active_simd_level(),
            avx2 ? SimdLevel::kAvx2 : SimdLevel::kScalar);
}

}  // namespace
