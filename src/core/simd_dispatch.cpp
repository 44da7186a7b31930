#include "core/simd_dispatch.hpp"

namespace fap::core {

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

SimdLevel active_simd_level() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // CPUID never changes within a process; cache the probe.
  static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  return avx2 ? SimdLevel::kAvx2 : SimdLevel::kScalar;
#else
  return SimdLevel::kScalar;
#endif
}

}  // namespace fap::core
