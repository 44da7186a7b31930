// The SIMD level of the running CPU, as provenance.
//
// perfbench's provenance line and micro_perf's `fap_simd_level` context
// field record which vector extension the host offers, so a capture says
// what it ran on. Nothing in the library dispatches on the value: every
// code path is the same portable scalar code on every host, compiled
// with -ffp-contract=off (src/CMakeLists.txt), so the level can never
// change an output.
#pragma once

namespace fap::core {

enum class SimdLevel {
  kScalar,  ///< no AVX2 (or a non-x86 build)
  kAvx2,    ///< x86-64 with AVX2
};

/// Human-readable name ("scalar" / "avx2") for logs and bench context.
const char* simd_level_name(SimdLevel level) noexcept;

/// The running CPU's level: a CPUID probe, cached on first use.
SimdLevel active_simd_level() noexcept;

}  // namespace fap::core
