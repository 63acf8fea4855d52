// SIMD dispatch layer for the sky::core kernel engine.
//
// The GEMM micro-kernels (core/gemm*.cpp), their integer twin
// (core/qgemm*.cpp) and the plane kernels, the depthwise conv and the max
// pool (core/plane_kernels*.cpp), are written once against compiler vector
// extensions (the integer tiles of the x86 levels once against small ISA
// traits, core/qgemm_x86.hpp) and instantiated at several register widths;
// this header names the levels and owns the process-wide selection:
//
//   kScalar   plain float accumulators — the reference semantics, also the
//             fallback when vector units are disabled (SKYNET_SIMD=0).
//   kGeneric  native-width vectors at the baseline ISA of the build
//             (SSE2 on x86-64, NEON on aarch64) — no special build flags.
//   kAvx2     8-wide AVX2 kernels from dedicated -mavx2 translation units
//             (the fp32 GEMM's also -mfma), used only when the CPU reports
//             support for both.
//   kAvx512   16-wide GEMM kernels from dedicated -mavx512f translation
//             units: the fp32 tile with FMA, the integer tile with
//             vpdpwssd (AVX-512 VNNI).  Used only when the CPU also reports
//             avx512f, avx512bw and avx512vnni; the plane kernels run their
//             kAvx2 entries at this level.
//
// Selection order: the SKYNET_SIMD environment variable ("0" forces
// kScalar) read once on first use, else the best level the running CPU
// supports.  set_simd_level() overrides at runtime (tests use it to compare
// levels in-process); it clamps to best_simd_level() and must not be called
// while kernels are running.  The level is process-global: results are
// bitwise reproducible for a fixed build *and* level, and bitwise
// independent of the thread count at every level (docs/KERNELS.md).
#pragma once

namespace sky::core {

enum class SimdLevel { kScalar = 0, kGeneric = 1, kAvx2 = 2, kAvx512 = 3 };

/// Best level this build + CPU combination can execute.
[[nodiscard]] SimdLevel best_simd_level();

/// Currently selected level (env default on first call).
[[nodiscard]] SimdLevel active_simd_level();

/// Select a level, clamped to best_simd_level().  Returns the level that is
/// now active.  Not thread-safe against in-flight kernels.
SimdLevel set_simd_level(SimdLevel level);

/// "scalar" / "generic" / "avx2" / "avx512".
[[nodiscard]] const char* simd_level_name(SimdLevel level);

}  // namespace sky::core
