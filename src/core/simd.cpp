#include "core/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace sky::core {
namespace {

SimdLevel clamp_to_best(SimdLevel level) {
    const auto best = static_cast<int>(best_simd_level());
    const auto want = static_cast<int>(level);
    return want > best ? best_simd_level() : level;
}

SimdLevel env_level() {
    if (const char* env = std::getenv("SKYNET_SIMD")) {
        if (std::strcmp(env, "0") == 0) return SimdLevel::kScalar;
        if (std::strcmp(env, "1") == 0) return SimdLevel::kGeneric;
    }
    return best_simd_level();
}

std::atomic<SimdLevel>& level_slot() {
    static std::atomic<SimdLevel> level{env_level()};
    return level;
}

}  // namespace

SimdLevel best_simd_level() {
#if defined(SKYNET_SIMD_AVX2)
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma"))
        return SimdLevel::kGeneric;
#if defined(SKYNET_SIMD_AVX512)
    // Keyed on AVX-512 VNNI (vpdpwssd), not on AVX-VNNI: GCC 12's
    // __builtin_cpu_supports("avxvnni") reads 0 on CPUs that have it.
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vnni"))
        return SimdLevel::kAvx512;
#endif
    return SimdLevel::kAvx2;
#else
    return SimdLevel::kGeneric;
#endif
}

SimdLevel active_simd_level() {
    return level_slot().load(std::memory_order_relaxed);
}

SimdLevel set_simd_level(SimdLevel level) {
    const SimdLevel eff = clamp_to_best(level);
    level_slot().store(eff, std::memory_order_relaxed);
    return eff;
}

const char* simd_level_name(SimdLevel level) {
    switch (level) {
        case SimdLevel::kScalar: return "scalar";
        case SimdLevel::kGeneric: return "generic";
        case SimdLevel::kAvx2: return "avx2";
        case SimdLevel::kAvx512: return "avx512";
    }
    return "?";
}

}  // namespace sky::core
