// The SIMD levels a kernel test sweeps: every level from kScalar up to the
// best one this build and CPU can execute (core/simd.hpp).  Each level at or
// below core::best_simd_level() runs on such a host, so a sweep on an
// AVX-512 host visits kAvx2 as well as kAvx512.
#pragma once

#include <vector>

#include "core/simd.hpp"

namespace sky::testing {

/// kScalar, kGeneric, ... up to core::best_simd_level(), in order.
inline std::vector<core::SimdLevel> runnable_simd_levels() {
    std::vector<core::SimdLevel> out;
    for (int l = 0; l <= static_cast<int>(core::best_simd_level()); ++l)
        out.push_back(static_cast<core::SimdLevel>(l));
    return out;
}

}  // namespace sky::testing
