// The per-level table behind sky::core's plane kernels: the 3x3 depthwise
// convolution (core/dwconv.hpp) and the 2x2 max pool (core/maxpool.hpp).
// Each call of either kernel works on ONE H x W plane, and both are written
// once against compiler vector extensions (core/dwconv_ukernel.hpp,
// core/maxpool_ukernel.hpp).  One PlaneKernels entry holds the functions
// of one SIMD level (core/simd.hpp):
//
//   core/plane_kernels.cpp       kScalar (plain T lanes, the reference
//                                semantics) and kGeneric (16-byte vectors at
//                                the baseline ISA), plus the dispatch on
//                                active_simd_level()
//   core/plane_kernels_avx2.cpp  kAvx2 (32-byte vectors), compiled with
//                                -mavx2 and without -mfma; kAvx512 runs
//                                this entry too
#pragma once

#include <cstdint>

#include "core/gemm.hpp"
#include "core/qgemm.hpp"

namespace sky::core::detail {

/// The plane functions of one level.
struct PlaneKernels {
    void (*dw_f32)(const float* x, const float* w, int H, int W, const Epilogue& ep,
                   float* y) = nullptr;
    void (*dw_i32)(const std::int32_t* x, const std::int32_t* w, int H, int W,
                   const QEpilogue& rq, std::int32_t* y) = nullptr;
    void (*dw_i16)(const std::int16_t* x, const std::int32_t* w, int H, int W,
                   const QEpilogue& rq, std::int16_t* y) = nullptr;
    void (*pool_f32)(const float* x, int H, int W, EpilogueAct act, float slope,
                     float* y) = nullptr;
    void (*pool_i32)(const std::int32_t* x, int H, int W, std::int32_t* y) = nullptr;
    void (*pool_i16)(const std::int16_t* x, int H, int W, std::int16_t* y) = nullptr;
};

/// The AVX2 entry, defined in core/plane_kernels_avx2.cpp when that TU is
/// part of the build (SKYNET_SIMD CMake option, x86-64 GCC/Clang only).
const PlaneKernels& plane_kernels_avx2();

}  // namespace sky::core::detail
