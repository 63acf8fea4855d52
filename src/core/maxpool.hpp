// The 2x2 max-pool kernel (stride 2) that ends SkyNet's Bundles 1-3, for
// both datapaths:
//
//   maxpool2x2(float)          y = act(max of each 2x2 window), the eval
//                              nn::MaxPool2 forward with its fused
//                              activation applied at the store
//   maxpool2x2(int32 / int16)  y = max of each 2x2 window, the int8
//                              engine's kMaxPool over either activation word
//
// Each call pools ONE H x W plane into (H/2) x (W/2); an odd trailing row or
// column is dropped.  Callers parallelise over (image, channel) planes, so
// every output element is written by exactly one call and results are
// thread-count invariant.  The kernel is written once against compiler
// vector extensions (core/maxpool_ukernel.hpp) and instantiated per SIMD
// level next to the depthwise kernel (core/plane_kernels.hpp).
//
// Every level returns BITWISE the sequential scan's values: each window
// starts at x00 and takes x01, x10 and x11 in turn only where one is
// strictly greater, so the first of equal values (-0.0 before +0.0) stays
// and a NaN wins only as x00.  Integer max is exact, so the int8 engine's
// reference execution runs this same kernel.
#pragma once

#include <cstdint>

#include "core/gemm.hpp"

namespace sky::core {

/// fp32 2x2 max pool of one plane: y = act(max) with nn/epilogue.hpp's
/// formula for `act` (`slope` is kLeaky's).  Writes all (H/2) x (W/2)
/// outputs without reading y (none when H < 2 or W < 2); y must not overlap
/// x.
void maxpool2x2(const float* x, int H, int W, EpilogueAct act, float slope, float* y);

/// Integer 2x2 max pool of one plane of int32 or int16 words.
void maxpool2x2(const std::int32_t* x, int H, int W, std::int32_t* y);
void maxpool2x2(const std::int16_t* x, int H, int W, std::int16_t* y);

}  // namespace sky::core
