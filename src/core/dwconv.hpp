// The 3x3 depthwise convolution kernel (stride 1, pad 1) behind SkyNet's
// DW-Conv3, for both datapaths:
//
//   dwconv3x3(float)    y = act(conv3x3(x, w) + b), or with an affine
//                       act(scale * (conv3x3(x, w) + b) + shift): the fp32
//                       DWConv3 forward with its fused epilogue applied at
//                       the store
//   dwconv3x3(int)      y = clamp(round_shift(conv3x3(x, w) + b, shift), lo,
//                       hi), the int8 engine's dwconv with its bias and
//                       requantization — the qgemm store's QEpilogue — over
//                       int32 or int16 activation words (int32 lanes either
//                       way: an int16 row widens as it loads, and each result
//                       narrows as it stores)
//
// Each call convolves ONE H x W plane with its own 9 taps (w[kh*3 + kw]);
// callers parallelise over (image, channel) planes, so every output element
// is written by exactly one call and results are thread-count invariant.
// The kernel is written once against compiler vector extensions
// (core/dwconv_ukernel.hpp) and instantiated per SIMD level (core/simd.hpp);
// the active level picks the instantiation.
//
// Both flavours return BITWISE the same values at every level:
//   * fp32 keeps the sequential kernel's operation order per element —
//     acc starts at +0.0 and each present input row adds
//     (w0*l + w1*m) + w2*r; the left edge column adds its two taps
//     separately, the right edge adds w0*l + w1*m — and no level contracts
//     a multiply-add into an FMA.  The epilogue is nn::activate's formula
//     on `acc + b` (or `acc` without a bias), with nn::affine's before it
//     when the epilogue has an affine, as separate passes computed.
//   * int sums are exact under the caller's proof (below), so their
//     order is free; rounding is round_shift's ties-away-from-zero.
#pragma once

#include <cstdint>

#include "core/gemm.hpp"
#include "core/qgemm.hpp"

namespace sky::core {

/// fp32 depthwise 3x3 over one plane: y = act(conv3x3(x, w) + b), or
/// act(scale * (conv3x3(x, w) + b) + shift).  `ep.bias`, `ep.scale` and
/// `ep.shift` point at THIS plane's value (one each) or are null.  Writes
/// all H x W outputs without reading y; y must not overlap x.
void dwconv3x3(const float* x, const float* w, int H, int W, const Epilogue& ep, float* y);

/// Integer depthwise 3x3 over one plane: y = clamp(round_shift(conv3x3(x,
/// w) + b, rq.shift), rq.lo, rq.hi).  `rq.bias` points at THIS plane's bias
/// at accumulator scale (one value) or is null.  The caller proves the int32
/// arithmetic exact: 1 <= shift <= 30 and
/// 9 * max|w| * max|x| + |b| + 2^(shift-1) < 2^31.  Writes all H x W
/// outputs; y must not overlap x.
void dwconv3x3(const std::int32_t* x, const std::int32_t* w, int H, int W,
               const QEpilogue& rq, std::int32_t* y);
/// The same over int16 words; the caller also keeps [lo, hi] inside
/// [-32768, 32767], so every result fits its word.
void dwconv3x3(const std::int16_t* x, const std::int32_t* w, int H, int W,
               const QEpilogue& rq, std::int16_t* y);

}  // namespace sky::core
