// Fused eval epilogues: the per-channel affine y = scale * x + shift of an
// eval BatchNorm2d, the elementwise activation y = act(x) that an
// Activation (or, empty, a folded-BN Identity) applies to its producer's
// output, and the 2x2 max pool a MaxPool2 applies after it, in that order.
//
// In eval mode nn::Graph folds such nodes into the module that produces
// their input, and that module applies the Epilogue where it writes its
// output (Module::forward_fused): PWConv1, Conv2d and DWConv3 after adding
// the bias every nn::ConvLayer owns in the store (core::Epilogue,
// core/gemm.hpp and core/dwconv.hpp), eval MaxPool2 in the max-pool
// kernel's store (core/maxpool.hpp), SpaceToDepth per plane inside its
// parallel chunks, an eval BatchNorm2d that did not fold in its own loop,
// and any other module (Linear among them) in place afterwards.  Only a
// module whose Module::accepts_affine() says so (the three convs) is
// handed an affine, and only one whose Module::accepts_pool() says so
// (PWConv1) a pool: it pools each band of its output from scratch as it
// writes (docs/KERNELS.md).
// The formulas below are the only scalar copy; core/gemm_ukernel.hpp
// carries their vector twin.
// Every fused value is the same expression, in the same operand order, as
// the unfused layers computed, so fusion is bitwise invisible.
#pragma once

#include <cmath>
#include <cstdint>

#include "core/gemm.hpp"
#include "tensor/tensor.hpp"

namespace sky::nn {

using core::EpilogueAct;

/// y = act(scale[c] * x + shift[c]) on channel c, without an affine act(x),
/// then with `pool` the 2x2 max pool (stride 2) of that; an empty Epilogue
/// (an Identity) changes nothing.  The affine arrays are borrowed from an
/// eval BatchNorm2d's cache (BatchNorm2d::as_epilogue), one value per
/// channel of the producer's output.
struct Epilogue {
    EpilogueAct act = EpilogueAct::kNone;
    float slope = 0.0f;             ///< kLeaky's negative-side slope
    bool pool = false;              ///< a folded MaxPool2: the output shrinks to H/2 x W/2
    const float* scale = nullptr;   ///< a folded BatchNorm2d's per-channel scale, or nullptr
    const float* shift = nullptr;   ///< its per-channel shift (set with scale)
    [[nodiscard]] bool affine() const { return scale != nullptr; }
    [[nodiscard]] bool empty() const {
        return act == EpilogueAct::kNone && !pool && !affine();
    }
    /// The core::Epilogue a conv's store applies to its output channels
    /// from `c0` on: its own `bias` (one per channel, or nullptr), then
    /// this affine and activation.
    [[nodiscard]] core::Epilogue store(const float* bias, int c0) const {
        return {bias != nullptr ? bias + c0 : nullptr, act, slope,
                affine() ? scale + c0 : nullptr, affine() ? shift + c0 : nullptr};
    }
};

/// The eval BatchNorm formula, scale * v + shift, two roundings: the one
/// scalar copy (BatchNorm2d's eval loop); core::detail::epilogue_affine is
/// its vector twin.
[[nodiscard]] inline float affine(float v, float scale, float shift) {
    return scale * v + shift;
}

/// The activation formulas (ReLU, ReLU6, LeakyReLU, Sigmoid) — written once.
template <EpilogueAct A>
[[nodiscard]] inline float activate(float v, float slope) {
    if constexpr (A == EpilogueAct::kReLU) {
        return v > 0.0f ? v : 0.0f;
    } else if constexpr (A == EpilogueAct::kReLU6) {
        return v <= 0.0f ? 0.0f : (v >= 6.0f ? 6.0f : v);
    } else if constexpr (A == EpilogueAct::kLeaky) {
        return v > 0.0f ? v : slope * v;
    } else if constexpr (A == EpilogueAct::kSigmoid) {
        return 1.0f / (1.0f + std::exp(-v));
    } else {
        (void)slope;
        return v;
    }
}

/// Apply `ep`'s activation in place to `n` values.
void apply_epilogue(const Epilogue& ep, float* p, std::int64_t n);

/// y[i] = act(affine(x[i], scale, shift)) for `n` values in one pass, with
/// `ep`'s activation: one channel's plane of an eval BatchNorm2d.  `y` may
/// be `x`.
void apply_epilogue(const Epilogue& ep, float scale, float shift, const float* x, float* y,
                    std::int64_t n);

/// Apply `ep`'s activation in place to every (image, channel) plane of `y`,
/// in parallel.
void apply_epilogue(const Epilogue& ep, Tensor& y);

}  // namespace sky::nn
