// Fused eval epilogues: the elementwise activation y = act(x) that an
// Activation (or, empty, a folded-BN Identity) applies to its producer's
// output, and the 2x2 max pool a MaxPool2 applies after it.
//
// In eval mode nn::Graph folds such nodes into the module that produces
// their input, and that module applies the Epilogue where it writes its
// output (Module::forward_fused): PWConv1, Conv2d and DWConv3 after adding
// the bias every nn::ConvLayer owns in the store (core::Epilogue,
// core/gemm.hpp and core/dwconv.hpp), eval MaxPool2 in the max-pool
// kernel's store (core/maxpool.hpp), SpaceToDepth per plane inside its
// parallel chunks, eval BatchNorm2d in its own loop, and any other module
// (Linear among them) in place afterwards.  Only a module whose
// Module::accepts_pool() says so (PWConv1) is handed a pool: it pools each
// band of act(output) from scratch as it writes (docs/KERNELS.md).
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

/// y = act(x), then with `pool` the 2x2 max pool (stride 2) of that; an
/// empty Epilogue (an Identity) changes nothing.  A conv applies the
/// activation as core::Epilogue{its own bias, act, slope}.
struct Epilogue {
    EpilogueAct act = EpilogueAct::kNone;
    float slope = 0.0f;  ///< kLeaky's negative-side slope
    bool pool = false;   ///< a folded MaxPool2: the output shrinks to H/2 x W/2
    [[nodiscard]] bool empty() const { return act == EpilogueAct::kNone && !pool; }
};

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

/// Apply `ep` in place to `n` values.
void apply_epilogue(const Epilogue& ep, float* p, std::int64_t n);

/// Apply `ep` in place to every (image, channel) plane of `y`, in parallel.
void apply_epilogue(const Epilogue& ep, Tensor& y);

}  // namespace sky::nn
