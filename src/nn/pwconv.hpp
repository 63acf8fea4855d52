// 1x1 pointwise convolution — the "PW-Conv1" half of the SkyNet Bundle.
//
// A 1x1 convolution is a matrix multiply over the channel axis applied at
// every spatial location, and it runs as exactly that: one packed SIMD GEMM
// per (image, group) through the sky::core kernel engine.  Eval forwards
// multiply against ConvLayer's per-group weight packs, so the hot path only
// packs the activations.
#pragma once

#include "nn/conv_layer.hpp"

namespace sky::nn {

class PWConv1 : public ConvLayer {
public:
    /// `groups` > 1 gives a grouped 1x1 conv (ShuffleNet-style); in_ch and
    /// out_ch must both be divisible by groups (std::invalid_argument).
    PWConv1(int in_ch, int out_ch, bool bias, Rng& rng, int groups = 1);

    /// Applies `ep` in the GEMM store (see Conv2d::forward_fused).
    void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) override;
    Tensor backward(const Tensor& grad_out) override;

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::string kind() const override { return "pwconv"; }
};

}  // namespace sky::nn
