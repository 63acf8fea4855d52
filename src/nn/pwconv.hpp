// 1x1 pointwise convolution — the "PW-Conv1" half of the SkyNet Bundle.
//
// A 1x1 convolution is a matrix multiply over the channel axis applied at
// every spatial location, and it runs as exactly that, band-major
// (core::for_each_band): one parallel_for chunk per (image, group, band of
// columns) packs its band, multiplies it against ConvLayer's per-group
// weight packs and stores act(bias + acc) from the register tiles, a folded
// eval BatchNorm's affine before the activation.  With a
// folded MaxPool2 (an Epilogue with `pool`) the chunk stores into
// per-thread scratch and pools from there, so the pre-pool map is never
// written.
#pragma once

#include "nn/conv_layer.hpp"

namespace sky::nn {

class PWConv1 : public ConvLayer {
public:
    /// `groups` > 1 gives a grouped 1x1 conv (ShuffleNet-style); in_ch and
    /// out_ch must both be divisible by groups (std::invalid_argument).
    PWConv1(int in_ch, int out_ch, bool bias, Rng& rng, int groups = 1);

    /// Applies `ep`'s affine and activation in the GEMM store (see
    /// Conv2d::forward_fused) and, with ep.pool, writes the 2x2 max pool of
    /// that.
    void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) override;
    Tensor backward(const Tensor& grad_out) override;
    [[nodiscard]] bool accepts_affine() const override { return true; }
    [[nodiscard]] bool accepts_pool() const override { return true; }

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::string kind() const override { return "pwconv"; }
};

}  // namespace sky::nn
