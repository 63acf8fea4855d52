// 3x3 depthwise convolution — the "DW-Conv3" half of the SkyNet Bundle.
//
// Each channel is convolved with its own 3x3 filter (stride 1, pad 1), so the
// spatial size is preserved and the MAC count is C*H*W*9 instead of
// C^2*H*W*9.  This is the layer that makes SkyNet hardware-efficient, so it
// gets a dedicated kernel (core::dwconv3x3) rather than a GEMM: a ConvLayer
// with groups == channels, which keeps no weight pack.
#pragma once

#include "nn/conv_layer.hpp"

namespace sky::nn {

class DWConv3 : public ConvLayer {
public:
    DWConv3(int channels, Rng& rng);

    /// core::dwconv3x3 writes act(conv + bias), with a folded BatchNorm's
    /// affine act(scale * (conv + bias) + shift), to every element of each
    /// plane of `y`.
    void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) override;
    Tensor backward(const Tensor& grad_out) override;
    [[nodiscard]] bool accepts_affine() const override { return true; }

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::string kind() const override { return "dwconv"; }
};

}  // namespace sky::nn
