// Generic 2-D convolution (square kernel, symmetric padding, stride).
//
// Used by the baseline backbones (ResNet / VGG / AlexNet / Tiny-YOLO ...).
// SkyNet itself only needs the depthwise and pointwise specialisations in
// dwconv.hpp / pwconv.hpp, which have dedicated kernels.  Forward and
// backward run as im2col + packed SIMD SGEMM through the sky::core kernel
// engine; eval forwards multiply against the weight pack ConvLayer keeps
// (see nn/conv_layer.hpp and docs/KERNELS.md).
#pragma once

#include "nn/conv_layer.hpp"

namespace sky::nn {

class Conv2d : public ConvLayer {
public:
    /// kernel k x k, `stride`, zero padding `pad`; bias optional.
    Conv2d(int in_ch, int out_ch, int k, int stride, int pad, bool bias, Rng& rng);

    /// The GEMM store writes act(bias + acc) per output channel, with a
    /// folded BatchNorm's affine act(scale * (bias + acc) + shift).
    void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) override;
    Tensor backward(const Tensor& grad_out) override;
    [[nodiscard]] bool accepts_affine() const override { return true; }

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::string kind() const override { return "conv"; }
};

}  // namespace sky::nn
