// Generic 2-D convolution (square kernel, symmetric padding, stride).
//
// Used by the baseline backbones (ResNet / VGG / AlexNet / Tiny-YOLO ...).
// SkyNet itself only needs the depthwise and pointwise specialisations in
// dwconv.hpp / pwconv.hpp, which have dedicated kernels.  Forward and
// backward run as im2col + packed SIMD SGEMM through the sky::core kernel
// engine; eval forwards reuse a prepacked weight-panel handle
// (core::PackedA) so the hot path skips per-call weight repacking
// (see docs/KERNELS.md).
#pragma once

#include <vector>

#include "core/gemm.hpp"
#include "nn/module.hpp"

namespace sky::nn {

class Conv2d : public Module {
public:
    /// kernel k x k, `stride`, zero padding `pad`; bias optional.
    Conv2d(int in_ch, int out_ch, int k, int stride, int pad, bool bias, Rng& rng);

    Tensor forward(const Tensor& x) override;
    /// The GEMM store writes act(bias + acc) per output channel.
    void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) override;
    Tensor backward(const Tensor& grad_out) override;
    void collect_params(std::vector<ParamRef>& out) override;
    /// Entering training drops the weight pack (the optimizer is about to
    /// write the weights); leaving it refreshes the pack.
    void set_training(bool training) override;
    void prepack() override;

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] Shape out_shape(const Shape& in) const override;
    [[nodiscard]] std::int64_t macs(const Shape& in) const override;
    [[nodiscard]] std::int64_t param_count() const override;

    /// Mutable access invalidates the prepacked weight panels — callers that
    /// rewrite weights in eval mode (BN folding, checkpoint load) get a
    /// correct fallback until the next prepack()/set_training(false).
    [[nodiscard]] Tensor& weight() {
        wpack_.clear();
        return weight_;
    }
    [[nodiscard]] const Tensor& weight() const { return weight_; }
    [[nodiscard]] Tensor& bias() { return bias_; }
    [[nodiscard]] const Tensor& bias() const { return bias_; }
    [[nodiscard]] int in_channels() const { return in_ch_; }
    [[nodiscard]] int out_channels() const { return out_ch_; }
    [[nodiscard]] int kernel() const { return k_; }
    [[nodiscard]] int stride() const { return stride_; }
    [[nodiscard]] int padding() const { return pad_; }
    [[nodiscard]] std::string kind() const override { return "conv"; }
    [[nodiscard]] bool has_bias() const { return has_bias_; }
    /// Deployment passes (BN folding) may need to materialise a bias.
    void enable_bias() { has_bias_ = true; }

private:
    int in_ch_, out_ch_, k_, stride_, pad_;
    bool has_bias_;
    Tensor weight_;  ///< [out_ch, in_ch, k, k]
    Tensor bias_;    ///< [1, out_ch, 1, 1]
    Tensor grad_weight_;
    Tensor grad_bias_;
    Tensor input_;          ///< cached for backward (training mode only)
    core::PackedA wpack_;   ///< prepacked weight panels (eval mode only)
};

}  // namespace sky::nn
