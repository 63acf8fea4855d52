// 3x3 depthwise convolution — the "DW-Conv3" half of the SkyNet Bundle.
//
// Each channel is convolved with its own 3x3 filter (stride 1, pad 1), so the
// spatial size is preserved and the MAC count is C*H*W*9 instead of
// C^2*H*W*9.  This is the layer that makes SkyNet hardware-efficient, so it
// gets a dedicated kernel rather than going through the generic Conv2d.
#pragma once

#include "nn/module.hpp"

namespace sky::nn {

class DWConv3 : public Module {
public:
    DWConv3(int channels, Rng& rng);

    Tensor forward(const Tensor& x) override;
    /// core::dwconv3x3 writes act(conv + bias) to every element of each
    /// plane of `y`.
    void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) override;
    Tensor backward(const Tensor& grad_out) override;
    void collect_params(std::vector<ParamRef>& out) override;

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] Shape out_shape(const Shape& in) const override { return in; }
    [[nodiscard]] std::int64_t macs(const Shape& in) const override;
    [[nodiscard]] std::int64_t param_count() const override;

    [[nodiscard]] Tensor& weight() { return weight_; }
    [[nodiscard]] const Tensor& weight() const { return weight_; }
    [[nodiscard]] Tensor& bias() { return bias_; }
    [[nodiscard]] const Tensor& bias() const { return bias_; }
    [[nodiscard]] int channels() const { return channels_; }
    [[nodiscard]] std::string kind() const override { return "dwconv"; }
    [[nodiscard]] bool has_bias() const { return has_bias_; }
    /// Deployment passes (BN folding) may need to materialise a bias.
    void enable_bias() { has_bias_ = true; }

private:
    int channels_;
    bool has_bias_ = false;
    Tensor weight_;  ///< [channels, 1, 3, 3]
    Tensor bias_;    ///< [1, channels, 1, 1]
    Tensor grad_weight_;
    Tensor grad_bias_;
    Tensor input_;
};

}  // namespace sky::nn
