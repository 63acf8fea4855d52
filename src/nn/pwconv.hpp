// 1x1 pointwise convolution — the "PW-Conv1" half of the SkyNet Bundle.
//
// A 1x1 convolution is a matrix multiply over the channel axis applied at
// every spatial location, and it runs as exactly that: one packed SIMD GEMM
// per (image, group) through the sky::core kernel engine.  Eval forwards
// reuse per-group prepacked weight panels (core::PackedA), so the hot path
// only packs the activations.
#pragma once

#include <vector>

#include "core/gemm.hpp"
#include "nn/module.hpp"

namespace sky::nn {

class PWConv1 : public Module {
public:
    /// `groups` > 1 gives a grouped 1x1 conv (ShuffleNet-style); in_ch and
    /// out_ch must both be divisible by groups.
    PWConv1(int in_ch, int out_ch, bool bias, Rng& rng, int groups = 1);

    Tensor forward(const Tensor& x) override;
    /// Applies `ep` in the GEMM store (see Conv2d::forward_fused).
    void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) override;
    Tensor backward(const Tensor& grad_out) override;
    void collect_params(std::vector<ParamRef>& out) override;
    void set_training(bool training) override;
    void prepack() override;

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] Shape out_shape(const Shape& in) const override {
        return {in.n, out_ch_, in.h, in.w};
    }
    [[nodiscard]] std::int64_t macs(const Shape& in) const override;
    [[nodiscard]] std::int64_t param_count() const override;

    /// Mutable access invalidates the prepacked weight panels (see
    /// Conv2d::weight()).
    [[nodiscard]] Tensor& weight() {
        wpack_.clear();
        return weight_;
    }
    [[nodiscard]] const Tensor& weight() const { return weight_; }
    [[nodiscard]] Tensor& bias() { return bias_; }
    [[nodiscard]] const Tensor& bias() const { return bias_; }
    [[nodiscard]] int in_channels() const { return in_ch_; }
    [[nodiscard]] int out_channels() const { return out_ch_; }
    [[nodiscard]] int groups() const { return groups_; }
    [[nodiscard]] std::string kind() const override { return "pwconv"; }
    [[nodiscard]] bool has_bias() const { return has_bias_; }
    void enable_bias() { has_bias_ = true; }

private:
    int in_ch_, out_ch_, groups_;
    bool has_bias_;
    Tensor weight_;  ///< [out_ch, in_ch/groups, 1, 1]
    Tensor bias_;
    Tensor grad_weight_;
    Tensor grad_bias_;
    Tensor input_;
    std::vector<core::PackedA> wpack_;  ///< one prepacked panel set per group
};

}  // namespace sky::nn
