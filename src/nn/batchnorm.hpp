// 2-D batch normalisation (per-channel), training and inference modes.
//
// In training mode statistics come from the current batch and running
// estimates are updated with `momentum`; in eval mode the running estimates
// are used.  The backward pass implements the full batch-norm gradient
// (including the dependence of mean/var on the input).
#pragma once

#include "nn/module.hpp"

namespace sky::nn {

class BatchNorm2d : public Module {
public:
    explicit BatchNorm2d(int channels, float momentum = 0.1f, float eps = 1e-5f);

    Tensor forward(const Tensor& x) override;
    /// Eval applies `ep` to each plane inside the normalisation loop.
    void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) override;
    Tensor backward(const Tensor& grad_out) override;
    void collect_params(std::vector<ParamRef>& out) override;
    void collect_state(std::vector<Tensor*>& out) override;

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] Shape out_shape(const Shape& in) const override { return in; }
    [[nodiscard]] std::int64_t param_count() const override { return 2LL * channels_; }
    [[nodiscard]] std::string kind() const override { return "bn"; }
    [[nodiscard]] int channels() const { return channels_; }

    [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
    [[nodiscard]] const Tensor& running_var() const { return running_var_; }
    [[nodiscard]] Tensor& gamma() { return gamma_; }
    [[nodiscard]] Tensor& beta() { return beta_; }

    /// Fold (gamma, beta, running stats) into an equivalent per-channel
    /// (scale, shift) pair, used by the quantised inference path.
    void fused_affine(std::vector<float>& scale, std::vector<float>& shift) const;

private:
    int channels_;
    float momentum_, eps_;
    Tensor gamma_, beta_;
    Tensor grad_gamma_, grad_beta_;
    Tensor running_mean_, running_var_;
    // Caches for backward.
    Tensor xhat_;
    std::vector<float> batch_inv_std_;
};

}  // namespace sky::nn
