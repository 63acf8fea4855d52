// 2-D batch normalisation (per-channel), training and inference modes.
//
// In training mode statistics come from the current batch and running
// estimates are updated with `momentum`; in eval mode the running estimates
// are used.  The backward pass implements the full batch-norm gradient
// (including the dependence of mean/var on the input).
//
// Eval mode is one per-channel affine, y = scale * x + shift, with
// fused_affine() its one formula (deploy::fold_into_conv reads it too).
// set_training(false) caches it, as a conv packs its weights
// (nn/conv_layer.hpp), and then as_epilogue() hands nn::Graph that cache as
// an epilogue to fold into the producing conv's store (nn/epilogue.hpp):
// an unfolded model's eval forward runs no BatchNorm pass at all.  One
// cache rule:
//   * set_training(false) computes a missing cache; it is the only call
//     that writes it.
//   * whatever hands out mutable parameters or statistics drops it:
//     gamma(), beta(), collect_params(), collect_state() (a checkpoint load
//     or an optimizer writes through the pointers) and set_training(true).
//   * without a cache as_epilogue() is nullopt and an eval forward computes
//     the affine per call; no forward writes the cache, so concurrent eval
//     forwards on one layer only read it.
#pragma once

#include <optional>
#include <vector>

#include "nn/module.hpp"

namespace sky::nn {

class BatchNorm2d : public Module {
public:
    explicit BatchNorm2d(int channels, float momentum = 0.1f, float eps = 1e-5f);

    Tensor forward(const Tensor& x) override;
    /// Eval writes act(scale * x + shift) in one pass over each plane, with
    /// `ep`'s activation.
    void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) override;
    Tensor backward(const Tensor& grad_out) override;
    /// The cached eval affine as an epilogue, or nullopt without a cache.
    [[nodiscard]] std::optional<Epilogue> as_epilogue() const override;
    /// gamma, then beta.  Drops the cached affine.
    void collect_params(std::vector<ParamRef>& out) override;
    /// Running mean, then variance.  Drops the cached affine.
    void collect_state(std::vector<Tensor*>& out) override;
    /// false caches a missing affine; true drops it.
    void set_training(bool training) override;

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] Shape out_shape(const Shape& in) const override { return in; }
    [[nodiscard]] std::int64_t param_count() const override { return 2LL * channels_; }
    [[nodiscard]] std::string kind() const override { return "bn"; }
    [[nodiscard]] int channels() const { return channels_; }

    [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
    [[nodiscard]] const Tensor& running_var() const { return running_var_; }
    /// Mutable access drops the cached affine.
    [[nodiscard]] Tensor& gamma() {
        drop_affine();
        return gamma_;
    }
    [[nodiscard]] Tensor& beta() {
        drop_affine();
        return beta_;
    }
    /// Whether set_training(false) cached the eval affine.
    [[nodiscard]] bool has_affine() const { return !scale_.empty(); }

    /// Fold (gamma, beta, running stats) into the equivalent per-channel
    /// (scale, shift) pair: the eval forward, its epilogue, BN folding and
    /// the quantised inference path all read this one formula.
    void fused_affine(std::vector<float>& scale, std::vector<float>& shift) const;

private:
    void drop_affine() {
        scale_.clear();
        shift_.clear();
    }

    int channels_;
    float momentum_, eps_;
    Tensor gamma_, beta_;
    Tensor grad_gamma_, grad_beta_;
    Tensor running_mean_, running_var_;
    // Caches for backward.
    Tensor xhat_;
    std::vector<float> batch_inv_std_;
    // The eval affine, one value per channel each, or empty.
    std::vector<float> scale_, shift_;
};

}  // namespace sky::nn
