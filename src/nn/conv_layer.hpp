// The one base of every conv-like layer: Conv2d, PWConv1, DWConv3 and
// Linear (a 1x1 conv over its flattened input).
//
// The four differ only in their kernels.  ConvLayer owns what they share:
// the geometry as one ConvSpec, the weight [out_ch, in_ch / groups, k, k],
// the bias [1, out_ch, 1, 1] and both gradients, param_count, and the
// weight pack: the weights copied once into the GEMM register-tile panels
// (core::PackedA, one per group) that eval forwards multiply against.  The
// rewrite passes (deploy::fold_graph_bn, quant::lower, verify::check_graph)
// test a module once for a ConvLayer and read its spec.
//
// One pack rule (docs/KERNELS.md, "Weight packs"):
//   * set_training(false) packs a missing or stale pack (one built for
//     another micro-kernel geometry).  It is the only call that packs.
//   * whatever hands out mutable weights drops the pack: weight(),
//     collect_params() (a checkpoint load or an optimizer writes through the
//     pointers) and set_training(true) (the optimizer is about to).
//   * a forward multiplies against a valid pack, and otherwise packs into
//     thread-local scratch.  It never writes the pack, so concurrent eval
//     forwards on one layer only read it.
// A depthwise layer runs no GEMM and keeps no pack.
#pragma once

#include <vector>

#include "core/gemm.hpp"
#include "nn/module.hpp"

namespace sky::nn {

/// Geometry of a conv-like layer.
struct ConvSpec {
    int in_ch = 0;
    int out_ch = 0;
    int k = 1;  ///< square kernel
    int stride = 1;
    int pad = 0;  ///< symmetric zero padding
    int groups = 1;
    bool flatten = false;  ///< Linear: reads its input as {n, c*h*w, 1, 1}

    /// One 3x3 filter per channel, stride 1, pad 1: the depthwise kernel
    /// (core::dwconv3x3), not a GEMM.  DWConv3 with more than one channel.
    [[nodiscard]] bool depthwise() const {
        return groups > 1 && groups == in_ch && groups == out_ch && k == 3 && stride == 1 &&
               pad == 1;
    }
};

class ConvLayer : public Module {
public:
    [[nodiscard]] const ConvSpec& spec() const { return spec_; }

    /// Mutable access drops the weight pack (BN folding, tests): forwards
    /// pack per call until the next set_training(false).
    [[nodiscard]] Tensor& weight() {
        wpack_.clear();
        return weight_;
    }
    [[nodiscard]] const Tensor& weight() const { return weight_; }
    [[nodiscard]] Tensor& bias() { return bias_; }
    [[nodiscard]] const Tensor& bias() const { return bias_; }
    [[nodiscard]] bool has_bias() const { return has_bias_; }
    /// Deployment passes (BN folding) may need to materialise a bias.
    void enable_bias() { has_bias_ = true; }
    /// Whether the layer holds a weight pack (set_training(false) made one).
    [[nodiscard]] bool has_weight_pack() const { return !wpack_.empty(); }
    /// Drops the weight pack of a layer whose fp32 forward no longer runs:
    /// the convs a quantized Detector runs in integer.  A forward then packs
    /// per call, and the next set_training(false) packs again.
    void drop_weight_pack() { wpack_.clear(); }

    /// y = forward_fused(x) with an empty epilogue.  Linear overrides this
    /// instead and keeps Module's forward_fused.
    Tensor forward(const Tensor& x) override;
    /// Weight, then the bias if it has one.  Drops the weight pack.
    void collect_params(std::vector<ParamRef>& out) override;
    /// false packs a missing or stale weight pack; true drops it.
    void set_training(bool training) override;

    [[nodiscard]] Shape out_shape(const Shape& in) const override;
    [[nodiscard]] std::int64_t macs(const Shape& in) const override;
    [[nodiscard]] std::int64_t param_count() const override;

protected:
    /// Kaiming-initialised weight (fan-in in_ch / groups * k * k), zero bias.
    ConvLayer(const ConvSpec& spec, bool bias, Rng& rng);

    /// Throws std::invalid_argument unless `x` carries in_ch channels (a
    /// flatten layer: in_ch features per item).
    void check_input(const Tensor& x) const;
    /// Throws std::logic_error unless a training forward cached input_.
    void check_cached_input() const;
    /// Every group's weights (out_ch / groups rows each, one PackedA per
    /// group) packed for the active micro-kernel: the weight pack when it is
    /// valid, else copies packed into this thread's scratch, which the
    /// thread's next call overwrites.
    [[nodiscard]] const std::vector<core::PackedA>& packed_weights() const;
    /// grad_bias_[c] += the sum of each image's plane c of `grad_out`, one
    /// double accumulation per (image, channel).  No-op without a bias.
    void accumulate_bias_grad(const Tensor& grad_out);

    Tensor weight_;
    Tensor bias_;
    Tensor grad_weight_;
    Tensor grad_bias_;
    Tensor input_;  ///< cached for backward (training forwards only)

private:
    [[nodiscard]] bool pack_valid() const;
    /// One weight pack per group, for the active micro-kernel.
    void pack_groups(std::vector<core::PackedA>& out) const;

    ConvSpec spec_;
    bool has_bias_;
    std::vector<core::PackedA> wpack_;  ///< one per group, or empty
};

}  // namespace sky::nn
