// Deployment-time batch-norm folding.
//
// Every DAC-SDC entry (Table 1) ships its network with BN folded into the
// preceding convolution: y = BN(conv(x)) becomes a single conv with weights
// W' = scale * W and bias b' = scale * b + shift, where (scale, shift) is
// BatchNorm2d::fused_affine().  Folding removes the BN memory traffic and
// is a prerequisite for the fixed-point datapath (§6.4.1).
//
// fold_graph_bn() rewrites an nn::Graph in place.  It folds the pattern this
// code base emits — a conv layer (nn::ConvLayer: Conv2d, PWConv1, DWConv3,
// Linear) followed by BatchNorm2d — among the graph's own nodes; a nested
// graph node (a ResNet block, a Bundle) is one opaque node to it, so the BNs
// inside stay unfolded.  So is a node obs::GraphProfiler wrapped: fold
// before attaching a profiler.
#pragma once

#include "nn/batchnorm.hpp"
#include "nn/conv_layer.hpp"
#include "nn/graph.hpp"

namespace sky::deploy {

/// Fold `bn` into a generic convolution weight [out_ch, *, k, k] and bias.
/// The weight's leading dimension must equal bn's channel count.
void fold_into_conv(Tensor& weight, Tensor& bias, const nn::BatchNorm2d& bn);

/// Fold BN nodes of a Graph into their producing conv nodes.  A BN folds
/// when its single input is an nn::ConvLayer module node consumed only by
/// that BN; the conv gains a bias if it had none (its own bias: the one bias
/// rule), its weight pack is dropped, and the BN node is replaced by an
/// Identity.  Nested graphs are left as they are.  Returns the number of BN
/// layers folded.
int fold_graph_bn(nn::Graph& g);

/// Pass-through module left behind where a folded layer used to be.  As an
/// empty epilogue it aliases its input in an eval nn::Graph forward.
class Identity : public nn::Module {
public:
    Tensor forward(const Tensor& x) override { return x; }
    Tensor backward(const Tensor& grad_out) override { return grad_out; }
    [[nodiscard]] std::optional<nn::Epilogue> as_epilogue() const override {
        return nn::Epilogue{};
    }
    [[nodiscard]] std::string name() const override { return "Identity"; }
    [[nodiscard]] std::string kind() const override { return "identity"; }
    [[nodiscard]] Shape out_shape(const Shape& in) const override { return in; }
};

}  // namespace sky::deploy
