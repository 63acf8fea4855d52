// Fully-connected layer over the flattened per-item features.
//
// Input {n, F, 1, 1} (or any shape whose per-item count equals in_features) ->
// output {n, out_features, 1, 1}.  Used by the classifier backbones (AlexNet,
// VGG) whose FC layers dominate the parameter-compression study of Fig. 2a.
// A ConvLayer: a biased 1x1 conv over the flattened input.  Eval forwards
// run Y^T = W * X^T through the packed SIMD GEMM against the weight pack;
// training forwards keep the seed's sequential double-precision dot
// products (the optimizer tests rely on that accuracy).
#pragma once

#include "nn/conv_layer.hpp"

namespace sky::nn {

class Linear : public ConvLayer {
public:
    Linear(int in_features, int out_features, Rng& rng);

    /// forward_fused is Module's: this forward, then the epilogue in place.
    Tensor forward(const Tensor& x) override;
    Tensor backward(const Tensor& grad_out) override;

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] std::string kind() const override { return "fc"; }

private:
    Shape in_shape_;  ///< original input shape (restored in backward)
};

}  // namespace sky::nn
