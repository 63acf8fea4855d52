// Elementwise activations: ReLU, ReLU6, LeakyReLU, Sigmoid.
//
// ReLU6 (clip to [0, 6]) is the activation SkyNet adopts in Stage 3 of the
// bottom-up flow: the bounded range needs fewer bits for fixed-point feature
// maps, which is what Table 4 / Table 7 measure.
#pragma once

#include "nn/module.hpp"

namespace sky::nn {

/// Which activation a Bundle uses; switchable for the Table 4 ablation.
enum class Act { kReLU, kReLU6, kLeaky, kSigmoid };

[[nodiscard]] const char* act_name(Act a);

class Activation : public Module {
public:
    explicit Activation(Act kind, float leaky_slope = 0.1f);

    Tensor forward(const Tensor& x) override;
    Tensor backward(const Tensor& grad_out) override;
    [[nodiscard]] std::optional<Epilogue> as_epilogue() const override {
        return epilogue();
    }

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] Shape out_shape(const Shape& in) const override { return in; }
    [[nodiscard]] Act act_kind() const { return kind_; }
    [[nodiscard]] float leaky_slope() const { return slope_; }
    [[nodiscard]] std::string kind() const override { return "act"; }

private:
    [[nodiscard]] Epilogue epilogue() const;

    Act kind_;
    float slope_;
    Tensor input_;
};

}  // namespace sky::nn
