#include "nn/activations.hpp"

namespace sky::nn {

const char* act_name(Act a) {
    switch (a) {
        case Act::kReLU: return "ReLU";
        case Act::kReLU6: return "ReLU6";
        case Act::kLeaky: return "LeakyReLU";
        case Act::kSigmoid: return "Sigmoid";
    }
    return "?";
}

Activation::Activation(Act kind, float leaky_slope) : kind_(kind), slope_(leaky_slope) {}

std::string Activation::name() const { return act_name(kind_); }

Epilogue Activation::epilogue() const {
    switch (kind_) {
        case Act::kReLU: return {EpilogueAct::kReLU, slope_};
        case Act::kReLU6: return {EpilogueAct::kReLU6, slope_};
        case Act::kLeaky: return {EpilogueAct::kLeaky, slope_};
        case Act::kSigmoid: return {EpilogueAct::kSigmoid, slope_};
    }
    return {};
}

Tensor Activation::forward(const Tensor& x) {
    if (training_) input_ = x;
    Tensor y = x;
    apply_epilogue(epilogue(), y);
    if (training_ && kind_ == Act::kSigmoid) input_ = y;  // sigmoid backward uses the output
    return y;
}

Tensor Activation::backward(const Tensor& grad_out) {
    Tensor gi(grad_out.shape());
    const float* xp = input_.data();
    const float* gp = grad_out.data();
    float* op = gi.data();
    const std::int64_t n = grad_out.size();
    switch (kind_) {
        case Act::kReLU:
            for (std::int64_t i = 0; i < n; ++i) op[i] = xp[i] > 0.0f ? gp[i] : 0.0f;
            break;
        case Act::kReLU6:
            for (std::int64_t i = 0; i < n; ++i)
                op[i] = (xp[i] > 0.0f && xp[i] < 6.0f) ? gp[i] : 0.0f;
            break;
        case Act::kLeaky:
            for (std::int64_t i = 0; i < n; ++i) op[i] = xp[i] > 0.0f ? gp[i] : slope_ * gp[i];
            break;
        case Act::kSigmoid:
            // input_ holds sigmoid(x)
            for (std::int64_t i = 0; i < n; ++i) op[i] = gp[i] * xp[i] * (1.0f - xp[i]);
            break;
    }
    return gi;
}

}  // namespace sky::nn
