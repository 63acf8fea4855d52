#include "nn/pwconv.hpp"

#include <stdexcept>

#include "core/gemm.hpp"

namespace sky::nn {
namespace {

/// Validated before ConvLayer divides by the group count.
ConvSpec pw_spec(int in_ch, int out_ch, int groups) {
    if (groups < 1 || in_ch % groups != 0 || out_ch % groups != 0)
        throw std::invalid_argument("PWConv1: bad group count");
    return {.in_ch = in_ch, .out_ch = out_ch, .groups = groups};
}

// Per-thread packing scratch so concurrent forwards on one module never
// share buffers (see nn/conv.cpp).
thread_local core::PackedB tls_cols;

}  // namespace

PWConv1::PWConv1(int in_ch, int out_ch, bool bias, Rng& rng, int groups)
    : ConvLayer(pw_spec(in_ch, out_ch, groups), bias, rng) {}

std::string PWConv1::name() const {
    const ConvSpec& s = spec();
    std::string n = "PW-Conv1(" + std::to_string(s.in_ch) + "->" + std::to_string(s.out_ch);
    if (s.groups > 1) n += ",g" + std::to_string(s.groups);
    return n + ")";
}

void PWConv1::forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) {
    check_input(x);
    if (training_) input_ = x;
    const ConvSpec& sp = spec();
    const Shape s = x.shape();
    y.resize(out_shape(s));  // the store below writes every element
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    const int ipg = sp.in_ch / sp.groups;   // input channels per group
    const int opg = sp.out_ch / sp.groups;  // output channels per group
    // A 1x1 conv is one GEMM per (image, group): Y_g = act(b_g + W_g X_g)
    // with W_g opg x ipg and X_g ipg x H*W, stored straight from the tile.
    core::Epilogue store{nullptr, ep.act, ep.slope};
    for (int n = 0; n < s.n; ++n) {
        for (int g = 0; g < sp.groups; ++g) {
            core::pack_b(ipg, static_cast<int>(plane), x.plane(n, g * ipg),
                         /*trans=*/false, tls_cols);
            store.bias = has_bias() ? bias_.data() + g * opg : nullptr;
            core::sgemm_packed(packed_weights(g), tls_cols, y.plane(n, g * opg), store);
        }
    }
}

Tensor PWConv1::backward(const Tensor& grad_out) {
    check_cached_input();
    const ConvSpec& sp = spec();
    const Shape s = input_.shape();
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    const int ipg = sp.in_ch / sp.groups;
    const int opg = sp.out_ch / sp.groups;
    Tensor grad_in(s);
    accumulate_bias_grad(grad_out);
    for (int n = 0; n < s.n; ++n) {
        for (int g = 0; g < sp.groups; ++g) {
            const float* gp = grad_out.plane(n, g * opg);
            // grad_W_g += G_g (opg x H*W) * X_g^T
            core::sgemm_nt(opg, ipg, static_cast<int>(plane), gp,
                           input_.plane(n, g * ipg), grad_weight_.plane(g * opg, 0));
            // grad_X_g = W_g^T * G_g
            core::sgemm_tn(ipg, static_cast<int>(plane), opg,
                           weight_.plane(g * opg, 0), gp, grad_in.plane(n, g * ipg));
        }
    }
    return grad_in;
}

}  // namespace sky::nn
