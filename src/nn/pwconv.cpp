#include "nn/pwconv.hpp"

#include <stdexcept>
#include <vector>

#include "core/gemm.hpp"
#include "core/maxpool.hpp"

namespace sky::nn {
namespace {

/// Validated before ConvLayer divides by the group count.
ConvSpec pw_spec(int in_ch, int out_ch, int groups) {
    if (groups < 1 || in_ch % groups != 0 || out_ch % groups != 0)
        throw std::invalid_argument("PWConv1: bad group count");
    return {.in_ch = in_ch, .out_ch = out_ch, .groups = groups};
}

// Per-thread scratch, so concurrent forwards on one module and the chunks
// of one forward never share a buffer: a band's B panels, and its pre-pool
// outputs when a pool is folded in.
thread_local core::PackedB tls_cols;
thread_local std::vector<float> tls_band;

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
    const Shape os = out_shape(s);
    // The walk below writes every element, of the pooled map when a pool is
    // folded in.
    y.resize(ep.pool ? Shape{os.n, os.c, os.h / 2, os.w / 2} : os);
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    const int groups = sp.groups;
    const int ipg = sp.in_ch / groups;  // input channels per group
    const int opg = sp.out_ch / groups;  // output channels per group
    const std::vector<core::PackedA>& w = packed_weights();
    const float* bias = has_bias() ? bias_.data() : nullptr;
    // Y_g = act(b_g + W_g X_g), with an affine act(s_g * (b_g + W_g X_g) +
    // t_g), for W_g opg x ipg and X_g ipg x H*W, one band of X_g's columns
    // per call.  Every output element is one k-loop of one register tile in
    // one chunk, so any band split and thread count give the same bits; the
    // pack and the GEMM run inline in the chunk.
    core::for_each_band(
        s.h, s.w, ep.pool, static_cast<std::int64_t>(s.n) * groups, [&](const core::Band& b) {
            const int n = static_cast<int>(b.plane / groups);
            const int g = static_cast<int>(b.plane % groups);
            core::pack_b(ipg, b.cols, x.plane(n, g * ipg) + b.c0, plane, /*trans=*/false,
                         tls_cols);
            const core::Epilogue store = ep.store(bias, g * opg);
            const core::PackedA& wg = w[static_cast<std::size_t>(g)];
            if (!ep.pool) {
                core::sgemm_packed(wg, tls_cols, y.plane(n, g * opg) + b.c0, plane, store);
                return;
            }
            const std::size_t need = static_cast<std::size_t>(opg) * b.cols;
            if (tls_band.size() < need) tls_band.resize(need);
            core::sgemm_packed(wg, tls_cols, tls_band.data(), b.cols, store);
            for (int oc = 0; oc < opg; ++oc)
                core::maxpool2x2(tls_band.data() + static_cast<std::int64_t>(oc) * b.cols,
                                 b.rows, s.w, core::EpilogueAct::kNone, 0.0f,
                                 y.plane(n, g * opg + oc) + b.out0);
        });
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
