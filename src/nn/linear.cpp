#include "nn/linear.hpp"

#include <algorithm>

#include "core/scratch.hpp"
#include "core/thread_pool.hpp"

namespace sky::nn {
namespace {

thread_local core::PackedB tls_cols;

}  // namespace

Linear::Linear(int in_features, int out_features, Rng& rng)
    : ConvLayer({.in_ch = in_features, .out_ch = out_features, .flatten = true},
                /*bias=*/true, rng) {}

std::string Linear::name() const {
    return "Linear(" + std::to_string(spec().in_ch) + "->" + std::to_string(spec().out_ch) +
           ")";
}

Tensor Linear::forward(const Tensor& x) {
    check_input(x);
    const int in = spec().in_ch;
    const int out = spec().out_ch;
    Tensor flat = x.reshaped({x.shape().n, in, 1, 1});
    if (training_) {
        input_ = flat;
        in_shape_ = x.shape();
    }
    const int n = flat.shape().n;
    Tensor y({n, out, 1, 1});
    if (!training_) {
        // Eval: Y^T (out x n) = W (out x in) * X^T through the packed SIMD
        // GEMM.  X is stored n x in, so pack_b reads it transposed; the
        // out x n product lands in scratch and transposes into y with bias.
        const core::PackedA& w = packed_weights()[0];
        core::pack_b(in, n, flat.data(), /*trans=*/true, tls_cols);
        const std::size_t tmp_sz =
            static_cast<std::size_t>(out) * static_cast<std::size_t>(n);
        std::vector<float>& tmp = core::tls_scratch(core::ScratchSlot::kLayerTmp, tmp_sz);
        std::fill(tmp.begin(), tmp.begin() + static_cast<std::ptrdiff_t>(tmp_sz), 0.0f);
        core::sgemm_packed(w, tls_cols, tmp.data());
        for (int b = 0; b < n; ++b) {
            float* yp = y.plane(b, 0);
            for (int o = 0; o < out; ++o)
                yp[o] = bias_[o] + tmp[static_cast<std::size_t>(o) * n + b];
        }
        return y;
    }
    // Training: each y[b][o] is one sequential double-precision dot product,
    // identical to the seed kernel for any thread count (the optimizer and
    // gradient-check tests rely on this accuracy).
    core::parallel_for(0, out, 8, [&](std::int64_t o0, std::int64_t o1) {
        for (int o = static_cast<int>(o0); o < static_cast<int>(o1); ++o) {
            const float* wrow = weight_.plane(o, 0);
            for (int b = 0; b < n; ++b) {
                const float* xp = flat.plane(b, 0);
                double acc = bias_[o];
                for (int i = 0; i < in; ++i) acc += static_cast<double>(wrow[i]) * xp[i];
                y.plane(b, 0)[o] = static_cast<float>(acc);
            }
        }
    });
    return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
    check_cached_input();
    const int in = spec().in_ch;
    const int out = spec().out_ch;
    const int n = input_.shape().n;
    Tensor gi({n, in, 1, 1});
    // Two disjoint-output passes: per-batch-row input gradients, then
    // per-feature weight/bias gradients (batch accumulation stays ascending,
    // matching the seed order).
    core::parallel_for(0, n, 1, [&](std::int64_t b0, std::int64_t b1) {
        for (int b = static_cast<int>(b0); b < static_cast<int>(b1); ++b) {
            const float* gp = grad_out.plane(b, 0);
            float* gxp = gi.plane(b, 0);
            for (int o = 0; o < out; ++o) {
                const float g = gp[o];
                const float* wrow = weight_.plane(o, 0);
                for (int i = 0; i < in; ++i) gxp[i] += g * wrow[i];
            }
        }
    });
    core::parallel_for(0, out, 8, [&](std::int64_t o0, std::int64_t o1) {
        for (int o = static_cast<int>(o0); o < static_cast<int>(o1); ++o) {
            float* gwrow = grad_weight_.plane(o, 0);
            for (int b = 0; b < n; ++b) {
                const float g = grad_out.plane(b, 0)[o];
                grad_bias_[o] += g;
                const float* xp = input_.plane(b, 0);
                for (int i = 0; i < in; ++i) gwrow[i] += g * xp[i];
            }
        }
    });
    return gi.reshaped(in_shape_);
}

}  // namespace sky::nn
