#include "nn/dwconv.hpp"

#include "core/dwconv.hpp"
#include "core/thread_pool.hpp"

namespace sky::nn {

DWConv3::DWConv3(int channels, Rng& rng)
    : ConvLayer(
          {.in_ch = channels, .out_ch = channels, .k = 3, .pad = 1, .groups = channels},
          /*bias=*/false, rng) {}

std::string DWConv3::name() const {
    return "DW-Conv3(" + std::to_string(spec().in_ch) + ")";
}

void DWConv3::forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) {
    check_input(x);
    if (training_) input_ = x;
    const Shape s = x.shape();
    y.resize(s);
    // Each (n, c) plane is an independent 3x3 convolution; parallelise over
    // the flattened plane index (disjoint outputs, thread-count invariant).
    // The kernel writes every element of a plane with its bias and `ep`'s
    // affine and activation applied.
    const float* bias = has_bias() ? bias_.data() : nullptr;
    core::parallel_for(
        0, static_cast<std::int64_t>(s.n) * s.c, 1,
        [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
            const int n = static_cast<int>(p / s.c);
            const int c = static_cast<int>(p % s.c);
            core::dwconv3x3(x.plane(n, c), weight_.plane(c, 0), s.h, s.w, ep.store(bias, c),
                            y.plane(n, c));
        }
        });
}

Tensor DWConv3::backward(const Tensor& grad_out) {
    check_cached_input();
    const Shape s = input_.shape();
    Tensor grad_in(s);
    accumulate_bias_grad(grad_out);
    // Parallelise over channels only: grad_weight_[c] accumulates across the
    // batch, so one chunk owns each channel (batch loop stays sequential and
    // the accumulation order matches the seed kernel exactly).
    core::parallel_for(0, s.c, 1, [&](std::int64_t c0, std::int64_t c1) {
        for (int c = static_cast<int>(c0); c < static_cast<int>(c1); ++c) {
        for (int n = 0; n < s.n; ++n) {
            const float* xp = input_.plane(n, c);
            const float* gp = grad_out.plane(n, c);
            float* gxp = grad_in.plane(n, c);
            const float* w = weight_.plane(c, 0);
            float* gw = grad_weight_.plane(c, 0);
            for (int oh = 0; oh < s.h; ++oh) {
                const float* grow = gp + static_cast<std::int64_t>(oh) * s.w;
                for (int kh = 0; kh < 3; ++kh) {
                    const int ih = oh - 1 + kh;
                    if (ih < 0 || ih >= s.h) continue;
                    const float* xrow = xp + static_cast<std::int64_t>(ih) * s.w;
                    float* gxrow = gxp + static_cast<std::int64_t>(ih) * s.w;
                    for (int kw = 0; kw < 3; ++kw) {
                        const float wv = w[kh * 3 + kw];
                        double wacc = 0.0;
                        for (int ow = 0; ow < s.w; ++ow) {
                            const int iw = ow - 1 + kw;
                            if (iw < 0 || iw >= s.w) continue;
                            const float g = grow[ow];
                            wacc += static_cast<double>(g) * xrow[iw];
                            gxrow[iw] += wv * g;
                        }
                        gw[kh * 3 + kw] += static_cast<float>(wacc);
                    }
                }
            }
        }
        }
    });
    return grad_in;
}

}  // namespace sky::nn
