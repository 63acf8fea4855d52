#include "nn/dwconv.hpp"

#include <stdexcept>

#include "core/dwconv.hpp"
#include "core/thread_pool.hpp"

namespace sky::nn {

DWConv3::DWConv3(int channels, Rng& rng)
    : channels_(channels),
      weight_({channels, 1, 3, 3}),
      bias_({1, channels, 1, 1}),
      grad_weight_({channels, 1, 3, 3}),
      grad_bias_({1, channels, 1, 1}) {
    weight_.kaiming(rng, 9);
}

std::int64_t DWConv3::macs(const Shape& in) const {
    return static_cast<std::int64_t>(in.n) * in.c * in.h * in.w * 9;
}

std::int64_t DWConv3::param_count() const {
    return static_cast<std::int64_t>(channels_) * (has_bias_ ? 10 : 9);
}

std::string DWConv3::name() const { return "DW-Conv3(" + std::to_string(channels_) + ")"; }

Tensor DWConv3::forward(const Tensor& x) {
    Tensor y;
    forward_fused(x, Epilogue{}, y);
    return y;
}

void DWConv3::forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) {
    if (x.shape().c != channels_)
        throw std::invalid_argument(name() + ": got input " + x.shape().str());
    if (training_) input_ = x;
    const Shape s = x.shape();
    y.resize(s);
    // Each (n, c) plane is an independent 3x3 convolution; parallelise over
    // the flattened plane index (disjoint outputs, thread-count invariant).
    // The kernel writes every element of a plane with its bias and `ep`
    // applied.
    core::parallel_for(
        0, static_cast<std::int64_t>(s.n) * channels_, 1,
        [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
            const int n = static_cast<int>(p / channels_);
            const int c = static_cast<int>(p % channels_);
            const core::Epilogue plane_ep{has_bias_ ? bias_.data() + c : nullptr, ep.act,
                                          ep.slope};
            core::dwconv3x3(x.plane(n, c), weight_.plane(c, 0), s.h, s.w, plane_ep,
                            y.plane(n, c));
        }
        });
}

Tensor DWConv3::backward(const Tensor& grad_out) {
    if (input_.empty())
        throw std::logic_error(name() +
                               ": backward() without a cached input — call forward() in "
                               "training mode first");
    const Shape s = input_.shape();
    Tensor grad_in(s);
    // Parallelise over channels only: grad_weight_[c] accumulates across the
    // batch, so one chunk owns each channel (batch loop stays sequential and
    // the accumulation order matches the seed kernel exactly).
    core::parallel_for(0, channels_, 1, [&](std::int64_t c0, std::int64_t c1) {
        for (int c = static_cast<int>(c0); c < static_cast<int>(c1); ++c) {
        for (int n = 0; n < s.n; ++n) {
            const float* xp = input_.plane(n, c);
            const float* gp = grad_out.plane(n, c);
            float* gxp = grad_in.plane(n, c);
            const float* w = weight_.plane(c, 0);
            float* gw = grad_weight_.plane(c, 0);
            if (has_bias_) {
                double bacc = 0.0;
                for (std::int64_t i = 0; i < static_cast<std::int64_t>(s.h) * s.w; ++i)
                    bacc += gp[i];
                grad_bias_[c] += static_cast<float>(bacc);
            }
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

void DWConv3::collect_params(std::vector<ParamRef>& out) {
    out.push_back({&weight_, &grad_weight_});
    if (has_bias_) out.push_back({&bias_, &grad_bias_});
}

}  // namespace sky::nn
