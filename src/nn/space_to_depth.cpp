#include "nn/space_to_depth.hpp"

#include <stdexcept>

#include "core/thread_pool.hpp"

namespace sky::nn {

std::string SpaceToDepth::name() const {
    return "FMReorder(b=" + std::to_string(block_) + ")";
}

Tensor SpaceToDepth::forward(const Tensor& x) {
    Tensor y;
    forward_fused(x, Epilogue{}, y);
    return y;
}

void SpaceToDepth::forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) {
    const Shape s = x.shape();
    if (s.h % block_ != 0 || s.w % block_ != 0)
        throw std::invalid_argument(name() + ": input " + s.str() +
                                    " not divisible by block");
    if (training_) in_shape_ = s;  // an eval forward writes no member
    const Shape os = out_shape(s);
    y.resize(os);  // the block copy below writes every element
    const int b = block_;
    const std::int64_t iplane = static_cast<std::int64_t>(s.h) * s.w;
    const std::int64_t oplane = static_cast<std::int64_t>(os.h) * os.w;
    // Input plane p = (n, c) fills the b*b consecutive output planes
    // p*b*b + dy*b + dx, so chunks write disjoint planes and apply `ep` to
    // them before they leave the chunk.
    core::parallel_for(
        0, static_cast<std::int64_t>(s.n) * s.c, 1, [&](std::int64_t p0, std::int64_t p1) {
            for (std::int64_t p = p0; p < p1; ++p) {
                const float* xp = x.data() + p * iplane;
                for (int dy = 0; dy < b; ++dy) {
                    for (int dx = 0; dx < b; ++dx) {
                        float* yp = y.data() + (p * b * b + dy * b + dx) * oplane;
                        for (int oh = 0; oh < os.h; ++oh) {
                            const float* xrow =
                                xp + static_cast<std::int64_t>(oh * b + dy) * s.w + dx;
                            float* yrow = yp + static_cast<std::int64_t>(oh) * os.w;
                            for (int ow = 0; ow < os.w; ++ow) yrow[ow] = xrow[ow * b];
                        }
                        apply_epilogue(ep, yp, oplane);
                    }
                }
            }
        });
}

Tensor SpaceToDepth::backward(const Tensor& grad_out) {
    const Shape in = recorded_input(in_shape_, grad_out.shape());
    const Shape os = grad_out.shape();
    Tensor gi(in);
    for (int n = 0; n < in.n; ++n) {
        for (int c = 0; c < in.c; ++c) {
            float* gxp = gi.plane(n, c);
            for (int dy = 0; dy < block_; ++dy) {
                for (int dx = 0; dx < block_; ++dx) {
                    const float* gp =
                        grad_out.plane(n, c * block_ * block_ + dy * block_ + dx);
                    for (int oh = 0; oh < os.h; ++oh) {
                        float* gxrow =
                            gxp + static_cast<std::int64_t>(oh * block_ + dy) * in.w + dx;
                        const float* grow = gp + static_cast<std::int64_t>(oh) * os.w;
                        for (int ow = 0; ow < os.w; ++ow) gxrow[ow * block_] = grow[ow];
                    }
                }
            }
        }
    }
    return gi;
}

}  // namespace sky::nn
