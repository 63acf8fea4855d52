#include "nn/space_to_depth.hpp"

#include <stdexcept>

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
    in_shape_ = s;
    const Shape os = out_shape(s);
    y.resize(os);  // the block copy below writes every element
    for (int n = 0; n < s.n; ++n) {
        for (int c = 0; c < s.c; ++c) {
            const float* xp = x.plane(n, c);
            for (int dy = 0; dy < block_; ++dy) {
                for (int dx = 0; dx < block_; ++dx) {
                    float* yp = y.plane(n, c * block_ * block_ + dy * block_ + dx);
                    for (int oh = 0; oh < os.h; ++oh) {
                        const float* xrow =
                            xp + static_cast<std::int64_t>(oh * block_ + dy) * s.w + dx;
                        float* yrow = yp + static_cast<std::int64_t>(oh) * os.w;
                        for (int ow = 0; ow < os.w; ++ow) yrow[ow] = xrow[ow * block_];
                    }
                }
            }
        }
    }
    apply_epilogue(ep, y);
}

Tensor SpaceToDepth::backward(const Tensor& grad_out) {
    const Shape os = grad_out.shape();
    Tensor gi(in_shape_);
    for (int n = 0; n < in_shape_.n; ++n) {
        for (int c = 0; c < in_shape_.c; ++c) {
            float* gxp = gi.plane(n, c);
            for (int dy = 0; dy < block_; ++dy) {
                for (int dx = 0; dx < block_; ++dx) {
                    const float* gp =
                        grad_out.plane(n, c * block_ * block_ + dy * block_ + dx);
                    for (int oh = 0; oh < os.h; ++oh) {
                        float* gxrow = gxp +
                                       static_cast<std::int64_t>(oh * block_ + dy) *
                                           in_shape_.w +
                                       dx;
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
