#include "nn/pooling.hpp"

#include <stdexcept>

#include "core/thread_pool.hpp"

namespace sky::nn {

Tensor MaxPool2::forward(const Tensor& x) {
    Tensor y;
    forward_fused(x, Epilogue{}, y);
    return y;
}

void MaxPool2::forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) {
    const Shape s = x.shape();
    const Shape os = out_shape(s);
    y.resize(os);  // the scan below writes every element
    // Only a training forward records the argmax backward() routes through;
    // an eval forward writes no member, so it neither arms backward nor
    // races a concurrent forward.
    std::int32_t* argmax = nullptr;
    if (training_) {
        in_shape_ = s;
        argmax_.resize(static_cast<std::size_t>(os.count()));
        argmax = argmax_.data();
    }
    const std::int64_t oplane = static_cast<std::int64_t>(os.h) * os.w;
    // Each (n, c) plane pools independently; the argmax_ block for plane p
    // starts at p * oplane, matching the sequential fill order of the seed.
    core::parallel_for(
        0, static_cast<std::int64_t>(s.n) * s.c, 1,
        [&](std::int64_t p0, std::int64_t p1) {
            for (std::int64_t p = p0; p < p1; ++p) {
                const int n = static_cast<int>(p / s.c);
                const int c = static_cast<int>(p % s.c);
                const float* xp = x.plane(n, c);
                float* yp = y.plane(n, c);
                std::int64_t oi = p * oplane;
                for (int oh = 0; oh < os.h; ++oh) {
                    for (int ow = 0; ow < os.w; ++ow) {
                        const int ih = oh * 2, iw = ow * 2;
                        std::int64_t best = static_cast<std::int64_t>(ih) * s.w + iw;
                        float bv = xp[best];
                        const std::int64_t cand[3] = {best + 1, best + s.w,
                                                      best + s.w + 1};
                        for (std::int64_t idx : cand) {
                            // 2x2 window fully in-bounds because os = floor(in/2).
                            // Strict >: the first of equal values (-0.0 == +0.0)
                            // stays, and a later NaN never wins.
                            if (xp[idx] > bv) {
                                bv = xp[idx];
                                best = idx;
                            }
                        }
                        yp[static_cast<std::int64_t>(oh) * os.w + ow] = bv;
                        if (argmax != nullptr) argmax[oi++] = static_cast<std::int32_t>(best);
                    }
                }
                apply_epilogue(ep, yp, oplane);
            }
        });
}

Tensor MaxPool2::backward(const Tensor& grad_out) {
    if (argmax_.empty())
        throw std::logic_error(name() +
                               ": backward() without a training forward — call forward() "
                               "in training mode first");
    const Shape os = grad_out.shape();
    if (os != out_shape(in_shape_))
        throw std::logic_error(name() + ": backward() got " + os.str() +
                               ", the training forward produced " +
                               out_shape(in_shape_).str());
    Tensor gi(in_shape_);
    const std::int64_t oplane = static_cast<std::int64_t>(os.h) * os.w;
    core::parallel_for(
        0, static_cast<std::int64_t>(os.n) * os.c, 1,
        [&](std::int64_t p0, std::int64_t p1) {
            for (std::int64_t p = p0; p < p1; ++p) {
                const int n = static_cast<int>(p / os.c);
                const int c = static_cast<int>(p % os.c);
                const float* gp = grad_out.plane(n, c);
                float* gxp = gi.plane(n, c);
                std::int64_t oi = p * oplane;
                for (std::int64_t i = 0; i < oplane; ++i)
                    gxp[argmax_[static_cast<std::size_t>(oi++)]] += gp[i];
            }
        });
    return gi;
}

Tensor GlobalAvgPool::forward(const Tensor& x) {
    const Shape s = x.shape();
    in_shape_ = s;
    Tensor y({s.n, s.c, 1, 1});
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    core::parallel_for(
        0, static_cast<std::int64_t>(s.n) * s.c, 4,
        [&](std::int64_t p0, std::int64_t p1) {
            for (std::int64_t p = p0; p < p1; ++p) {
                const int n = static_cast<int>(p / s.c);
                const int c = static_cast<int>(p % s.c);
                const float* xp = x.plane(n, c);
                double acc = 0.0;
                for (std::int64_t i = 0; i < plane; ++i) acc += xp[i];
                y.at(n, c, 0, 0) = static_cast<float>(acc / static_cast<double>(plane));
            }
        });
    return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
    Tensor gi(in_shape_);
    const std::int64_t plane = static_cast<std::int64_t>(in_shape_.h) * in_shape_.w;
    const float inv = 1.0f / static_cast<float>(plane);
    core::parallel_for(
        0, static_cast<std::int64_t>(in_shape_.n) * in_shape_.c, 4,
        [&](std::int64_t p0, std::int64_t p1) {
            for (std::int64_t p = p0; p < p1; ++p) {
                const int n = static_cast<int>(p / in_shape_.c);
                const int c = static_cast<int>(p % in_shape_.c);
                const float g = grad_out.at(n, c, 0, 0) * inv;
                float* gxp = gi.plane(n, c);
                for (std::int64_t i = 0; i < plane; ++i) gxp[i] = g;
            }
        });
    return gi;
}

}  // namespace sky::nn
