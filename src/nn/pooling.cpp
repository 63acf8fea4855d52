#include "nn/pooling.hpp"

#include "core/maxpool.hpp"
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
    y.resize(os);  // both paths below write every element
    const std::int64_t planes = static_cast<std::int64_t>(s.n) * s.c;
    const std::int64_t iplane = static_cast<std::int64_t>(s.h) * s.w;
    const std::int64_t oplane = static_cast<std::int64_t>(os.h) * os.w;
    // Each (n, c) plane pools independently, so results are thread-count
    // invariant.  An eval forward runs the vector kernel, which applies `ep`
    // at its store and writes no member, so it neither arms backward nor
    // races a concurrent forward.
    if (!training_) {
        core::parallel_for(0, planes, 1, [&](std::int64_t p0, std::int64_t p1) {
            for (std::int64_t p = p0; p < p1; ++p)
                core::maxpool2x2(x.data() + p * iplane, s.h, s.w, ep.act, ep.slope,
                                 y.data() + p * oplane);
        });
        return;
    }
    // Training records the argmax backward() routes through: the same scan,
    // with the winner's index.  The argmax_ block for plane p starts at
    // p * oplane, matching the sequential fill order of the seed.
    in_shape_ = s;
    argmax_.resize(static_cast<std::size_t>(os.count()));
    std::int32_t* argmax = argmax_.data();
    core::parallel_for(0, planes, 1, [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
            const float* xp = x.data() + p * iplane;
            float* yp = y.data() + p * oplane;
            std::int64_t oi = p * oplane;
            for (int oh = 0; oh < os.h; ++oh) {
                for (int ow = 0; ow < os.w; ++ow) {
                    const int ih = oh * 2, iw = ow * 2;
                    std::int64_t best = static_cast<std::int64_t>(ih) * s.w + iw;
                    float bv = xp[best];
                    const std::int64_t cand[3] = {best + 1, best + s.w, best + s.w + 1};
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
                    argmax[oi++] = static_cast<std::int32_t>(best);
                }
            }
            apply_epilogue(ep, yp, oplane);
        }
    });
}

Tensor MaxPool2::backward(const Tensor& grad_out) {
    const Shape in = recorded_input(in_shape_, grad_out.shape());
    const Shape os = grad_out.shape();
    Tensor gi(in);
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
    if (training_) in_shape_ = s;  // an eval forward writes no member
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
    const Shape in = recorded_input(in_shape_, grad_out.shape());
    Tensor gi(in);
    const std::int64_t plane = static_cast<std::int64_t>(in.h) * in.w;
    const float inv = 1.0f / static_cast<float>(plane);
    core::parallel_for(
        0, static_cast<std::int64_t>(in.n) * in.c, 4,
        [&](std::int64_t p0, std::int64_t p1) {
            for (std::int64_t p = p0; p < p1; ++p) {
                const int n = static_cast<int>(p / in.c);
                const int c = static_cast<int>(p % in.c);
                const float g = grad_out.at(n, c, 0, 0) * inv;
                float* gxp = gi.plane(n, c);
                for (std::int64_t i = 0; i < plane; ++i) gxp[i] = g;
            }
        });
    return gi;
}

}  // namespace sky::nn
