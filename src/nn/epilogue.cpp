#include "nn/epilogue.hpp"

#include "core/thread_pool.hpp"
#include "nn/module.hpp"

namespace sky::nn {
namespace {

template <EpilogueAct A>
void apply_plane(float slope, float* p, std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) p[i] = activate<A>(p[i], slope);
}

template <EpilogueAct A>
void affine_plane(float slope, float scale, float shift, const float* x, float* y,
                  std::int64_t n) {
    for (std::int64_t i = 0; i < n; ++i) y[i] = activate<A>(affine(x[i], scale, shift), slope);
}

}  // namespace

void apply_epilogue(const Epilogue& ep, float* p, std::int64_t n) {
    switch (ep.act) {
        case EpilogueAct::kNone: break;
        case EpilogueAct::kReLU: apply_plane<EpilogueAct::kReLU>(ep.slope, p, n); break;
        case EpilogueAct::kReLU6: apply_plane<EpilogueAct::kReLU6>(ep.slope, p, n); break;
        case EpilogueAct::kLeaky: apply_plane<EpilogueAct::kLeaky>(ep.slope, p, n); break;
        case EpilogueAct::kSigmoid: apply_plane<EpilogueAct::kSigmoid>(ep.slope, p, n); break;
    }
}

void apply_epilogue(const Epilogue& ep, float scale, float shift, const float* x, float* y,
                    std::int64_t n) {
    using A = EpilogueAct;
    const float s = ep.slope;
    switch (ep.act) {
        case A::kNone: affine_plane<A::kNone>(s, scale, shift, x, y, n); break;
        case A::kReLU: affine_plane<A::kReLU>(s, scale, shift, x, y, n); break;
        case A::kReLU6: affine_plane<A::kReLU6>(s, scale, shift, x, y, n); break;
        case A::kLeaky: affine_plane<A::kLeaky>(s, scale, shift, x, y, n); break;
        case A::kSigmoid: affine_plane<A::kSigmoid>(s, scale, shift, x, y, n); break;
    }
}

void apply_epilogue(const Epilogue& ep, Tensor& y) {
    if (ep.empty()) return;
    const Shape s = y.shape();
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    // Planes are disjoint, so the result is thread-count invariant.
    core::parallel_for(0, static_cast<std::int64_t>(s.n) * s.c, 1,
                       [&](std::int64_t p0, std::int64_t p1) {
                           for (std::int64_t p = p0; p < p1; ++p)
                               apply_epilogue(ep, y.data() + p * plane, plane);
                       });
}

void Module::forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) {
    y = forward(x);
    apply_epilogue(ep, y);
}

}  // namespace sky::nn
