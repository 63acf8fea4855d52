#include "nn/conv.hpp"

#include <algorithm>
#include <vector>

#include "core/gemm.hpp"

namespace sky::nn {
namespace {

// Per-thread lowering scratch: forward() must be reentrant across threads on
// the same module (tests/tsan_smoke.cpp hammers exactly this).  The backward
// keeps its im2col(input) and W^T * grad_out columns beside it.
thread_local core::PackedB tls_cols;
thread_local std::vector<float> tls_col;
thread_local std::vector<float> tls_gcol;

}  // namespace

Conv2d::Conv2d(int in_ch, int out_ch, int k, int stride, int pad, bool bias, Rng& rng)
    : ConvLayer({.in_ch = in_ch, .out_ch = out_ch, .k = k, .stride = stride, .pad = pad},
                bias, rng) {}

std::string Conv2d::name() const {
    const ConvSpec& s = spec();
    return "Conv" + std::to_string(s.k) + "x" + std::to_string(s.k) + "(" +
           std::to_string(s.in_ch) + "->" + std::to_string(s.out_ch) + ",s" +
           std::to_string(s.stride) + ")";
}

void Conv2d::forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) {
    check_input(x);
    if (training_) input_ = x;
    const ConvSpec& s = spec();
    const Shape in = x.shape();
    const Shape os = out_shape(in);
    y.resize(os);  // the store-mode GEMM writes every element
    const core::PackedA& w = packed_weights()[0];
    const core::Epilogue store{has_bias() ? bias_.data() : nullptr, ep.act, ep.slope};
    for (int n = 0; n < in.n; ++n) {
        core::im2col_packed(x.plane(n, 0), in.c, in.h, in.w, s.k, s.stride, s.pad, os.h,
                            os.w, tls_cols);
        core::sgemm_packed(w, tls_cols, y.plane(n, 0), store);
    }
}

Tensor Conv2d::backward(const Tensor& grad_out) {
    check_cached_input();
    const ConvSpec& s = spec();
    const Shape in = input_.shape();
    const Shape os = grad_out.shape();
    Tensor grad_in(in);
    const int K = static_cast<int>(weight_.shape().per_item());
    const std::int64_t ocols = static_cast<std::int64_t>(os.h) * os.w;
    const std::size_t cols_sz =
        static_cast<std::size_t>(K) * static_cast<std::size_t>(ocols);
    if (tls_col.size() < cols_sz) tls_col.resize(cols_sz);
    if (tls_gcol.size() < cols_sz) tls_gcol.resize(cols_sz);
    accumulate_bias_grad(grad_out);
    for (int n = 0; n < in.n; ++n) {
        const float* gp = grad_out.plane(n, 0);
        // grad_weight += grad_out * im2col(input)^T
        core::im2col(input_.plane(n, 0), in.c, in.h, in.w, s.k, s.stride, s.pad, os.h,
                     os.w, tls_col.data());
        core::sgemm_nt(s.out_ch, K, static_cast<int>(ocols), gp, tls_col.data(),
                       grad_weight_.data());
        // grad_in = col2im(W^T * grad_out)
        std::fill(tls_gcol.begin(), tls_gcol.begin() + static_cast<std::ptrdiff_t>(cols_sz),
                  0.0f);
        core::sgemm_tn(K, static_cast<int>(ocols), s.out_ch, weight_.data(), gp,
                       tls_gcol.data());
        core::col2im(tls_gcol.data(), in.c, in.h, in.w, s.k, s.stride, s.pad, os.h, os.w,
                     grad_in.plane(n, 0));
    }
    return grad_in;
}

}  // namespace sky::nn
