#include "nn/conv.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/gemm.hpp"
#include "core/scratch.hpp"
#include "core/thread_pool.hpp"

namespace sky::nn {
namespace {

// Per-thread lowering/packing scratch: forward() must be reentrant across
// threads on the same module (tests/tsan_smoke.cpp hammers exactly this).
thread_local core::PackedB tls_cols;
thread_local core::PackedA tls_weights;

}  // namespace

Conv2d::Conv2d(int in_ch, int out_ch, int k, int stride, int pad, bool bias, Rng& rng)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      k_(k),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_({out_ch, in_ch, k, k}),
      bias_({1, out_ch, 1, 1}),
      grad_weight_({out_ch, in_ch, k, k}),
      grad_bias_({1, out_ch, 1, 1}) {
    weight_.kaiming(rng, in_ch * k * k);
}

Shape Conv2d::out_shape(const Shape& in) const {
    const int oh = (in.h + 2 * pad_ - k_) / stride_ + 1;
    const int ow = (in.w + 2 * pad_ - k_) / stride_ + 1;
    return {in.n, out_ch_, oh, ow};
}

std::int64_t Conv2d::macs(const Shape& in) const {
    const Shape o = out_shape(in);
    return static_cast<std::int64_t>(o.n) * o.c * o.h * o.w * in_ch_ * k_ * k_;
}

std::int64_t Conv2d::param_count() const {
    return static_cast<std::int64_t>(out_ch_) * in_ch_ * k_ * k_ +
           (has_bias_ ? out_ch_ : 0);
}

std::string Conv2d::name() const {
    return "Conv" + std::to_string(k_) + "x" + std::to_string(k_) + "(" +
           std::to_string(in_ch_) + "->" + std::to_string(out_ch_) + ",s" +
           std::to_string(stride_) + ")";
}

void Conv2d::set_training(bool training) {
    Module::set_training(training);
    if (training)
        wpack_.clear();  // the optimizer is about to rewrite the weights
    else
        prepack();
}

void Conv2d::prepack() {
    if (training_) return;
    const int K = in_ch_ * k_ * k_;
    if (!wpack_.empty() && wpack_.mr == core::gemm_mr() && wpack_.K == K) return;
    core::pack_a(out_ch_, K, weight_.data(), /*trans=*/false, wpack_);
}

Tensor Conv2d::forward(const Tensor& x) {
    Tensor y;
    forward_fused(x, Epilogue{}, y);
    return y;
}

void Conv2d::forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) {
    if (x.shape().c != in_ch_)
        throw std::invalid_argument(name() + ": got input " + x.shape().str());
    if (training_) input_ = x;
    const Shape in = x.shape();
    const Shape os = out_shape(in);
    y.resize(os);  // the store-mode GEMM writes every element
    const int K = in_ch_ * k_ * k_;
    // Use the prepacked weight panels when valid for the active kernel;
    // otherwise pack into thread-local scratch (never into the shared member —
    // concurrent forwards on one module must not mutate shared state).
    const core::PackedA* wp = &wpack_;
    if (wpack_.empty() || wpack_.mr != core::gemm_mr() || wpack_.K != K) {
        core::pack_a(out_ch_, K, weight_.data(), /*trans=*/false, tls_weights);
        wp = &tls_weights;
    }
    const core::Epilogue store{has_bias_ ? bias_.data() : nullptr, ep.act, ep.slope};
    for (int n = 0; n < in.n; ++n) {
        core::im2col_packed(x.plane(n, 0), in.c, in.h, in.w, k_, stride_, pad_, os.h,
                            os.w, tls_cols);
        core::sgemm_packed(*wp, tls_cols, y.plane(n, 0), store);
    }
}

Tensor Conv2d::backward(const Tensor& grad_out) {
    if (input_.empty())
        throw std::logic_error(name() +
                               ": backward() without a cached input — call forward() in "
                               "training mode first");
    const Shape in = input_.shape();
    const Shape os = grad_out.shape();
    Tensor grad_in(in);
    const int K = in_ch_ * k_ * k_;
    const std::int64_t ocols = static_cast<std::int64_t>(os.h) * os.w;
    const std::size_t cols_sz =
        static_cast<std::size_t>(K) * static_cast<std::size_t>(ocols);
    std::vector<float>& col = core::tls_scratch(core::ScratchSlot::kIm2col, cols_sz);
    std::vector<float>& gcol = core::tls_scratch(core::ScratchSlot::kCol2im, cols_sz);
    for (int n = 0; n < in.n; ++n) {
        const float* gp = grad_out.plane(n, 0);
        if (has_bias_) {
            for (int oc = 0; oc < out_ch_; ++oc) {
                const float* row = gp + oc * ocols;
                double acc = 0.0;
                for (std::int64_t i = 0; i < ocols; ++i) acc += row[i];
                grad_bias_[oc] += static_cast<float>(acc);
            }
        }
        // grad_weight += grad_out * im2col(input)^T
        core::im2col(input_.plane(n, 0), in.c, in.h, in.w, k_, stride_, pad_, os.h, os.w,
                     col.data());
        core::sgemm_nt(out_ch_, K, static_cast<int>(ocols), gp, col.data(),
                       grad_weight_.data());
        // grad_in = col2im(W^T * grad_out)
        std::fill(gcol.begin(), gcol.begin() + static_cast<std::ptrdiff_t>(cols_sz),
                  0.0f);
        core::sgemm_tn(K, static_cast<int>(ocols), out_ch_, weight_.data(), gp,
                       gcol.data());
        core::col2im(gcol.data(), in.c, in.h, in.w, k_, stride_, pad_, os.h, os.w,
                     grad_in.plane(n, 0));
    }
    return grad_in;
}

void Conv2d::collect_params(std::vector<ParamRef>& out) {
    out.push_back({&weight_, &grad_weight_});
    if (has_bias_) out.push_back({&bias_, &grad_bias_});
}

}  // namespace sky::nn
