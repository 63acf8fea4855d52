#include "nn/pwconv.hpp"

#include <stdexcept>

#include "core/gemm.hpp"

namespace sky::nn {
namespace {

/// Validated before any member uses it (division in the initializer list).
int checked_groups(int groups, int in_ch, int out_ch) {
    if (groups < 1 || in_ch % groups != 0 || out_ch % groups != 0)
        throw std::invalid_argument("PWConv1: bad group count");
    return groups;
}

// Per-thread packing scratch so concurrent forwards on one module never
// share buffers (see nn/conv.cpp).
thread_local core::PackedB tls_cols;
thread_local core::PackedA tls_weights;

}  // namespace

PWConv1::PWConv1(int in_ch, int out_ch, bool bias, Rng& rng, int groups)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      groups_(checked_groups(groups, in_ch, out_ch)),
      has_bias_(bias),
      weight_({out_ch, in_ch / groups, 1, 1}),
      bias_({1, out_ch, 1, 1}),
      grad_weight_({out_ch, in_ch / groups, 1, 1}),
      grad_bias_({1, out_ch, 1, 1}) {
    weight_.kaiming(rng, in_ch / groups);
}

std::int64_t PWConv1::macs(const Shape& in) const {
    return static_cast<std::int64_t>(in.n) * in.h * in.w * (in_ch_ / groups_) * out_ch_;
}

std::int64_t PWConv1::param_count() const {
    return static_cast<std::int64_t>(out_ch_) * (in_ch_ / groups_) +
           (has_bias_ ? out_ch_ : 0);
}

std::string PWConv1::name() const {
    std::string s = "PW-Conv1(" + std::to_string(in_ch_) + "->" + std::to_string(out_ch_);
    if (groups_ > 1) s += ",g" + std::to_string(groups_);
    return s + ")";
}

void PWConv1::set_training(bool training) {
    Module::set_training(training);
    if (training)
        wpack_.clear();
    else
        prepack();
}

void PWConv1::prepack() {
    if (training_) return;
    const int ipg = in_ch_ / groups_;
    const int opg = out_ch_ / groups_;
    if (static_cast<int>(wpack_.size()) == groups_ && !wpack_[0].empty() &&
        wpack_[0].mr == core::gemm_mr() && wpack_[0].K == ipg)
        return;
    wpack_.assign(static_cast<std::size_t>(groups_), core::PackedA{});
    for (int g = 0; g < groups_; ++g)
        core::pack_a(opg, ipg, weight_.plane(g * opg, 0), /*trans=*/false, wpack_[g]);
}

Tensor PWConv1::forward(const Tensor& x) {
    Tensor y;
    forward_fused(x, Epilogue{}, y);
    return y;
}

void PWConv1::forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) {
    if (x.shape().c != in_ch_)
        throw std::invalid_argument(name() + ": got input " + x.shape().str());
    if (training_) input_ = x;
    const Shape s = x.shape();
    y.resize({s.n, out_ch_, s.h, s.w});  // the store below writes every element
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    const int ipg = in_ch_ / groups_;   // input channels per group
    const int opg = out_ch_ / groups_;  // output channels per group
    const bool packed = static_cast<int>(wpack_.size()) == groups_ &&
                        !wpack_[0].empty() && wpack_[0].mr == core::gemm_mr() &&
                        wpack_[0].K == ipg;
    // A 1x1 conv is one GEMM per (image, group): Y_g = act(b_g + W_g X_g)
    // with W_g opg x ipg and X_g ipg x H*W, stored straight from the tile.
    core::Epilogue store{nullptr, ep.act, ep.slope};
    for (int n = 0; n < s.n; ++n) {
        for (int g = 0; g < groups_; ++g) {
            core::pack_b(ipg, static_cast<int>(plane), x.plane(n, g * ipg),
                         /*trans=*/false, tls_cols);
            const core::PackedA* wp;
            if (packed) {
                wp = &wpack_[g];
            } else {
                core::pack_a(opg, ipg, weight_.plane(g * opg, 0), /*trans=*/false,
                             tls_weights);
                wp = &tls_weights;
            }
            store.bias = has_bias_ ? bias_.data() + g * opg : nullptr;
            core::sgemm_packed(*wp, tls_cols, y.plane(n, g * opg), store);
        }
    }
}

Tensor PWConv1::backward(const Tensor& grad_out) {
    if (input_.empty())
        throw std::logic_error(name() +
                               ": backward() without a cached input — call forward() in "
                               "training mode first");
    const Shape s = input_.shape();
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    const int ipg = in_ch_ / groups_;
    const int opg = out_ch_ / groups_;
    Tensor grad_in(s);
    for (int n = 0; n < s.n; ++n) {
        if (has_bias_) {
            for (int oc = 0; oc < out_ch_; ++oc) {
                const float* gp = grad_out.plane(n, oc);
                double acc = 0.0;
                for (std::int64_t i = 0; i < plane; ++i) acc += gp[i];
                grad_bias_[oc] += static_cast<float>(acc);
            }
        }
        for (int g = 0; g < groups_; ++g) {
            const float* gp = grad_out.plane(n, g * opg);
            // grad_W_g += G_g (opg x H*W) * X_g^T
            core::sgemm_nt(opg, ipg, static_cast<int>(plane), gp,
                           input_.plane(n, g * ipg), grad_weight_.plane(g * opg, 0));
            // grad_X_g = W_g^T * G_g
            core::sgemm_tn(ipg, static_cast<int>(plane), opg,
                           weight_.plane(g * opg, 0), gp, grad_in.plane(n, g * ipg));
        }
    }
    return grad_in;
}

void PWConv1::collect_params(std::vector<ParamRef>& out) {
    out.push_back({&weight_, &grad_weight_});
    if (has_bias_) out.push_back({&bias_, &grad_bias_});
}

}  // namespace sky::nn
