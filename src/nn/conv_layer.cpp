#include "nn/conv_layer.hpp"

#include <stdexcept>

#include "core/thread_pool.hpp"

namespace sky::nn {
namespace {

// Weight panels of a forward that finds no valid pack.  Per thread, because
// forward() must be reentrant across threads on one layer
// (tests/tsan_smoke.cpp hammers exactly this).
thread_local std::vector<core::PackedA> tls_weights;

}  // namespace

ConvLayer::ConvLayer(const ConvSpec& spec, bool bias, Rng& rng)
    : weight_({spec.out_ch, spec.in_ch / spec.groups, spec.k, spec.k}),
      bias_({1, spec.out_ch, 1, 1}),
      grad_weight_({spec.out_ch, spec.in_ch / spec.groups, spec.k, spec.k}),
      grad_bias_({1, spec.out_ch, 1, 1}),
      spec_(spec),
      has_bias_(bias) {
    weight_.kaiming(rng, spec.in_ch / spec.groups * spec.k * spec.k);
}

Tensor ConvLayer::forward(const Tensor& x) {
    Tensor y;
    forward_fused(x, Epilogue{}, y);
    return y;
}

void ConvLayer::collect_params(std::vector<ParamRef>& out) {
    wpack_.clear();
    out.push_back({&weight_, &grad_weight_});
    if (has_bias_) out.push_back({&bias_, &grad_bias_});
}

bool ConvLayer::pack_valid() const {
    return static_cast<int>(wpack_.size()) == spec_.groups &&
           wpack_[0].mr == core::gemm_mr();
}

void ConvLayer::set_training(bool training) {
    Module::set_training(training);
    if (training) {
        wpack_.clear();
        return;
    }
    if (spec_.depthwise() || pack_valid()) return;
    pack_groups(wpack_);
}

void ConvLayer::pack_groups(std::vector<core::PackedA>& out) const {
    const int rows = spec_.out_ch / spec_.groups;
    const int K = static_cast<int>(weight_.shape().per_item());
    out.resize(static_cast<std::size_t>(spec_.groups));
    for (int g = 0; g < spec_.groups; ++g)
        core::pack_a(rows, K, weight_.plane(g * rows, 0), /*trans=*/false,
                     out[static_cast<std::size_t>(g)]);
}

const std::vector<core::PackedA>& ConvLayer::packed_weights() const {
    if (pack_valid()) return wpack_;
    pack_groups(tls_weights);
    return tls_weights;
}

void ConvLayer::check_input(const Tensor& x) const {
    const Shape& s = x.shape();
    if ((spec_.flatten ? s.per_item() : s.c) != spec_.in_ch)
        throw std::invalid_argument(name() + ": got input " + s.str());
}

void ConvLayer::check_cached_input() const {
    if (input_.empty())
        throw std::logic_error(name() +
                               ": backward() without a cached input — call forward() in "
                               "training mode first");
}

void ConvLayer::accumulate_bias_grad(const Tensor& grad_out) {
    if (!has_bias_) return;
    const Shape s = grad_out.shape();
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    core::parallel_for(0, s.c, 1, [&](std::int64_t c0, std::int64_t c1) {
        for (int c = static_cast<int>(c0); c < static_cast<int>(c1); ++c)
            for (int n = 0; n < s.n; ++n) {
                const float* gp = grad_out.plane(n, c);
                double acc = 0.0;
                for (std::int64_t i = 0; i < plane; ++i) acc += gp[i];
                grad_bias_[c] += static_cast<float>(acc);
            }
    });
}

Shape ConvLayer::out_shape(const Shape& in) const {
    if (spec_.flatten) return {in.n, spec_.out_ch, 1, 1};
    return {in.n, spec_.out_ch, (in.h + 2 * spec_.pad - spec_.k) / spec_.stride + 1,
            (in.w + 2 * spec_.pad - spec_.k) / spec_.stride + 1};
}

std::int64_t ConvLayer::macs(const Shape& in) const {
    return out_shape(in).count() * weight_.shape().per_item();
}

std::int64_t ConvLayer::param_count() const {
    return weight_.size() + (has_bias_ ? bias_.size() : 0);
}

}  // namespace sky::nn
