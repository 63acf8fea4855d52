#include "deploy/fold_bn.hpp"

#include <stdexcept>

namespace sky::deploy {

void fold_into_conv(Tensor& weight, Tensor& bias, const nn::BatchNorm2d& bn) {
    std::vector<float> scale, shift;
    bn.fused_affine(scale, shift);
    const Shape ws = weight.shape();
    if (ws.n != static_cast<int>(scale.size()))
        throw std::invalid_argument("fold_into_conv: channel mismatch");
    const std::int64_t per_out = ws.per_item();
    for (int oc = 0; oc < ws.n; ++oc) {
        float* wp = weight.data() + oc * per_out;
        const float g = scale[static_cast<std::size_t>(oc)];
        for (std::int64_t i = 0; i < per_out; ++i) wp[i] *= g;
        bias[oc] = g * bias[oc] + shift[static_cast<std::size_t>(oc)];
    }
}

int fold_graph_bn(nn::Graph& g) {
    // Consumer counts: how many nodes read each node's output.
    std::vector<int> consumers(g.node_count(), 0);
    for (std::size_t i = 0; i < g.node_count(); ++i)
        for (int in : g.node_inputs(i)) ++consumers[static_cast<std::size_t>(in)];

    int count = 0;
    for (std::size_t i = 0; i < g.node_count(); ++i) {
        auto* bn = dynamic_cast<nn::BatchNorm2d*>(g.node_module(i));
        if (bn == nullptr) continue;
        const auto& ins = g.node_inputs(i);
        if (ins.size() != 1) continue;
        const std::size_t j = static_cast<std::size_t>(ins[0]);
        if (consumers[j] != 1) continue;  // the conv output is used elsewhere
        auto* conv = dynamic_cast<nn::ConvLayer*>(g.node_module(j));
        if (conv == nullptr) continue;
        conv->enable_bias();
        fold_into_conv(conv->weight(), conv->bias(), *bn);  // weight() drops the pack
        g.replace_module(i, std::make_unique<Identity>());
        ++count;
    }
    return count;
}

}  // namespace sky::deploy
