// Node-by-node unfused evaluation of a network: the reference an eval
// nn::Graph forward, which fuses epilogues into their producers, must equal
// bitwise.  Every module node runs its own forward() and keeps its own
// tensor; nested Graphs are walked the same way, so no epilogue fuses
// anywhere.
#pragma once

#include <vector>

#include "nn/graph.hpp"
#include "tensor/tensor.hpp"

namespace sky::testing {

inline Tensor unfused_forward(nn::Module& m, const Tensor& x);

/// The value of every node of `g` for input `x`.
inline std::vector<Tensor> unfused_node_values(nn::Graph& g, const Tensor& x) {
    std::vector<Tensor> v(g.node_count());
    v[0] = x;
    for (std::size_t i = 1; i < g.node_count(); ++i) {
        const std::vector<int>& ins = g.node_inputs(i);
        switch (g.node_kind(i)) {
            case nn::Graph::NodeKind::kInput:
                break;
            case nn::Graph::NodeKind::kModule:
                v[i] = unfused_forward(*g.node_module(i),
                                       v[static_cast<std::size_t>(ins[0])]);
                break;
            case nn::Graph::NodeKind::kConcat: {
                std::vector<const Tensor*> parts;
                for (int in : ins) parts.push_back(&v[static_cast<std::size_t>(in)]);
                Tensor::concat_channels(parts, v[i]);
                break;
            }
            case nn::Graph::NodeKind::kAdd:
                v[i] = v[static_cast<std::size_t>(ins[0])];
                v[i].axpy(1.0f, v[static_cast<std::size_t>(ins[1])]);
                break;
        }
    }
    return v;
}

inline Tensor unfused_forward(nn::Module& m, const Tensor& x) {
    if (auto* g = dynamic_cast<nn::Graph*>(&m))
        return unfused_node_values(*g, x)[static_cast<std::size_t>(g->output_node())];
    return m.forward(x);
}

}  // namespace sky::testing
