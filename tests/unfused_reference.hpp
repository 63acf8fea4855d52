// Node-by-node unfused evaluation of a network: the reference an eval
// nn::Graph forward, which fuses epilogues into their producers, must equal
// bitwise.  Every module node runs its own forward() and keeps its own
// tensor; nested Graphs are walked the same way, so no epilogue fuses
// anywhere.
//
// randomize_bn gives every BatchNorm2d of a network non-default statistics
// first: a fresh BN's affine has shift 0, and then a fused multiply-add
// rounds like a multiply followed by an add, so a contracted affine would
// pass unseen.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/graph.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace sky::testing {

/// Gives every BatchNorm2d in `m` (nested graphs included) a random gamma in
/// [-1.5, 1.5], beta and running mean in [-0.5, 0.5] and running variance
/// in [0.25, 2]; returns how many it changed.  Each drops its cached affine,
/// so the caller's next set_training(false) caches the new one.
inline int randomize_bn(nn::Module& m, std::uint64_t seed) {
    Rng rng(seed);
    int count = 0;
    std::vector<nn::Module*> todo{&m};
    while (!todo.empty()) {
        nn::Module* cur = todo.back();
        todo.pop_back();
        if (auto* g = dynamic_cast<nn::Graph*>(cur)) {
            for (std::size_t i = 0; i < g->node_count(); ++i)
                if (nn::Module* sub = g->node_module(i)) todo.push_back(sub);
        } else if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(cur)) {
            bn->gamma().rand_uniform(rng, -1.5f, 1.5f);
            bn->beta().rand_uniform(rng, -0.5f, 0.5f);
            std::vector<Tensor*> stats;  // running mean, then variance
            bn->collect_state(stats);
            stats[0]->rand_uniform(rng, -0.5f, 0.5f);
            stats[1]->rand_uniform(rng, 0.25f, 2.0f);
            ++count;
        }
    }
    return count;
}

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
