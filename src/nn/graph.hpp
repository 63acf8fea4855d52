// Small DAG container for networks with skip connections.
//
// Supports exactly the topologies this reproduction needs: single-input
// chains with channel-concatenation joins (SkyNet's bypass, Fig. 4) and
// elementwise-add joins (ResNet residuals).  Nodes are added in topological
// order by construction; forward keeps every node output it computes, in a
// buffer the next forward writes again, and backward accumulates gradients
// in reverse order.  A plain chain is a Graph built with add(m) /
// emplace<M>(...) alone.  Graph is itself a Module, so a block (a residual
// unit, a Bundle) nests inside another graph as one node.
//
// Eval forwards fuse epilogues (nn/epilogue.hpp) by fusion_plan(), the one
// fusion rule (quant::lower only vetoes).  An Identity node aliases its
// input; an Activation node whose input is a producer module's value read
// by that node alone folds into the producer, which applies it as it writes
// its output.  An eval BatchNorm2d that holds its cached affine folds the
// same way, before the activation, into a producer that accepts_affine()
// (the convs), and a MaxPool2 into one that accepts_pool() (PWConv1), after
// the activation; the producer then writes only the pooled map, and nothing
// folds after the pool.  At most one affine, one activation and one pool
// fold into a producer; a BatchNorm2d or pool that does not fold runs as a
// producer of its own; and a producer that is the graph output keeps its
// value.  Training forwards run every node.
#pragma once

#include <utility>

#include "nn/module.hpp"

namespace sky::nn {

class Graph : public Module {
public:
    Graph();

    /// Node id of the graph input (always 0).
    [[nodiscard]] int input() const { return 0; }

    /// Add a single-input module node; returns its node id.
    int add(ModulePtr m, int in);
    /// Append a module node after the current output (chain building).
    int add(ModulePtr m) { return add(std::move(m), output_); }
    /// Construct-and-append helper.
    template <typename M, typename... Args>
    int emplace(Args&&... args) {
        return add(std::make_unique<M>(std::forward<Args>(args)...));
    }
    /// Channel concatenation of several nodes (same n/h/w).
    int add_concat(std::vector<int> ins);
    /// Elementwise sum of two nodes (same shape).
    int add_add(int a, int b);

    /// Designate the node whose output forward() returns.
    void set_output(int node);

    /// Runs the graph.  Shapes are inferred first: a node with a degenerate
    /// shape throws std::invalid_argument before any layer runs.  In eval
    /// mode aliased and fused nodes do not run — their producers apply the
    /// folded epilogues as they write — and the result is bitwise what
    /// running every node gives.  Every node that runs writes into the
    /// tensor it wrote on the previous forward (Module::forward_fused), so
    /// at a batch size seen before a forward allocates only its result.
    Tensor forward(const Tensor& x) override;
    /// Runs the graph and copies its output into `y`'s buffer.
    void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) override;
    Tensor backward(const Tensor& grad_out) override;
    /// Every node's, in node order (a conv layer's drops its weight pack).
    void collect_params(std::vector<ParamRef>& out) override;
    void collect_state(std::vector<Tensor*>& out) override;
    /// Every node's; set_training(false) is what packs the conv weights.
    void set_training(bool training) override;

    [[nodiscard]] std::string name() const override { return "Graph"; }
    void enumerate(const Shape& in, std::vector<LayerInfo>& out) const override;
    [[nodiscard]] Shape out_shape(const Shape& in) const override;
    [[nodiscard]] std::int64_t macs(const Shape& in) const override;
    [[nodiscard]] std::int64_t param_count() const override;

    /// Output tensor of an arbitrary node after the last forward() (used by
    /// trackers that read intermediate features).  An aliased or fused node
    /// reads its carrier's tensor, which holds its value, so SkyNet's
    /// feature_node still reads post-activation features.  A producer whose
    /// value an epilogue (an activation or a folded pool) overwrote throws
    /// std::logic_error naming that node, and so does a node a throwing
    /// forward never reached.
    [[nodiscard]] const Tensor& node_output(int node) const;
    /// The node whose tensor held `node`'s value in the last forward(): the
    /// node itself when it ran, else the producer it was aliased or fused
    /// into (obs::GraphProfiler reports it as LayerProfile::fused_into).
    [[nodiscard]] int node_carrier(int node) const;

    // --- Introspection for rewrite passes (deploy::fold_graph_bn etc.; a
    // conv-like node is one test for nn::ConvLayer and its ConvSpec) ---
    enum class NodeKind { kInput, kModule, kConcat, kAdd };
    [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
    [[nodiscard]] NodeKind node_kind(std::size_t i) const { return nodes_[i].kind; }
    [[nodiscard]] int output_node() const { return output_; }
    /// Module owned by a node, or nullptr for input/concat/add nodes.
    [[nodiscard]] Module* node_module(std::size_t i) { return nodes_[i].module.get(); }
    [[nodiscard]] const Module* node_module(std::size_t i) const {
        return nodes_[i].module.get();
    }
    [[nodiscard]] const std::vector<int>& node_inputs(std::size_t i) const {
        return nodes_[i].inputs;
    }
    /// Output shape of every node for input shape `in`: the one per-node
    /// shape inference (out_shape, macs, quant::plan_activations,
    /// verify::check_model).  Trusts the edges — verify::check_graph
    /// diagnoses a malformed graph.
    [[nodiscard]] std::vector<Shape> infer_shapes(const Shape& in) const;
    /// The plan every eval forward runs, per node.  It reads the nodes, the
    /// edges and what each module says of itself (as_epilogue(),
    /// accepts_affine(), accepts_pool(): a BatchNorm2d is an epilogue only
    /// in eval mode with its affine cached), not the input shape or the
    /// graph's own training flag, and trusts them.  An epilogue's affine
    /// arrays are borrowed from the BatchNorm2d until its cache drops.
    struct FusionPlan {
        std::vector<int> carrier;        ///< node whose tensor holds the value
        std::vector<int> overwritten;    ///< epilogue node fused over it, or -1
        std::vector<Epilogue> epilogue;  ///< what a running node applies on write
                                         ///< (with `pool` it writes the pooled map)
    };
    [[nodiscard]] FusionPlan fusion_plan() const { return plan(/*fuse=*/true); }
    /// Swap a module node's implementation (shapes must stay compatible);
    /// returns the displaced module so wrappers (obs::GraphProfiler) can
    /// reinstall it later.
    ModulePtr replace_module(std::size_t i, ModulePtr m) {
        std::swap(nodes_[i].module, m);
        return m;
    }

private:
    struct Node {
        NodeKind kind;
        ModulePtr module;        // kModule only
        std::vector<int> inputs;
        std::vector<int> concat_channels;  // filled during forward for kConcat
    };

    /// fusion_plan(), or with fuse=false the plan that runs every node.
    [[nodiscard]] FusionPlan plan(bool fuse) const;
    /// The forward itself; returns the output node's tensor.
    const Tensor& run(const Tensor& x);

    std::vector<Node> nodes_;
    int output_ = 0;
    // Per node, for the last forward:
    std::vector<Tensor> outputs_;     // the tensor, empty unless the node ran
    std::size_t computed_ = 0;        // nodes [0, computed_) hold its values
    FusionPlan plan_;                 // the plan it ran
};

}  // namespace sky::nn
