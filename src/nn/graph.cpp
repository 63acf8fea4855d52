#include "nn/graph.hpp"

#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

namespace sky::nn {

Graph::Graph() {
    nodes_.push_back(Node{NodeKind::kInput, nullptr, {}, {}});
}

int Graph::add(ModulePtr m, int in) {
    nodes_.push_back(Node{NodeKind::kModule, std::move(m), {in}, {}});
    output_ = static_cast<int>(nodes_.size()) - 1;
    return output_;
}

int Graph::add_concat(std::vector<int> ins) {
    nodes_.push_back(Node{NodeKind::kConcat, nullptr, std::move(ins), {}});
    output_ = static_cast<int>(nodes_.size()) - 1;
    return output_;
}

int Graph::add_add(int a, int b) {
    nodes_.push_back(Node{NodeKind::kAdd, nullptr, {a, b}, {}});
    output_ = static_cast<int>(nodes_.size()) - 1;
    return output_;
}

void Graph::set_output(int node) { output_ = node; }

Graph::FusionPlan Graph::plan(bool fuse) const {
    const std::size_t n = nodes_.size();
    FusionPlan plan{std::vector<int>(n), std::vector<int>(n, -1), std::vector<Epilogue>(n)};
    std::vector<int>& carrier = plan.carrier;
    std::iota(carrier.begin(), carrier.end(), 0);
    if (!fuse) return plan;

    std::vector<int> readers(n, 0);
    for (const Node& node : nodes_)
        for (int i : node.inputs) ++readers[static_cast<std::size_t>(i)];
    const auto sole_reader = [&](std::size_t i) {
        return readers[i] == 1 && static_cast<int>(i) != output_;
    };
    // producer[c]: a module that is not itself an epilogue, or an affine or
    // a pool that did not fold, so it can carry one.  open[c]: every node
    // whose value c's tensor holds is read only by the next node of its
    // chain and is not the output, so an epilogue may still overwrite that
    // value.
    std::vector<char> producer(n, 0), open(n, 0);
    for (std::size_t i = 1; i < n; ++i) {
        const Node& node = nodes_[i];
        if (node.kind != NodeKind::kModule) continue;
        const std::optional<Epilogue> e = node.module->as_epilogue();
        if (!e) {
            producer[i] = 1;
            open[i] = sole_reader(i);
            continue;
        }
        const auto c = static_cast<std::size_t>(carrier[static_cast<std::size_t>(node.inputs[0])]);
        if (e->empty()) {  // an identity aliases whatever holds its input
            carrier[i] = static_cast<int>(c);
            open[c] = open[c] && sole_reader(i);
            continue;
        }
        // A producer applies affine, activation and pool in that order, at
        // most one of each.  An affine folds into a producer that
        // accepts_affine() and carries nothing yet; an activation into one
        // that carries no activation or pool yet; a pool into one that
        // accepts pools, after its affine and activation.  Nothing folds
        // after a pool.
        Epilogue& held = plan.epilogue[c];
        bool folds = producer[c] && open[c] && !held.pool;
        if (folds) {
            const Module& prod = *nodes_[c].module;
            if (e->affine())
                folds = held.empty() && prod.accepts_affine();
            else if (e->pool)
                folds = prod.accepts_pool();
            else
                folds = held.act == EpilogueAct::kNone;
        }
        if (!folds) {
            if (e->affine() || e->pool) {  // it runs and writes its own value
                producer[i] = 1;
                open[i] = sole_reader(i);
            }
            continue;
        }
        for (std::size_t k = c; k < i; ++k)
            if (carrier[k] == static_cast<int>(c) && plan.overwritten[k] < 0)
                plan.overwritten[k] = static_cast<int>(i);
        if (e->affine()) {
            held.scale = e->scale;
            held.shift = e->shift;
        } else if (e->pool) {
            held.pool = true;
        } else {
            held.act = e->act;
            held.slope = e->slope;
        }
        carrier[i] = static_cast<int>(c);
        open[c] = sole_reader(i);
    }
    return plan;
}

const Tensor& Graph::run(const Tensor& x) {
    computed_ = 0;
    const std::vector<Shape> shapes = infer_shapes(x.shape());
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const Shape& s = shapes[i];
        if (s.n <= 0 || s.c <= 0 || s.h <= 0 || s.w <= 0)
            throw std::invalid_argument("Graph::forward: node " + std::to_string(i) +
                                        " has a degenerate shape (run verify::check_graph)");
    }
    plan_ = plan(/*fuse=*/!training_);
    outputs_.resize(nodes_.size());
    outputs_[0] = x;
    computed_ = 1;
    const auto value = [&](int node) -> const Tensor& {
        return outputs_[static_cast<std::size_t>(plan_.carrier[static_cast<std::size_t>(node)])];
    };
    for (std::size_t i = 1; i < nodes_.size(); ++i, computed_ = i) {
        // Each executing node writes into the tensor it wrote last forward,
        // so a steady-state forward allocates no activation buffer.
        Tensor& y = outputs_[i];
        if (plan_.carrier[i] != static_cast<int>(i)) {  // its carrier holds the value
            y = Tensor{};  // drop the buffer of a forward in which it ran
            continue;
        }
        Node& node = nodes_[i];
        switch (node.kind) {
            case NodeKind::kInput:
                break;
            case NodeKind::kModule:
                node.module->forward_fused(value(node.inputs[0]), plan_.epilogue[i], y);
                break;
            case NodeKind::kConcat: {
                std::vector<const Tensor*> parts;
                node.concat_channels.clear();
                for (int in : node.inputs) {
                    parts.push_back(&value(in));
                    node.concat_channels.push_back(value(in).shape().c);
                }
                Tensor::concat_channels(parts, y);
                break;
            }
            case NodeKind::kAdd: {
                y = value(node.inputs[0]);
                y.axpy(1.0f, value(node.inputs[1]));
                break;
            }
        }
    }
    return value(output_);
}

Tensor Graph::forward(const Tensor& x) { return run(x); }

void Graph::forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) {
    y = run(x);
    apply_epilogue(ep, y);
}

Tensor Graph::backward(const Tensor& grad_out) {
    std::vector<Tensor> grads(nodes_.size());
    grads[static_cast<std::size_t>(output_)] = grad_out;
    auto accumulate = [&](int node, Tensor&& g) {
        auto& slot = grads[static_cast<std::size_t>(node)];
        if (slot.empty())
            slot = std::move(g);
        else
            slot.axpy(1.0f, g);
    };
    for (std::size_t i = nodes_.size(); i-- > 1;) {
        Node& node = nodes_[i];
        Tensor& g = grads[i];
        if (g.empty()) continue;  // node not on any path to the output
        switch (node.kind) {
            case NodeKind::kInput:
                break;
            case NodeKind::kModule:
                accumulate(node.inputs[0], node.module->backward(g));
                break;
            case NodeKind::kConcat: {
                auto parts = Tensor::split_channels(g, node.concat_channels);
                for (std::size_t p = 0; p < node.inputs.size(); ++p)
                    accumulate(node.inputs[p], std::move(parts[p]));
                break;
            }
            case NodeKind::kAdd: {
                Tensor copy = g;
                accumulate(node.inputs[0], std::move(copy));
                accumulate(node.inputs[1], std::move(g));
                break;
            }
        }
    }
    if (grads[0].empty()) return Tensor(outputs_[0].shape());
    return std::move(grads[0]);
}

void Graph::collect_params(std::vector<ParamRef>& out) {
    for (auto& n : nodes_)
        if (n.module) n.module->collect_params(out);
}

void Graph::collect_state(std::vector<Tensor*>& out) {
    for (auto& n : nodes_)
        if (n.module) n.module->collect_state(out);
}

void Graph::set_training(bool training) {
    Module::set_training(training);
    for (auto& n : nodes_)
        if (n.module) n.module->set_training(training);
}

std::vector<Shape> Graph::infer_shapes(const Shape& in) const {
    std::vector<Shape> shapes(nodes_.size());
    shapes[0] = in;
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
        const Node& node = nodes_[i];
        switch (node.kind) {
            case NodeKind::kInput:
                break;
            case NodeKind::kModule:
                shapes[i] = node.module->out_shape(
                    shapes[static_cast<std::size_t>(node.inputs[0])]);
                break;
            case NodeKind::kConcat: {
                Shape s = shapes[static_cast<std::size_t>(node.inputs[0])];
                int c = 0;
                for (int inn : node.inputs) c += shapes[static_cast<std::size_t>(inn)].c;
                s.c = c;
                shapes[i] = s;
                break;
            }
            case NodeKind::kAdd:
                shapes[i] = shapes[static_cast<std::size_t>(node.inputs[0])];
                break;
        }
    }
    return shapes;
}

void Graph::enumerate(const Shape& in, std::vector<LayerInfo>& out) const {
    const auto shapes = infer_shapes(in);
    for (std::size_t i = 1; i < nodes_.size(); ++i)
        if (nodes_[i].module)
            nodes_[i].module->enumerate(
                shapes[static_cast<std::size_t>(nodes_[i].inputs[0])], out);
}

Shape Graph::out_shape(const Shape& in) const {
    return infer_shapes(in)[static_cast<std::size_t>(output_)];
}

std::int64_t Graph::macs(const Shape& in) const {
    const auto shapes = infer_shapes(in);
    std::int64_t total = 0;
    for (std::size_t i = 1; i < nodes_.size(); ++i)
        if (nodes_[i].module)
            total += nodes_[i].module->macs(
                shapes[static_cast<std::size_t>(nodes_[i].inputs[0])]);
    return total;
}

std::int64_t Graph::param_count() const {
    std::int64_t total = 0;
    for (const auto& n : nodes_)
        if (n.module) total += n.module->param_count();
    return total;
}

const Tensor& Graph::node_output(int node) const {
    if (node < 0 || node >= static_cast<int>(outputs_.size()))
        throw std::out_of_range("Graph::node_output: bad node id");
    const int over = plan_.overwritten[static_cast<std::size_t>(node)];
    if (over >= 0)
        throw std::logic_error("Graph::node_output: node " + std::to_string(node) +
                               " was not kept: epilogue node " + std::to_string(over) + " (" +
                               nodes_[static_cast<std::size_t>(over)].module->name() +
                               ") fused into it");
    const auto carrier = static_cast<std::size_t>(plan_.carrier[static_cast<std::size_t>(node)]);
    if (carrier >= computed_)
        throw std::logic_error("Graph::node_output: node " + std::to_string(node) +
                               " was not computed: the last forward stopped before it");
    return outputs_[carrier];
}

int Graph::node_carrier(int node) const {
    if (node < 0 || node >= static_cast<int>(nodes_.size()))
        throw std::out_of_range("Graph::node_carrier: bad node id");
    // A node no forward has planned yet carries itself.
    const auto i = static_cast<std::size_t>(node);
    return i < plan_.carrier.size() ? plan_.carrier[i] : node;
}

}  // namespace sky::nn
