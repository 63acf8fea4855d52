// Layer interface for the training-capable NN stack.
//
// Every layer implements both forward() and backward(); backward() consumes
// dL/d(output) and returns dL/d(input), accumulating dL/d(parameter) into the
// layer-owned gradient tensors exposed through params().  Layers cache
// whatever activations they need between forward and backward, so a module
// instance is single-use per step (forward then backward), which is exactly
// how nn::Graph, the one container, drives them.
//
// Layers also expose the static metadata the hardware-aware design flow
// needs: output shape inference, FLOP count and parameter count for a given
// input shape.  The hwsim latency/resource models consume this metadata, so
// the same module object serves training, inference and hardware estimation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/epilogue.hpp"
#include "tensor/tensor.hpp"

namespace sky::nn {

/// A learnable parameter and its gradient accumulator.
struct ParamRef {
    Tensor* value = nullptr;
    Tensor* grad = nullptr;
};

/// Static description of one leaf layer at a given input shape — the
/// interface between networks and the hwsim latency/resource models.
struct LayerInfo {
    std::string name;
    std::string kind;  ///< conv / dwconv / pwconv / bn / act / pool / fc / reorder / shuffle
    Shape in;
    Shape out;
    std::int64_t macs = 0;
    std::int64_t params = 0;
};

class Module {
public:
    virtual ~Module() = default;

    virtual Tensor forward(const Tensor& x) = 0;
    /// dL/d(input) given dL/d(output).  Parameter gradients accumulate.
    virtual Tensor backward(const Tensor& grad_out) = 0;

    /// y = forward(x) with `ep` applied to the output (nn/epilogue.hpp) —
    /// bitwise what forward(x) followed by ep's BatchNorm2d, Activation and
    /// MaxPool2 modules gives.  nn::Graph calls it with each executing
    /// node's own output tensor, so `y` arrives holding that node's previous
    /// output: any shape, stale values.  An override sizes it with
    /// Tensor::resize, which keeps the buffer, and writes every element.
    /// Default: y = forward(x), then ep's activation in place, in parallel;
    /// the convs, BatchNorm2d, MaxPool2 and SpaceToDepth write into y and
    /// apply ep as they write.
    virtual void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y);

    /// This module as an epilogue, or nullopt when it is anything else.
    /// Activation and Identity (an empty Epilogue) override it with an
    /// elementwise one, MaxPool2 with a pool, and an eval BatchNorm2d that
    /// holds its cached affine with that affine; their forward() computes
    /// exactly the Epilogue.
    [[nodiscard]] virtual std::optional<Epilogue> as_epilogue() const {
        return std::nullopt;
    }

    /// Whether forward_fused takes an Epilogue with an affine, applying it
    /// per output channel before the activation (nn::Graph folds an eval
    /// BatchNorm2d only into such a module).  Conv2d, PWConv1 and DWConv3
    /// do.
    [[nodiscard]] virtual bool accepts_affine() const { return false; }

    /// Whether forward_fused takes an Epilogue with `pool` set, writing the
    /// 2x2 max pool of act(output) and never the output itself (nn::Graph
    /// folds a MaxPool2 only into such a module).  PWConv1 does.
    [[nodiscard]] virtual bool accepts_pool() const { return false; }

    /// Append this module's learnable parameters to `out`.  The pointers
    /// are mutable, so a conv layer drops its weight pack here.
    virtual void collect_params(std::vector<ParamRef>& out) { (void)out; }

    /// Append non-trainable state tensors (e.g. BN running statistics) —
    /// everything beyond collect_params() that a checkpoint must carry.
    /// The pointers are mutable, so a BatchNorm2d drops its cached affine.
    virtual void collect_state(std::vector<Tensor*>& out) { (void)out; }

    /// Containers recurse.  A conv layer (nn/conv_layer.hpp) packs its
    /// weights for eval forwards on set_training(false), even when already
    /// in eval mode, and drops the pack on set_training(true); a
    /// BatchNorm2d caches and drops its eval affine the same way.
    virtual void set_training(bool training) { training_ = training; }
    [[nodiscard]] bool training() const { return training_; }

    [[nodiscard]] virtual std::string name() const = 0;
    [[nodiscard]] virtual Shape out_shape(const Shape& in) const = 0;
    /// Multiply-accumulate count for one forward pass at the given input shape.
    [[nodiscard]] virtual std::int64_t macs(const Shape& in) const {
        (void)in;
        return 0;
    }
    [[nodiscard]] virtual std::int64_t param_count() const { return 0; }

    /// Layer-kind tag consumed by the hardware models.
    [[nodiscard]] virtual std::string kind() const { return "other"; }

    /// Append the leaf layers of this module (containers recurse) for input
    /// shape `in`.  Default: this module is itself a leaf.
    virtual void enumerate(const Shape& in, std::vector<LayerInfo>& out) const {
        out.push_back({name(), kind(), in, out_shape(in), macs(in), param_count()});
    }

protected:
    /// For a layer that records only its input shape for backward: `in`,
    /// the input of its last training forward (nullopt without one), once
    /// `grad_out` is checked to be that forward's output shape.  Throws
    /// std::logic_error otherwise.
    [[nodiscard]] Shape recorded_input(const std::optional<Shape>& in,
                                       const Shape& grad_out) const {
        if (!in)
            throw std::logic_error(name() +
                                   ": backward() without a training forward — call forward() "
                                   "in training mode first");
        if (grad_out != out_shape(*in))
            throw std::logic_error(name() + ": backward() got " + grad_out.str() +
                                   ", the training forward produced " + out_shape(*in).str());
        return *in;
    }

    bool training_ = true;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace sky::nn
