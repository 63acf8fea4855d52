// Pooling layers: 2x2 max pooling (the only pooling SkyNet uses) and
// global average pooling (used by the classifier backbones).
#pragma once

#include "nn/module.hpp"

namespace sky::nn {

/// 2x2 max pooling with stride 2.  Odd trailing rows/columns are dropped,
/// matching the usual floor-division convention.  Each window keeps its first
/// maximum in scan order (strict >), so ties, ±0 and NaN resolve the same in
/// every mode.
class MaxPool2 : public Module {
public:
    MaxPool2() = default;

    Tensor forward(const Tensor& x) override;
    /// Writes every element of `y` and applies `ep` per plane.  An eval
    /// forward runs the vector kernel core::maxpool2x2; only training runs
    /// the scalar scan that records the argmax backward() needs.
    void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) override;
    /// A pool epilogue: nn::Graph folds it into a producer that
    /// accepts_pool(), and otherwise runs it as a producer of its own.
    [[nodiscard]] std::optional<Epilogue> as_epilogue() const override {
        return Epilogue{.pool = true};
    }
    /// Throws std::logic_error without a training forward, or when grad_out's
    /// shape is not that forward's output shape.
    Tensor backward(const Tensor& grad_out) override;

    [[nodiscard]] std::string name() const override { return "MaxPool2x2"; }
    [[nodiscard]] std::string kind() const override { return "pool"; }
    [[nodiscard]] Shape out_shape(const Shape& in) const override {
        return {in.n, in.c, in.h / 2, in.w / 2};
    }

private:
    std::optional<Shape> in_shape_;     ///< input of the last training forward
    std::vector<std::int32_t> argmax_;  ///< flat input index per output element
};

/// Global average pooling to 1x1.  Like MaxPool2, only a training forward
/// records what backward() needs.
class GlobalAvgPool : public Module {
public:
    GlobalAvgPool() = default;

    Tensor forward(const Tensor& x) override;
    /// Throws std::logic_error without a training forward, or when grad_out's
    /// shape is not that forward's output shape.
    Tensor backward(const Tensor& grad_out) override;

    [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }
    [[nodiscard]] std::string kind() const override { return "pool"; }
    [[nodiscard]] Shape out_shape(const Shape& in) const override {
        return {in.n, in.c, 1, 1};
    }

private:
    std::optional<Shape> in_shape_;  ///< input of the last training forward
};

}  // namespace sky::nn
