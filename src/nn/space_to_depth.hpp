// Feature-map reordering (space-to-depth), Fig. 5 of the paper.
//
// A (C, H, W) map becomes (C*b^2, H/b, W/b): each b x b spatial block is
// redistributed across channels, shrinking width/height with *no information
// loss* (unlike pooling).  SkyNet uses b = 2 on the Bundle-#3 bypass so the
// high-resolution low-level features can be concatenated with the
// post-pooling high-level features.  The paper notes the pattern also
// enlarges the receptive field relative to a plain reshape; we use the YOLOv2
// convention: output channel index = c * b^2 + (dy * b + dx).
#pragma once

#include "nn/module.hpp"

namespace sky::nn {

class SpaceToDepth : public Module {
public:
    explicit SpaceToDepth(int block = 2) : block_(block) {}

    Tensor forward(const Tensor& x) override;
    /// Writes every element of `y` and applies `ep` per plane, (image,
    /// channel) planes in parallel.  Only training records the input shape
    /// that backward() needs.
    void forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) override;
    /// Throws std::logic_error without a training forward, or when grad_out's
    /// shape is not that forward's output shape.
    Tensor backward(const Tensor& grad_out) override;

    [[nodiscard]] std::string name() const override;
    [[nodiscard]] Shape out_shape(const Shape& in) const override {
        return {in.n, in.c * block_ * block_, in.h / block_, in.w / block_};
    }
    [[nodiscard]] int block() const { return block_; }
    [[nodiscard]] std::string kind() const override { return "reorder"; }

private:
    int block_;
    std::optional<Shape> in_shape_;  ///< input of the last training forward
};

}  // namespace sky::nn
