// Dense float32 NCHW tensor.
//
// Tensor is a value type: copy copies the buffer, move steals it.  Layers in
// sky::nn exchange Tensors by const reference and return them by value, or
// write into a caller's tensor whose buffer they reuse (resize()).  The
// class deliberately exposes raw data() access: inner loops in the layer
// implementations are hand-written for cache-friendliness, and the tensor
// abstraction should never stand between a kernel and its memory.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/shape.hpp"

namespace sky {

class Tensor {
public:
    Tensor() = default;
    explicit Tensor(Shape s) : shape_(s), data_(static_cast<std::size_t>(s.count()), 0.0f) {}
    Tensor(Shape s, float fill)
        : shape_(s), data_(static_cast<std::size_t>(s.count()), fill) {}
    Tensor(Shape s, std::vector<float> values) : shape_(s), data_(std::move(values)) {
        assert(static_cast<std::int64_t>(data_.size()) == shape_.count());
    }

    [[nodiscard]] const Shape& shape() const { return shape_; }
    [[nodiscard]] std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }
    [[nodiscard]] bool empty() const { return data_.empty(); }

    [[nodiscard]] float* data() { return data_.data(); }
    [[nodiscard]] const float* data() const { return data_.data(); }

    /// Element access by NCHW coordinate (bounds unchecked in release builds).
    [[nodiscard]] float& at(int n, int c, int h, int w) {
        return data_[index(n, c, h, w)];
    }
    [[nodiscard]] float at(int n, int c, int h, int w) const {
        return data_[index(n, c, h, w)];
    }
    [[nodiscard]] float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
    [[nodiscard]] float operator[](std::int64_t i) const {
        return data_[static_cast<std::size_t>(i)];
    }

    /// Pointer to the (n, c) spatial plane.
    [[nodiscard]] float* plane(int n, int c) { return data_.data() + index(n, c, 0, 0); }
    [[nodiscard]] const float* plane(int n, int c) const {
        return data_.data() + index(n, c, 0, 0);
    }

    /// Set the shape to `s` and size the buffer to match, keeping its
    /// capacity: shrinking frees nothing, and growing within the capacity
    /// allocates nothing.  Elements past the old size are zero; the others
    /// keep stale values, so the caller must write every element.
    void resize(Shape s) {
        shape_ = s;
        data_.resize(static_cast<std::size_t>(s.count()));
    }

    void zero();
    void fill(float v);
    /// In-place: this += alpha * other.  Shapes must match.
    void axpy(float alpha, const Tensor& other);
    /// In-place scale.
    void scale(float alpha);

    [[nodiscard]] float sum() const;
    [[nodiscard]] float min() const;
    [[nodiscard]] float max() const;
    [[nodiscard]] float abs_max() const;
    [[nodiscard]] double mean() const;
    /// Squared L2 norm.
    [[nodiscard]] double sq_norm() const;

    /// Reinterpret the buffer with a new shape of identical element count.
    [[nodiscard]] Tensor reshaped(Shape s) const;

    /// Fill with N(mean, stddev).
    void randn(Rng& rng, float mean = 0.0f, float stddev = 1.0f);
    /// Fill with U[lo, hi).
    void rand_uniform(Rng& rng, float lo, float hi);
    /// Kaiming/He initialisation for a conv weight of given fan-in.
    void kaiming(Rng& rng, int fan_in);

    /// Concatenate along the channel axis into `out`, reusing its buffer
    /// (resize()).  All inputs share n/h/w, and `out` is none of them.
    static void concat_channels(const std::vector<const Tensor*>& parts, Tensor& out);
    /// Split a channel-concatenated gradient back into per-part tensors.
    static std::vector<Tensor> split_channels(const Tensor& whole,
                                              const std::vector<int>& channel_counts);

private:
    [[nodiscard]] std::size_t index(int n, int c, int h, int w) const {
        assert(n >= 0 && n < shape_.n && c >= 0 && c < shape_.c);
        assert(h >= 0 && h < shape_.h && w >= 0 && w < shape_.w);
        return static_cast<std::size_t>(((static_cast<std::int64_t>(n) * shape_.c + c) *
                                             shape_.h +
                                         h) *
                                            shape_.w +
                                        w);
    }

    Shape shape_;
    std::vector<float> data_;
};

}  // namespace sky
