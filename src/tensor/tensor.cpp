#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sky {

void Tensor::zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::axpy(float alpha, const Tensor& other) {
    // A real check, not an assert: in Release builds a shape mismatch here
    // would silently read/write out of bounds.
    if (shape_ != other.shape_)
        throw std::invalid_argument("axpy: shape mismatch " + shape_.str() + " vs " +
                                    other.shape_.str());
    const float* src = other.data();
    float* dst = data();
    const std::size_t n = data_.size();
    for (std::size_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

void Tensor::scale(float alpha) {
    for (auto& v : data_) v *= alpha;
}

float Tensor::sum() const {
    double acc = 0.0;
    for (float v : data_) acc += v;
    return static_cast<float>(acc);
}

float Tensor::min() const {
    return data_.empty() ? 0.0f : *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
    return data_.empty() ? 0.0f : *std::max_element(data_.begin(), data_.end());
}

float Tensor::abs_max() const {
    float m = 0.0f;
    for (float v : data_) m = std::max(m, std::fabs(v));
    return m;
}

double Tensor::mean() const {
    if (data_.empty()) return 0.0;
    return static_cast<double>(sum()) / static_cast<double>(data_.size());
}

double Tensor::sq_norm() const {
    double acc = 0.0;
    for (float v : data_) acc += static_cast<double>(v) * v;
    return acc;
}

Tensor Tensor::reshaped(Shape s) const {
    if (s.count() != shape_.count())
        throw std::invalid_argument("reshape: element count mismatch " + shape_.str() +
                                    " -> " + s.str());
    Tensor out(s, data_);
    return out;
}

void Tensor::randn(Rng& rng, float mean, float stddev) {
    for (auto& v : data_) v = static_cast<float>(rng.normal(mean, stddev));
}

void Tensor::rand_uniform(Rng& rng, float lo, float hi) {
    for (auto& v : data_) v = static_cast<float>(rng.uniform(lo, hi));
}

void Tensor::kaiming(Rng& rng, int fan_in) {
    const float stddev = std::sqrt(2.0f / static_cast<float>(std::max(1, fan_in)));
    randn(rng, 0.0f, stddev);
}

void Tensor::concat_channels(const std::vector<const Tensor*>& parts, Tensor& out) {
    if (parts.empty()) throw std::invalid_argument("concat_channels: no inputs");
    const Shape& first = parts.front()->shape();
    int total_c = 0;
    for (const Tensor* p : parts) {
        const Shape& s = p->shape();
        if (s.n != first.n || s.h != first.h || s.w != first.w)
            throw std::invalid_argument("concat_channels: incompatible part " + s.str() +
                                        " vs " + first.str());
        if (p == &out) throw std::invalid_argument("concat_channels: output is an input");
        total_c += s.c;
    }
    out.resize({first.n, total_c, first.h, first.w});  // the copies write every element
    const std::int64_t plane = static_cast<std::int64_t>(first.h) * first.w;
    for (int n = 0; n < first.n; ++n) {
        int c_off = 0;
        for (const Tensor* p : parts) {
            const int pc = p->shape().c;
            std::copy_n(p->plane(n, 0), pc * plane, out.plane(n, c_off));
            c_off += pc;
        }
    }
}

std::vector<Tensor> Tensor::split_channels(const Tensor& whole,
                                           const std::vector<int>& channel_counts) {
    const Shape& s = whole.shape();
    std::vector<Tensor> parts;
    parts.reserve(channel_counts.size());
    for (int c : channel_counts) parts.emplace_back(Shape{s.n, c, s.h, s.w});
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    for (int n = 0; n < s.n; ++n) {
        int c_off = 0;
        for (std::size_t i = 0; i < channel_counts.size(); ++i) {
            const int pc = channel_counts[i];
            std::copy_n(whole.plane(n, c_off), pc * plane, parts[i].plane(n, 0));
            c_off += pc;
        }
    }
    return parts;
}

}  // namespace sky
