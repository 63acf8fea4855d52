#include "tracking/mask_head.hpp"

#include <algorithm>
#include <cmath>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/pwconv.hpp"
#include "nn/graph.hpp"

namespace sky::tracking {
namespace {

float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

MaskHead::MaskHead(int embed_dim, int mask_size, Rng& rng) : mask_size_(mask_size) {
    auto g = std::make_unique<nn::Graph>();
    g->emplace<nn::PWConv1>(embed_dim, embed_dim, /*bias=*/false, rng);
    g->emplace<nn::BatchNorm2d>(embed_dim);
    g->emplace<nn::Activation>(nn::Act::kReLU);
    g->emplace<nn::PWConv1>(embed_dim, mask_size * mask_size, /*bias=*/true, rng);
    branch_ = std::move(g);
}

Tensor MaskHead::forward(const Tensor& response) { return branch_->forward(response); }

Tensor MaskHead::backward(const Tensor& grad) { return branch_->backward(grad); }

Tensor MaskHead::mask_at(const Tensor& logits, int n, int y, int x) const {
    Tensor m({1, 1, mask_size_, mask_size_});
    const Shape s = logits.shape();
    const std::int64_t i = static_cast<std::int64_t>(y) * s.w + x;
    for (int k = 0; k < mask_size_ * mask_size_; ++k)
        m[k] = sigmoid(logits.plane(n, k)[i]);
    return m;
}

float MaskHead::loss(const Tensor& logits, const std::vector<Tensor>& gt_masks,
                     const std::vector<std::pair<int, int>>& pos_yx, Tensor& grad) const {
    const Shape s = logits.shape();
    grad = Tensor(s);
    double total = 0.0;
    const float eps = 1e-7f;
    const float inv = 1.0f / static_cast<float>(s.n * mask_size_ * mask_size_);
    for (int n = 0; n < s.n; ++n) {
        const auto [py, px] = pos_yx[static_cast<std::size_t>(n)];
        const std::int64_t i = static_cast<std::int64_t>(py) * s.w + px;
        const Tensor& gt = gt_masks[static_cast<std::size_t>(n)];
        for (int k = 0; k < mask_size_ * mask_size_; ++k) {
            const float p = sigmoid(logits.plane(n, k)[i]);
            const float t = gt[k];
            total += -(t * std::log(p + eps) + (1.0f - t) * std::log(1.0f - p + eps)) * inv;
            grad.plane(n, k)[i] = (p - t) * inv;
        }
    }
    return static_cast<float>(total);
}

bool MaskHead::mask_to_box(const Tensor& mask, float threshold, float& cx, float& cy,
                           float& w, float& h) {
    const Shape s = mask.shape();
    int x1 = s.w, y1 = s.h, x2 = -1, y2 = -1;
    for (int y = 0; y < s.h; ++y)
        for (int x = 0; x < s.w; ++x)
            if (mask.at(0, 0, y, x) > threshold) {
                x1 = std::min(x1, x);
                y1 = std::min(y1, y);
                x2 = std::max(x2, x);
                y2 = std::max(y2, y);
            }
    if (x2 < 0) return false;
    cx = (static_cast<float>(x1 + x2) + 1.0f) * 0.5f / static_cast<float>(s.w);
    cy = (static_cast<float>(y1 + y2) + 1.0f) * 0.5f / static_cast<float>(s.h);
    w = static_cast<float>(x2 - x1 + 1) / static_cast<float>(s.w);
    h = static_cast<float>(y2 - y1 + 1) / static_cast<float>(s.h);
    return true;
}

void MaskHead::collect_params(std::vector<nn::ParamRef>& out) {
    branch_->collect_params(out);
}

void MaskHead::set_training(bool training) { branch_->set_training(training); }

std::int64_t MaskHead::param_count() const { return branch_->param_count(); }

}  // namespace sky::tracking
