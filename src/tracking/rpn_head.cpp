#include "tracking/rpn_head.hpp"

#include <algorithm>
#include <cmath>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/pwconv.hpp"
#include "nn/graph.hpp"

namespace sky::tracking {
namespace {

float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

nn::ModulePtr make_branch(int embed_dim, int out_ch, Rng& rng) {
    auto g = std::make_unique<nn::Graph>();
    g->emplace<nn::PWConv1>(embed_dim, embed_dim, /*bias=*/false, rng);
    g->emplace<nn::BatchNorm2d>(embed_dim);
    g->emplace<nn::Activation>(nn::Act::kReLU);
    g->emplace<nn::PWConv1>(embed_dim, out_ch, /*bias=*/true, rng);
    return g;
}

}  // namespace

RpnHead::RpnHead(int embed_dim, Rng& rng)
    : cls_branch_(make_branch(embed_dim, 1, rng)),
      reg_branch_(make_branch(embed_dim, 4, rng)) {}

RpnHead::Output RpnHead::forward(const Tensor& response) {
    return {cls_branch_->forward(response), reg_branch_->forward(response)};
}

Tensor RpnHead::backward(const Tensor& grad_cls, const Tensor& grad_reg) {
    Tensor g = cls_branch_->backward(grad_cls);
    g.axpy(1.0f, reg_branch_->backward(grad_reg));
    return g;
}

std::vector<RpnPrediction> RpnHead::decode(const Output& out) const {
    const Shape s = out.cls.shape();
    std::vector<RpnPrediction> preds(static_cast<std::size_t>(s.n));
    for (int n = 0; n < s.n; ++n) {
        const float* cp = out.cls.plane(n, 0);
        RpnPrediction p;
        float best = -1e30f;
        for (int y = 0; y < s.h; ++y)
            for (int x = 0; x < s.w; ++x) {
                const float v = cp[static_cast<std::int64_t>(y) * s.w + x];
                if (v > best) {
                    best = v;
                    p.best_y = y;
                    p.best_x = x;
                }
            }
        p.score = sigmoid(best);
        const std::int64_t i = static_cast<std::int64_t>(p.best_y) * s.w + p.best_x;
        p.dx = std::tanh(out.reg.plane(n, 0)[i]) * 0.5f;
        p.dy = std::tanh(out.reg.plane(n, 1)[i]) * 0.5f;
        p.dw = std::clamp(out.reg.plane(n, 2)[i], -1.0f, 1.0f);
        p.dh = std::clamp(out.reg.plane(n, 3)[i], -1.0f, 1.0f);
        preds[static_cast<std::size_t>(n)] = p;
    }
    return preds;
}

float RpnHead::loss(const Output& out, const std::vector<RpnTarget>& targets,
                    Tensor& grad_cls, Tensor& grad_reg) const {
    const Shape cs = out.cls.shape();
    grad_cls = Tensor(cs);
    grad_reg = Tensor(out.reg.shape());
    double total = 0.0;
    const float inv_n = 1.0f / static_cast<float>(cs.n);
    const float eps = 1e-7f;
    for (int n = 0; n < cs.n; ++n) {
        const RpnTarget& t = targets[static_cast<std::size_t>(n)];
        const float* cp = out.cls.plane(n, 0);
        float* gcp = grad_cls.plane(n, 0);
        for (int y = 0; y < cs.h; ++y) {
            for (int x = 0; x < cs.w; ++x) {
                const std::int64_t i = static_cast<std::int64_t>(y) * cs.w + x;
                const bool pos = (y == t.pos_y && x == t.pos_x);
                const float target = pos ? 1.0f : 0.0f;
                const float w = pos ? 1.0f : 1.0f / static_cast<float>(cs.h * cs.w - 1);
                const float p = sigmoid(cp[i]);
                total += -w *
                         (target * std::log(p + eps) +
                          (1.0f - target) * std::log(1.0f - p + eps)) *
                         inv_n;
                gcp[i] += w * (p - target) * inv_n;
            }
        }
        // Regression at the positive location: tanh-bounded offsets for
        // dx/dy, raw for dw/dh; plain squared error.
        const std::int64_t i = static_cast<std::int64_t>(t.pos_y) * cs.w + t.pos_x;
        const float raw[4] = {out.reg.plane(n, 0)[i], out.reg.plane(n, 1)[i],
                              out.reg.plane(n, 2)[i], out.reg.plane(n, 3)[i]};
        const float tgt[4] = {t.dx, t.dy, t.dw, t.dh};
        for (int k = 0; k < 4; ++k) {
            float pred, dpred;  // prediction and d(pred)/d(raw)
            if (k < 2) {
                const float th = std::tanh(raw[k]);
                pred = th * 0.5f;
                dpred = (1.0f - th * th) * 0.5f;
            } else {
                pred = raw[k];
                dpred = 1.0f;
            }
            const float d = pred - tgt[k];
            total += 0.5 * d * d * inv_n;
            grad_reg.plane(n, k)[i] += d * dpred * inv_n;
        }
    }
    return static_cast<float>(total);
}

void RpnHead::collect_params(std::vector<nn::ParamRef>& out) {
    cls_branch_->collect_params(out);
    reg_branch_->collect_params(out);
}

void RpnHead::set_training(bool training) {
    cls_branch_->set_training(training);
    reg_branch_->set_training(training);
}

std::int64_t RpnHead::param_count() const {
    return cls_branch_->param_count() + reg_branch_->param_count();
}

}  // namespace sky::tracking
