#include "tracking/siamese.hpp"

#include <stdexcept>

#include "nn/batchnorm.hpp"
#include "nn/pwconv.hpp"

namespace sky::tracking {

Tensor depthwise_xcorr(const Tensor& search, const Tensor& kernel) {
    const Shape ss = search.shape();
    const Shape ks = kernel.shape();
    if (ss.n != ks.n || ss.c != ks.c)
        throw std::invalid_argument("depthwise_xcorr: shape mismatch " + ss.str() + " vs " +
                                    ks.str());
    const int oh = ss.h - ks.h + 1;
    const int ow = ss.w - ks.w + 1;
    if (oh <= 0 || ow <= 0)
        throw std::invalid_argument("depthwise_xcorr: kernel larger than search");
    Tensor resp({ss.n, ss.c, oh, ow});
    for (int n = 0; n < ss.n; ++n) {
        for (int c = 0; c < ss.c; ++c) {
            const float* sp = search.plane(n, c);
            const float* kp = kernel.plane(n, c);
            float* rp = resp.plane(n, c);
            for (int y = 0; y < oh; ++y) {
                for (int x = 0; x < ow; ++x) {
                    double acc = 0.0;
                    for (int ky = 0; ky < ks.h; ++ky) {
                        const float* srow =
                            sp + static_cast<std::int64_t>(y + ky) * ss.w + x;
                        const float* krow = kp + static_cast<std::int64_t>(ky) * ks.w;
                        for (int kx = 0; kx < ks.w; ++kx)
                            acc += static_cast<double>(srow[kx]) * krow[kx];
                    }
                    rp[static_cast<std::int64_t>(y) * ow + x] = static_cast<float>(acc);
                }
            }
        }
    }
    return resp;
}

void depthwise_xcorr_backward(const Tensor& search, const Tensor& kernel,
                              const Tensor& grad_resp, Tensor& grad_search,
                              Tensor& grad_kernel) {
    const Shape ss = search.shape();
    const Shape ks = kernel.shape();
    const Shape rs = grad_resp.shape();
    grad_search = Tensor(ss);
    grad_kernel = Tensor(ks);
    for (int n = 0; n < ss.n; ++n) {
        for (int c = 0; c < ss.c; ++c) {
            const float* sp = search.plane(n, c);
            const float* kp = kernel.plane(n, c);
            const float* gp = grad_resp.plane(n, c);
            float* gsp = grad_search.plane(n, c);
            float* gkp = grad_kernel.plane(n, c);
            for (int y = 0; y < rs.h; ++y) {
                for (int x = 0; x < rs.w; ++x) {
                    const float g = gp[static_cast<std::int64_t>(y) * rs.w + x];
                    if (g == 0.0f) continue;
                    for (int ky = 0; ky < ks.h; ++ky) {
                        const float* srow =
                            sp + static_cast<std::int64_t>(y + ky) * ss.w + x;
                        float* gsrow = gsp + static_cast<std::int64_t>(y + ky) * ss.w + x;
                        const float* krow = kp + static_cast<std::int64_t>(ky) * ks.w;
                        float* gkrow = gkp + static_cast<std::int64_t>(ky) * ks.w;
                        for (int kx = 0; kx < ks.w; ++kx) {
                            gsrow[kx] += g * krow[kx];
                            gkrow[kx] += g * srow[kx];
                        }
                    }
                }
            }
        }
    }
}

Tensor center_crop(const Tensor& feat, int kh, int kw) {
    const Shape s = feat.shape();
    const int oy = (s.h - kh) / 2;
    const int ox = (s.w - kw) / 2;
    if (oy < 0 || ox < 0) throw std::invalid_argument("center_crop: crop larger than map");
    Tensor out({s.n, s.c, kh, kw});
    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c) {
            const float* sp = feat.plane(n, c);
            float* op = out.plane(n, c);
            for (int y = 0; y < kh; ++y)
                for (int x = 0; x < kw; ++x)
                    op[static_cast<std::int64_t>(y) * kw + x] =
                        sp[static_cast<std::int64_t>(y + oy) * s.w + (x + ox)];
        }
    return out;
}

void scatter_center_grad(const Tensor& grad_crop, Tensor& grad_feat) {
    const Shape cs = grad_crop.shape();
    const Shape fs = grad_feat.shape();
    const int oy = (fs.h - cs.h) / 2;
    const int ox = (fs.w - cs.w) / 2;
    for (int n = 0; n < cs.n; ++n)
        for (int c = 0; c < cs.c; ++c) {
            const float* gp = grad_crop.plane(n, c);
            float* fp = grad_feat.plane(n, c);
            for (int y = 0; y < cs.h; ++y)
                for (int x = 0; x < cs.w; ++x)
                    fp[static_cast<std::int64_t>(y + oy) * fs.w + (x + ox)] +=
                        gp[static_cast<std::int64_t>(y) * cs.w + x];
        }
}

SiameseEmbed::SiameseEmbed(nn::ModulePtr backbone, int feature_channels, int embed_dim,
                           Rng& rng)
    : net_(std::make_unique<nn::Graph>()), embed_dim_(embed_dim) {
    net_->add(std::move(backbone));
    net_->emplace<nn::PWConv1>(feature_channels, embed_dim, /*bias=*/false, rng);
    net_->emplace<nn::BatchNorm2d>(embed_dim);
}

Tensor SiameseEmbed::forward(const Tensor& crops) { return net_->forward(crops); }

Tensor SiameseEmbed::backward(const Tensor& grad) { return net_->backward(grad); }

void SiameseEmbed::collect_params(std::vector<nn::ParamRef>& out) {
    net_->collect_params(out);
}

void SiameseEmbed::set_training(bool training) { net_->set_training(training); }

std::int64_t SiameseEmbed::param_count() const { return net_->param_count(); }

}  // namespace sky::tracking
