#include "nn/batchnorm.hpp"

#include <cmath>

#include <stdexcept>

#include "core/thread_pool.hpp"

namespace sky::nn {

BatchNorm2d::BatchNorm2d(int channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_({1, channels, 1, 1}, 1.0f),
      beta_({1, channels, 1, 1}),
      grad_gamma_({1, channels, 1, 1}),
      grad_beta_({1, channels, 1, 1}),
      running_mean_({1, channels, 1, 1}),
      running_var_({1, channels, 1, 1}, 1.0f) {}

std::string BatchNorm2d::name() const { return "BN(" + std::to_string(channels_) + ")"; }

Tensor BatchNorm2d::forward(const Tensor& x) {
    Tensor y;
    forward_fused(x, Epilogue{}, y);
    return y;
}

void BatchNorm2d::forward_fused(const Tensor& x, const Epilogue& ep, Tensor& y) {
    if (x.shape().c != channels_)
        throw std::invalid_argument(name() + ": got input " + x.shape().str());
    const Shape s = x.shape();
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    const std::int64_t count = static_cast<std::int64_t>(s.n) * plane;
    y.resize(s);  // both modes write every element
    if (training_) {
        xhat_ = Tensor(s);
        batch_inv_std_.assign(static_cast<std::size_t>(channels_), 0.0f);
        // Channels normalise independently: each chunk owns its channels'
        // statistics, running-stat updates and output planes.
        core::parallel_for(0, channels_, 1, [&](std::int64_t c0, std::int64_t c1) {
        for (int c = static_cast<int>(c0); c < static_cast<int>(c1); ++c) {
            double sum = 0.0, sq = 0.0;
            for (int n = 0; n < s.n; ++n) {
                const float* xp = x.plane(n, c);
                for (std::int64_t i = 0; i < plane; ++i) {
                    sum += xp[i];
                    sq += static_cast<double>(xp[i]) * xp[i];
                }
            }
            const double mean = sum / static_cast<double>(count);
            const double var = sq / static_cast<double>(count) - mean * mean;
            const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
            batch_inv_std_[static_cast<std::size_t>(c)] = inv_std;
            running_mean_[c] =
                (1.0f - momentum_) * running_mean_[c] + momentum_ * static_cast<float>(mean);
            running_var_[c] =
                (1.0f - momentum_) * running_var_[c] + momentum_ * static_cast<float>(var);
            const float g = gamma_[c], b = beta_[c], m = static_cast<float>(mean);
            for (int n = 0; n < s.n; ++n) {
                const float* xp = x.plane(n, c);
                float* hp = xhat_.plane(n, c);
                float* yp = y.plane(n, c);
                for (std::int64_t i = 0; i < plane; ++i) {
                    const float h = (xp[i] - m) * inv_std;
                    hp[i] = h;
                    yp[i] = g * h + b;
                }
                apply_epilogue(ep, yp, plane);
            }
        }
        });
    } else {
        // The cached affine, or without a cache the same formula computed
        // for this call: a forward never writes the cache.
        const bool cached = has_affine();
        std::vector<float> local_scale, local_shift;
        if (!cached) fused_affine(local_scale, local_shift);
        const float* scale = (cached ? scale_ : local_scale).data();
        const float* shift = (cached ? shift_ : local_shift).data();
        core::parallel_for(0, channels_, 1, [&](std::int64_t c0, std::int64_t c1) {
        for (int c = static_cast<int>(c0); c < static_cast<int>(c1); ++c)
            for (int n = 0; n < s.n; ++n)
                apply_epilogue(ep, scale[c], shift[c], x.plane(n, c), y.plane(n, c), plane);
        });
    }
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
    const Shape s = grad_out.shape();
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    const std::int64_t count = static_cast<std::int64_t>(s.n) * plane;
    Tensor grad_in(s);
    core::parallel_for(0, channels_, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (int c = static_cast<int>(c0); c < static_cast<int>(c1); ++c) {
        double sum_g = 0.0, sum_gh = 0.0;
        for (int n = 0; n < s.n; ++n) {
            const float* gp = grad_out.plane(n, c);
            const float* hp = xhat_.plane(n, c);
            for (std::int64_t i = 0; i < plane; ++i) {
                sum_g += gp[i];
                sum_gh += static_cast<double>(gp[i]) * hp[i];
            }
        }
        grad_beta_[c] += static_cast<float>(sum_g);
        grad_gamma_[c] += static_cast<float>(sum_gh);
        const float g = gamma_[c];
        const float inv_std = batch_inv_std_[static_cast<std::size_t>(c)];
        const float mean_g = static_cast<float>(sum_g / static_cast<double>(count));
        const float mean_gh = static_cast<float>(sum_gh / static_cast<double>(count));
        for (int n = 0; n < s.n; ++n) {
            const float* gp = grad_out.plane(n, c);
            const float* hp = xhat_.plane(n, c);
            float* op = grad_in.plane(n, c);
            for (std::int64_t i = 0; i < plane; ++i)
                op[i] = g * inv_std * (gp[i] - mean_g - hp[i] * mean_gh);
        }
    }
    });
    return grad_in;
}

std::optional<Epilogue> BatchNorm2d::as_epilogue() const {
    if (!has_affine()) return std::nullopt;
    return Epilogue{.scale = scale_.data(), .shift = shift_.data()};
}

void BatchNorm2d::collect_params(std::vector<ParamRef>& out) {
    drop_affine();
    out.push_back({&gamma_, &grad_gamma_});
    out.push_back({&beta_, &grad_beta_});
}

void BatchNorm2d::collect_state(std::vector<Tensor*>& out) {
    drop_affine();
    out.push_back(&running_mean_);
    out.push_back(&running_var_);
}

void BatchNorm2d::set_training(bool training) {
    Module::set_training(training);
    if (training)
        drop_affine();
    else if (!has_affine())
        fused_affine(scale_, shift_);
}

void BatchNorm2d::fused_affine(std::vector<float>& scale, std::vector<float>& shift) const {
    scale.resize(static_cast<std::size_t>(channels_));
    shift.resize(static_cast<std::size_t>(channels_));
    for (int c = 0; c < channels_; ++c) {
        const float inv_std = 1.0f / std::sqrt(running_var_[c] + eps_);
        scale[static_cast<std::size_t>(c)] = gamma_[c] * inv_std;
        shift[static_cast<std::size_t>(c)] = beta_[c] - gamma_[c] * running_mean_[c] * inv_std;
    }
}

}  // namespace sky::nn
