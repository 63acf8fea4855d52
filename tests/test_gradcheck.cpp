// Numerical gradient checks for every trainable layer: backward() must
// match central finite differences of forward() for both the input and all
// parameters.  The loss is a fixed random projection of the output so every
// output element contributes.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dwconv.hpp"
#include "nn/graph.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "nn/shuffle.hpp"
#include "nn/space_to_depth.hpp"

namespace sky::nn {
namespace {

double projected_loss(Module& m, const Tensor& x, const Tensor& proj) {
    Tensor y = m.forward(x);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.size(); ++i)
        acc += static_cast<double>(y[i]) * proj[i];
    return acc;
}

/// Check input and parameter gradients of `m` at input shape `in_shape`.
void grad_check(Module& m, Shape in_shape, double tol = 2e-2, std::uint64_t seed = 77) {
    Rng rng(seed);
    Tensor x(in_shape);
    x.randn(rng, 0.0f, 1.0f);
    m.set_training(true);

    Tensor y = m.forward(x);
    Tensor proj(y.shape());
    proj.randn(rng, 0.0f, 1.0f);

    std::vector<ParamRef> params;
    m.collect_params(params);
    for (auto& p : params) p.grad->zero();

    // Analytic gradients.
    Tensor gin = m.backward(proj);

    const float eps = 1e-3f;
    // Input gradient at a sample of positions.
    Rng pick(seed ^ 0xF00D);
    const int samples = 12;
    for (int s = 0; s < samples; ++s) {
        const std::int64_t i = pick.uniform_int(0, static_cast<int>(x.size() - 1));
        const float orig = x[i];
        x[i] = orig + eps;
        const double lp = projected_loss(m, x, proj);
        x[i] = orig - eps;
        const double lm = projected_loss(m, x, proj);
        x[i] = orig;
        const double num = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(gin[i], num, tol * std::max(1.0, std::abs(num)))
            << m.name() << " input grad at " << i;
    }
    // Parameter gradients at a sample of positions per tensor.
    for (auto& p : params) {
        Tensor& w = *p.value;
        Tensor& g = *p.grad;
        for (int s = 0; s < 6; ++s) {
            const std::int64_t i = pick.uniform_int(0, static_cast<int>(w.size() - 1));
            const float orig = w[i];
            w[i] = orig + eps;
            const double lp = projected_loss(m, x, proj);
            w[i] = orig - eps;
            const double lm = projected_loss(m, x, proj);
            w[i] = orig;
            const double num = (lp - lm) / (2.0 * eps);
            EXPECT_NEAR(g[i], num, tol * std::max(1.0, std::abs(num)))
                << m.name() << " param grad at " << i;
        }
    }
}

TEST(GradCheck, Conv2d3x3) {
    Rng rng(1);
    Conv2d m(3, 5, 3, 1, 1, /*bias=*/true, rng);
    grad_check(m, {2, 3, 6, 7});
}

TEST(GradCheck, Conv2dStride2) {
    Rng rng(2);
    Conv2d m(4, 6, 3, 2, 1, /*bias=*/false, rng);
    grad_check(m, {2, 4, 8, 8});
}

TEST(GradCheck, Conv2d1x1) {
    Rng rng(3);
    Conv2d m(6, 4, 1, 1, 0, /*bias=*/true, rng);
    grad_check(m, {1, 6, 5, 5});
}

TEST(GradCheck, Conv2d5x5) {
    Rng rng(4);
    Conv2d m(2, 3, 5, 1, 2, /*bias=*/false, rng);
    grad_check(m, {1, 2, 8, 8});
}

TEST(GradCheck, DWConv3) {
    Rng rng(5);
    DWConv3 m(6, rng);
    grad_check(m, {2, 6, 7, 6});
    DWConv3 biased(6, rng);  // the bias a folded BatchNorm leaves behind
    biased.enable_bias();
    grad_check(biased, {2, 6, 7, 6});
}

TEST(GradCheck, PWConv1) {
    Rng rng(6);
    PWConv1 m(8, 5, /*bias=*/true, rng);
    grad_check(m, {2, 8, 4, 5});
}

TEST(GradCheck, PWConv1Grouped) {
    Rng rng(7);
    PWConv1 m(8, 6, /*bias=*/false, rng, /*groups=*/2);
    grad_check(m, {2, 8, 4, 4});
}

TEST(GradCheck, BatchNorm) {
    BatchNorm2d m(5);
    grad_check(m, {3, 5, 4, 4}, 3e-2);
}

TEST(GradCheck, ReLU) {
    Activation m(Act::kReLU);
    grad_check(m, {2, 3, 5, 5});
}

TEST(GradCheck, ReLU6) {
    Activation m(Act::kReLU6);
    grad_check(m, {2, 3, 5, 5});
}

TEST(GradCheck, LeakyReLU) {
    Activation m(Act::kLeaky);
    grad_check(m, {2, 3, 5, 5});
}

TEST(GradCheck, Sigmoid) {
    Activation m(Act::kSigmoid);
    grad_check(m, {2, 3, 5, 5});
}

TEST(GradCheck, MaxPool2) {
    MaxPool2 m;
    grad_check(m, {2, 3, 6, 8});
}

TEST(GradCheck, GlobalAvgPool) {
    GlobalAvgPool m;
    grad_check(m, {2, 4, 5, 5});
}

TEST(GradCheck, Linear) {
    Rng rng(8);
    Linear m(12, 7, rng);
    grad_check(m, {3, 12, 1, 1});
}

TEST(GradCheck, SpaceToDepth) {
    SpaceToDepth m(2);
    grad_check(m, {2, 3, 6, 8});
}

TEST(GradCheck, ChannelShuffle) {
    ChannelShuffle m(3);
    grad_check(m, {2, 6, 4, 4});
}

TEST(GradCheck, GraphChain) {
    Rng rng(9);
    Graph g;
    g.emplace<Conv2d>(3, 6, 3, 1, 1, false, rng);
    g.emplace<BatchNorm2d>(6);
    g.emplace<Activation>(Act::kReLU6);
    g.emplace<MaxPool2>();
    g.emplace<PWConv1>(6, 4, true, rng);
    grad_check(g, {2, 3, 8, 8}, 3e-2);
}

TEST(GradCheck, GraphWithConcat) {
    Rng rng(10);
    Graph g;
    const int a = g.add(std::make_unique<PWConv1>(4, 6, false, rng), g.input());
    const int b = g.add(std::make_unique<DWConv3>(4, rng), g.input());
    const int cat = g.add_concat({a, b});
    const int out = g.add(std::make_unique<PWConv1>(10, 3, true, rng), cat);
    g.set_output(out);
    grad_check(g, {2, 4, 5, 5});
}

TEST(GradCheck, GraphWithAdd) {
    Rng rng(11);
    Graph g;
    const int a = g.add(std::make_unique<PWConv1>(4, 4, false, rng), g.input());
    const int sum = g.add_add(a, g.input());
    const int out = g.add(std::make_unique<Activation>(Act::kReLU), sum);
    g.set_output(out);
    grad_check(g, {2, 4, 4, 4});
}

}  // namespace
}  // namespace sky::nn
