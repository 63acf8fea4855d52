// Graph container: chain building, topology handling, concat/add joins,
// node outputs, shape/MAC inference, gradient routing through shared inputs.
#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/graph.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "nn/space_to_depth.hpp"

namespace sky::nn {
namespace {

TEST(Graph, LinearChainMatchesManual) {
    Rng rng(1);
    Graph g;
    auto pw = std::make_unique<PWConv1>(2, 3, true, rng);
    PWConv1* pw_raw = pw.get();
    int n = g.add(std::move(pw), g.input());
    n = g.add(std::make_unique<Activation>(Act::kReLU), n);
    g.set_output(n);

    Tensor x({1, 2, 2, 2});
    Rng r2(2);
    x.randn(r2);
    Tensor y = g.forward(x);

    Tensor manual = pw_raw->forward(x);
    for (std::int64_t i = 0; i < manual.size(); ++i)
        manual[i] = manual[i] > 0.0f ? manual[i] : 0.0f;
    ASSERT_EQ(y.size(), manual.size());
    for (std::int64_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y[i], manual[i]);
}

TEST(Graph, ChainShapeAndParamSum) {
    Rng rng(18);
    Graph g;
    g.emplace<Conv2d>(3, 8, 3, 1, 1, false, rng);
    g.emplace<BatchNorm2d>(8);
    g.emplace<Activation>(Act::kReLU);
    EXPECT_EQ(g.emplace<MaxPool2>(), 4);  // each append follows the last
    EXPECT_EQ(g.output_node(), 4);
    EXPECT_EQ(g.out_shape({1, 3, 16, 16}), (Shape{1, 8, 8, 8}));
    EXPECT_EQ(g.param_count(), 3 * 8 * 9 + 16);
}

TEST(Graph, ChainEnumerateListsLeaves) {
    Rng rng(19);
    Graph g;
    g.emplace<Conv2d>(3, 4, 3, 1, 1, false, rng);
    g.emplace<Activation>(Act::kReLU);
    std::vector<LayerInfo> layers;
    g.enumerate({1, 3, 8, 8}, layers);
    ASSERT_EQ(layers.size(), 2u);
    EXPECT_EQ(layers[0].kind, "conv");
    EXPECT_EQ(layers[1].kind, "act");
    EXPECT_EQ(layers[0].out, (Shape{1, 4, 8, 8}));
}

TEST(Graph, ConcatJoin) {
    Rng rng(3);
    Graph g;
    const int a = g.add(std::make_unique<PWConv1>(2, 3, false, rng), g.input());
    const int b = g.add(std::make_unique<PWConv1>(2, 5, false, rng), g.input());
    g.set_output(g.add_concat({a, b}));
    Tensor x({2, 2, 3, 3});
    Rng r2(4);
    x.randn(r2);
    Tensor y = g.forward(x);
    EXPECT_EQ(y.shape(), (Shape{2, 8, 3, 3}));
    EXPECT_EQ(g.out_shape({2, 2, 3, 3}), (Shape{2, 8, 3, 3}));
}

TEST(Graph, AddJoinIsElementwiseSum) {
    Rng rng(5);
    Graph g;
    const int a = g.add(std::make_unique<Activation>(Act::kReLU), g.input());
    const int s = g.add_add(a, g.input());
    g.set_output(s);
    Tensor x({1, 1, 1, 3}, std::vector<float>{-1.0f, 0.0f, 2.0f});
    Tensor y = g.forward(x);
    EXPECT_FLOAT_EQ(y[0], -1.0f);  // relu(-1) + (-1)
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 4.0f);  // relu(2) + 2
}

TEST(Graph, BackwardAccumulatesFanOut) {
    // Input feeds two branches; dL/dx must be the sum of both paths.
    Rng rng(6);
    Graph g;
    const int a = g.add(std::make_unique<PWConv1>(2, 2, false, rng), g.input());
    const int s = g.add_add(a, g.input());
    g.set_output(s);
    g.set_training(true);
    Tensor x({1, 2, 1, 1});
    Rng r2(7);
    x.randn(r2);
    (void)g.forward(x);
    Tensor go({1, 2, 1, 1}, 1.0f);
    Tensor gx = g.backward(go);
    // dL/dx = W^T * 1 + 1 per channel.
    const Tensor* w = nullptr;
    std::vector<ParamRef> ps;
    g.collect_params(ps);
    w = ps[0].value;
    for (int c = 0; c < 2; ++c) {
        float expect = 1.0f;
        for (int oc = 0; oc < 2; ++oc) expect += w->plane(oc, 0)[c];
        EXPECT_NEAR(gx[c], expect, 1e-5f);
    }
}

TEST(Graph, NodeOutputExposesIntermediates) {
    Rng rng(8);
    Graph g;
    const int mid = g.add(std::make_unique<PWConv1>(2, 4, false, rng), g.input());
    const int out = g.add(std::make_unique<MaxPool2>(), mid);
    g.set_output(out);
    Tensor x({1, 2, 4, 4});
    Rng r2(9);
    x.randn(r2);
    (void)g.forward(x);
    EXPECT_EQ(g.node_output(mid).shape(), (Shape{1, 4, 4, 4}));
    EXPECT_THROW((void)g.node_output(99), std::out_of_range);
}

TEST(Graph, MacsSumOverModules) {
    Rng rng(10);
    Graph g;
    auto p1 = std::make_unique<PWConv1>(4, 8, false, rng);
    const std::int64_t m1 = p1->macs({1, 4, 6, 6});
    int n = g.add(std::move(p1), g.input());
    auto p2 = std::make_unique<PWConv1>(8, 2, false, rng);
    const std::int64_t m2 = p2->macs({1, 8, 6, 6});
    n = g.add(std::move(p2), n);
    g.set_output(n);
    EXPECT_EQ(g.macs({1, 4, 6, 6}), m1 + m2);
}

TEST(Graph, EnumerateRecursesWithCorrectShapes) {
    Rng rng(11);
    Graph g;
    const int a = g.add(std::make_unique<SpaceToDepth>(2), g.input());
    const int out = g.add(std::make_unique<PWConv1>(8, 4, false, rng), a);
    g.set_output(out);
    std::vector<LayerInfo> layers;
    g.enumerate({1, 2, 4, 4}, layers);
    ASSERT_EQ(layers.size(), 2u);
    EXPECT_EQ(layers[0].kind, "reorder");
    EXPECT_EQ(layers[1].in, (Shape{1, 8, 2, 2}));
}

TEST(Graph, UnusedBranchGetsNoGradient) {
    // A node not on the output path must not break backward.
    Rng rng(12);
    Graph g;
    const int used = g.add(std::make_unique<PWConv1>(2, 2, false, rng), g.input());
    (void)g.add(std::make_unique<PWConv1>(2, 6, false, rng), g.input());  // dangling
    g.set_output(used);
    g.set_training(true);
    Tensor x({1, 2, 2, 2});
    Rng r2(13);
    x.randn(r2);
    (void)g.forward(x);
    Tensor go({1, 2, 2, 2}, 1.0f);
    EXPECT_NO_THROW((void)g.backward(go));
}

}  // namespace
}  // namespace sky::nn
