// Deployment passes: BN folding must preserve eval-mode outputs exactly (up
// to float rounding) while removing the BN layers; the model-summary report
// must account MACs/params consistently.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "deploy/fold_bn.hpp"
#include "deploy/memory_plan.hpp"

#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dwconv.hpp"
#include "nn/linear.hpp"
#include "nn/pwconv.hpp"
#include "deploy/report.hpp"
#include "detect/nms.hpp"
#include "detect/yolo_head.hpp"
#include "skynet/skynet_model.hpp"

namespace sky::deploy {
namespace {

/// Run random data through the net in eval mode.
Tensor eval_forward(nn::Module& net, const Shape& in_shape, std::uint64_t seed) {
    net.set_training(false);
    Tensor x(in_shape);
    Rng rng(seed);
    x.rand_uniform(rng, 0.0f, 1.0f);
    return net.forward(x);
}

/// Train-mode warmup so BN running stats are meaningful.
void warm_bn(nn::Module& net, const Shape& in_shape) {
    net.set_training(true);
    Rng rng(123);
    for (int i = 0; i < 3; ++i) {
        Tensor x(in_shape);
        x.randn(rng, 0.3f, 0.8f);
        (void)net.forward(x);
    }
}

TEST(FoldBn, ChainConvBnFoldsExactly) {
    Rng rng(1);
    nn::Graph g;
    g.emplace<nn::Conv2d>(3, 8, 3, 1, 1, /*bias=*/false, rng);
    g.emplace<nn::BatchNorm2d>(8);
    g.emplace<nn::Activation>(nn::Act::kReLU6);
    g.emplace<nn::DWConv3>(8, rng);
    g.emplace<nn::BatchNorm2d>(8);
    g.emplace<nn::PWConv1>(8, 4, /*bias=*/true, rng);
    g.emplace<nn::BatchNorm2d>(4);
    warm_bn(g, {2, 3, 8, 8});
    const Tensor before = eval_forward(g, {1, 3, 8, 8}, 7);

    EXPECT_EQ(fold_graph_bn(g), 3);
    const Tensor after = eval_forward(g, {1, 3, 8, 8}, 7);
    ASSERT_EQ(before.size(), after.size());
    for (std::int64_t i = 0; i < before.size(); ++i)
        EXPECT_NEAR(before[i], after[i], 1e-4f) << i;

    // No BN layers remain; each became an Identity, and the depthwise conv
    // took its shift as its own bias.
    std::vector<nn::LayerInfo> layers;
    g.enumerate({1, 3, 8, 8}, layers);
    for (const auto& li : layers) EXPECT_NE(li.kind, "bn");
    EXPECT_EQ(g.node_module(5)->name(), "Identity");
    EXPECT_TRUE(dynamic_cast<const nn::DWConv3&>(*g.node_module(4)).has_bias());
}

TEST(FoldBn, NestedGraphBnIsLeftAlone) {
    // fold_graph_bn folds a graph's own nodes; a nested graph is one opaque
    // node to it, so its BN survives (and the output stays the same).
    Rng rng(2);
    auto inner = std::make_unique<nn::Graph>();
    inner->emplace<nn::PWConv1>(4, 6, false, rng);
    inner->emplace<nn::BatchNorm2d>(6);
    nn::Graph outer;
    outer.emplace<nn::Conv2d>(3, 4, 3, 1, 1, false, rng);
    outer.emplace<nn::BatchNorm2d>(4);
    const int nested = outer.add(std::move(inner));
    warm_bn(outer, {2, 3, 6, 6});
    const Tensor before = eval_forward(outer, {1, 3, 6, 6}, 9);

    EXPECT_EQ(fold_graph_bn(outer), 1);
    EXPECT_EQ(outer.node_module(2)->name(), "Identity");
    std::vector<nn::LayerInfo> layers;
    outer.node_module(static_cast<std::size_t>(nested))->enumerate({1, 4, 6, 6}, layers);
    ASSERT_EQ(layers.size(), 2u);
    EXPECT_EQ(layers[1].kind, "bn");
    const Tensor after = eval_forward(outer, {1, 3, 6, 6}, 9);
    ASSERT_EQ(before.size(), after.size());
    for (std::int64_t i = 0; i < before.size(); ++i)
        EXPECT_NEAR(before[i], after[i], 1e-4f) << i;
}

TEST(FoldBn, SkyNetGraphFoldsAllBn) {
    Rng rng(3);
    SkyNetModel m = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.2f}, rng);
    warm_bn(*m.net, {2, 3, 32, 64});
    const Tensor before = eval_forward(*m.net, {1, 3, 32, 64}, 11);

    const int folded = fold_graph_bn(*m.net);
    // Model C has 12 conv layers with BN (6 bundles x 2 convs).
    EXPECT_EQ(folded, 12);
    const Tensor after = eval_forward(*m.net, {1, 3, 32, 64}, 11);
    for (std::int64_t i = 0; i < before.size(); ++i)
        EXPECT_NEAR(before[i], after[i], 2e-4f) << i;
}

TEST(FoldBn, GraphFoldSkipsSharedConvOutputs) {
    // If the conv output feeds both a BN and something else, folding would
    // change the other consumer: the pass must leave it alone.
    Rng rng(4);
    nn::Graph g;
    const int conv = g.add(std::make_unique<nn::PWConv1>(2, 2, false, rng), g.input());
    const int bn = g.add(std::make_unique<nn::BatchNorm2d>(2), conv);
    const int sum = g.add_add(bn, conv);  // second consumer of `conv`
    g.set_output(sum);
    warm_bn(g, {2, 2, 4, 4});
    EXPECT_EQ(fold_graph_bn(g), 0);
}

TEST(FoldBn, DwConvTakesTheBnShiftAsItsBias) {
    // A BN after a depthwise conv folds like one after any conv: the scale
    // multiplies each channel's 9 taps, and the shift becomes the conv's own
    // bias, bit for bit — a parameter, so a checkpoint carries it.
    Rng rng(5);
    nn::Graph g;
    const int d = g.emplace<nn::DWConv3>(4, rng);
    const int b = g.emplace<nn::BatchNorm2d>(4);
    auto& bn = dynamic_cast<nn::BatchNorm2d&>(*g.node_module(static_cast<std::size_t>(b)));
    for (int c = 0; c < 4; ++c) {
        bn.gamma()[c] = 0.5f + 0.25f * static_cast<float>(c);
        bn.beta()[c] = 0.125f * static_cast<float>(c) - 0.2f;
    }
    warm_bn(g, {2, 4, 6, 6});
    std::vector<float> scale, shift;
    bn.fused_affine(scale, shift);
    auto& dw = dynamic_cast<nn::DWConv3&>(*g.node_module(static_cast<std::size_t>(d)));
    const Tensor w = dw.weight();
    EXPECT_FALSE(dw.has_bias());
    EXPECT_EQ(dw.param_count(), 4 * 9);

    EXPECT_EQ(fold_graph_bn(g), 1);
    EXPECT_EQ(g.node_module(static_cast<std::size_t>(b))->name(), "Identity");
    ASSERT_TRUE(dw.has_bias());
    const auto bits = [](float v) {
        std::uint32_t u = 0;
        std::memcpy(&u, &v, sizeof u);
        return u;
    };
    for (int c = 0; c < 4; ++c) {
        EXPECT_EQ(bits(dw.bias()[c]), bits(shift[static_cast<std::size_t>(c)])) << c;
        for (int t = 0; t < 9; ++t)
            EXPECT_EQ(bits(dw.weight()[c * 9 + t]),
                      bits(w[c * 9 + t] * scale[static_cast<std::size_t>(c)]))
                << c << "/" << t;
    }
    std::vector<nn::ParamRef> params;
    dw.collect_params(params);
    ASSERT_EQ(params.size(), 2u);
    EXPECT_EQ(params[1].value, &dw.bias());
    EXPECT_EQ(dw.param_count(), 4 * 10);
}

TEST(FoldBn, LinearTakesTheBnAsItsBias) {
    // Linear is a conv layer too (a 1x1 conv over its flattened input), so a
    // BN after it folds into its weight rows and bias like after any conv.
    Rng rng(6);
    nn::Graph g;
    g.emplace<nn::Linear>(2 * 3 * 3, 5, rng);
    g.emplace<nn::BatchNorm2d>(5);
    warm_bn(g, {4, 2, 3, 3});
    const Tensor before = eval_forward(g, {1, 2, 3, 3}, 13);

    EXPECT_EQ(fold_graph_bn(g), 1);
    EXPECT_EQ(g.node_module(2)->name(), "Identity");
    const Tensor after = eval_forward(g, {1, 2, 3, 3}, 13);
    ASSERT_EQ(before.size(), after.size());
    for (std::int64_t i = 0; i < before.size(); ++i)
        EXPECT_NEAR(before[i], after[i], 1e-4f) << i;
}

// ------------------------------------------------------------ plan_tensors --

TEST(PlanTensors, RejectsMalformedEdgesAndOutputs) {
    // Node 1 reads node 2: a forward edge.
    EXPECT_THROW((void)plan_tensors({{{}, 4}, {{2}, 4}, {{0}, 4}}, 2), std::invalid_argument);
    EXPECT_THROW((void)plan_tensors({{{}, 4}, {{1}, 4}}, 1), std::invalid_argument);  // self
    EXPECT_THROW((void)plan_tensors({{{}, 4}, {{-1}, 4}}, 1), std::invalid_argument);
    // The output node must exist.
    EXPECT_THROW((void)plan_tensors({{{}, 4}, {{0}, 4}}, 2), std::invalid_argument);
    EXPECT_THROW((void)plan_tensors({{{}, 4}, {{0}, 4}}, -1), std::invalid_argument);
    // Node 2 reads node 1, which is elided (0 bytes); reading past it is fine.
    EXPECT_THROW((void)plan_tensors({{{}, 4}, {{0}, 0}, {{1}, 4}}, 2), std::invalid_argument);
    const MemoryPlan ok = plan_tensors({{{}, 4}, {{0}, 0}, {{0}, 4}}, 2);
    EXPECT_EQ(ok.tensors[1].slot, -1);
    EXPECT_EQ(ok.total_bytes, 8);
}

TEST(PlanTensors, DiamondPeakArenaAndSlotsAreExact) {
    // input -> a, input -> b, concat(a, b).  The input dies after b runs, so
    // the concat takes its slot and grows it; a and b keep theirs.
    const MemoryPlan p =
        plan_tensors({{{}, 100}, {{0}, 200}, {{0}, 300}, {{1, 2}, 500}}, 3);
    EXPECT_EQ(p.peak_bytes, 1000);  // a + b + concat live while the concat runs
    EXPECT_EQ(p.total_bytes, 1100);
    EXPECT_EQ(p.arena_bytes, 500 + 200 + 300);
    ASSERT_EQ(p.slots.size(), 3u);
    EXPECT_EQ(p.slots[0].tenants, (std::vector<int>{0, 3}));
    EXPECT_EQ(p.slots[1].tenants, (std::vector<int>{1}));
    EXPECT_EQ(p.slots[2].tenants, (std::vector<int>{2}));
    EXPECT_EQ(p.slots[0].bytes, 500);
    const std::vector<int> last = {2, 3, 3, 4};
    for (std::size_t i = 0; i < last.size(); ++i) EXPECT_EQ(p.tensors[i].last, last[i]) << i;
}

TEST(PlanTensors, OutputStaysLiveToTheEndOfThePass) {
    // A chain whose output is node 1: node 2 reads it at step 2, but it must
    // survive to the end of the pass, so node 3 cannot reuse its slot.
    const MemoryPlan p =
        plan_tensors({{{}, 100}, {{0}, 100}, {{1}, 100}, {{2}, 100}}, 1);
    EXPECT_EQ(p.tensors[1].last, 4);
    EXPECT_EQ(p.peak_bytes, 300);
    EXPECT_EQ(p.slots[static_cast<std::size_t>(p.tensors[1].slot)].tenants,
              (std::vector<int>{1}));
}

TEST(Report, SummaryTotalsMatchModule) {
    Rng rng(5);
    SkyNetModel m = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    const Shape in{1, 3, 80, 160};
    const ModelSummary s = summarize(*m.net, in, hwsim::tx2());
    EXPECT_EQ(s.total_macs, m.net->macs(in));
    EXPECT_EQ(s.total_params, m.net->param_count());
    EXPECT_GT(s.rows.size(), 30u);
    // Depthwise layers on a GPU-class roofline are memory-bound.
    for (const auto& r : s.rows) {
        if (r.info.kind == "dwconv") {
            EXPECT_FALSE(r.compute_bound);
        }
    }
}

TEST(Report, PrintSummaryWritesTable) {
    Rng rng(6);
    SkyNetModel m = build_skynet({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.15f}, rng);
    const ModelSummary s = summarize(*m.net, {1, 3, 32, 64}, hwsim::ultra96());
    const std::string path = std::string(::testing::TempDir()) + "summary.txt";
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    print_summary(s, "test model", f);
    std::fclose(f);
    std::ifstream in(path);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(all.find("test model"), std::string::npos);
    EXPECT_NE(all.find("dwconv"), std::string::npos);
    EXPECT_NE(all.find("total:"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Nms, SuppressesOverlapsKeepsBest) {
    std::vector<detect::Detection> dets = {
        {{0.5f, 0.5f, 0.2f, 0.2f}, 0.9f},
        {{0.51f, 0.5f, 0.2f, 0.2f}, 0.8f},  // heavy overlap with #1
        {{0.2f, 0.2f, 0.1f, 0.1f}, 0.7f},
    };
    const auto kept = detect::nms(dets, 0.45f);
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_FLOAT_EQ(kept[0].score, 0.9f);
    EXPECT_FLOAT_EQ(kept[1].score, 0.7f);
}

TEST(Nms, ThresholdOneKeepsAll) {
    std::vector<detect::Detection> dets = {
        {{0.5f, 0.5f, 0.2f, 0.2f}, 0.9f},
        {{0.5f, 0.5f, 0.2f, 0.2f}, 0.8f},
    };
    EXPECT_EQ(detect::nms(dets, 1.1f).size(), 2u);
}

TEST(Nms, DecodeAllFindsPlantedObjects) {
    // Plant two confident cells far apart; decode_all must return both.
    detect::YoloHead h;
    Tensor raw({1, 10, 8, 8});
    raw.fill(-10.0f);
    raw.plane(0, 4)[1 * 8 + 1] = 8.0f;  // anchor 0 at (1,1)
    raw.plane(0, 9)[6 * 8 + 6] = 8.0f;  // anchor 1 at (6,6)
    const auto dets = h.decode_all(raw, 0.5f, 0.45f);
    ASSERT_EQ(dets.size(), 1u);
    EXPECT_EQ(dets[0].size(), 2u);
}

}  // namespace
}  // namespace sky::deploy
