// Fixed-point quantisation: bit-true formats, calibration, monotone error
// in bit-width, snapshot/restore, FM hook behaviour, and the ReLU6 dynamic-
// range advantage the paper exploits.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/graph.hpp"
#include "nn/pwconv.hpp"
#include "quant/qmodel.hpp"
#include "quant/quantizer.hpp"

namespace sky::quant {
namespace {

TEST(FixedPoint, StepAndRange) {
    FixedPointFormat f{8, 4};
    EXPECT_DOUBLE_EQ(f.step(), 1.0 / 16.0);
    EXPECT_DOUBLE_EQ(f.max_val(), 127.0 / 16.0);
    EXPECT_DOUBLE_EQ(f.min_val(), -8.0);
}

TEST(FixedPoint, QuantizeRoundsToGrid) {
    FixedPointFormat f{8, 4};
    EXPECT_FLOAT_EQ(f.quantize(0.10f), 0.125f);   // nearest multiple of 1/16
    EXPECT_FLOAT_EQ(f.quantize(-0.01f), 0.0f);
    EXPECT_FLOAT_EQ(f.quantize(100.0f), static_cast<float>(f.max_val()));  // saturates
    EXPECT_FLOAT_EQ(f.quantize(-100.0f), static_cast<float>(f.min_val()));
}

TEST(FixedPoint, ChooseFormatCoversRange) {
    for (float amax : {0.1f, 0.9f, 3.0f, 5.9f, 17.0f, 200.0f}) {
        const FixedPointFormat f = choose_format(12, amax);
        EXPECT_GE(f.max_val(), amax * 0.999) << amax;
        // And not wastefully large: one fewer integer bit must not cover.
        FixedPointFormat tighter{12, f.frac_bits + 1};
        EXPECT_LT(tighter.max_val(), amax) << amax;
    }
}

TEST(FixedPoint, MoreBitsLessError) {
    Rng rng(1);
    Tensor t({1, 1, 32, 32});
    t.randn(rng);
    double prev = 1e9;
    for (int bits : {6, 8, 10, 12, 14}) {
        const double mse = quantization_mse(t, choose_format(bits, t.abs_max()));
        EXPECT_LT(mse, prev) << bits;
        prev = mse;
    }
}

TEST(FixedPoint, BoundedRangeQuantizesBetter) {
    // The ReLU6 rationale: a [0,6]-bounded tensor has lower quantisation
    // error than an unbounded one at the same bit-width.
    Rng rng(2);
    Tensor bounded({1, 1, 64, 64});
    bounded.rand_uniform(rng, 0.0f, 6.0f);
    Tensor unbounded({1, 1, 64, 64});
    unbounded.randn(rng, 3.0f, 15.0f);
    const int bits = 8;
    const double mse_b =
        quantization_mse(bounded, choose_format(bits, bounded.abs_max()));
    const double mse_u =
        quantization_mse(unbounded, choose_format(bits, unbounded.abs_max()));
    EXPECT_LT(mse_b, mse_u);
}

TEST(Quantizer, SnapshotRestores) {
    Rng rng(3);
    nn::Graph net;
    net.emplace<nn::PWConv1>(4, 4, true, rng);
    std::vector<nn::ParamRef> ps;
    net.collect_params(ps);
    const Tensor before = *ps[0].value;
    ParamSnapshot snap(net);
    quantize_weights(net, 3);  // aggressive: changes weights
    bool changed = false;
    for (std::int64_t i = 0; i < before.size(); ++i)
        changed |= std::fabs((*ps[0].value)[i] - before[i]) > 1e-9f;
    EXPECT_TRUE(changed);
    snap.restore();
    for (std::int64_t i = 0; i < before.size(); ++i)
        EXPECT_FLOAT_EQ((*ps[0].value)[i], before[i]);
}

TEST(Quantizer, WeightBytesScaleWithBits) {
    Rng rng(4);
    nn::Graph net;
    net.emplace<nn::PWConv1>(8, 8, false, rng);
    ParamSnapshot snap(net);
    const std::int64_t b8 = quantize_weights(net, 8);
    snap.restore();
    const std::int64_t b16 = quantize_weights(net, 16);
    snap.restore();
    EXPECT_EQ(b16, 2 * b8);
    EXPECT_EQ(b8, 64);  // 64 weights at 1 byte
}

TEST(Quantizer, FmHookQuantizesActivationsInEval) {
    Rng rng(5);
    nn::Graph net;
    net.emplace<nn::PWConv1>(2, 2, false, rng);
    net.emplace<nn::Activation>(nn::Act::kReLU);
    net.set_training(false);
    Tensor x({1, 2, 4, 4});
    Rng r2(6);
    x.randn(r2);
    Tensor clean = net.forward(x);
    {
        nn::FmHookGuard guard(make_fm_hook(4));  // very coarse
        Tensor q = net.forward(x);
        bool changed = false;
        for (std::int64_t i = 0; i < clean.size(); ++i)
            changed |= std::fabs(q[i] - clean[i]) > 1e-7f;
        EXPECT_TRUE(changed);
    }
    // Guard restored: output clean again.
    Tensor after = net.forward(x);
    for (std::int64_t i = 0; i < clean.size(); ++i) EXPECT_FLOAT_EQ(after[i], clean[i]);
}

TEST(Quantizer, Table7SchemeTable) {
    const auto schemes = table7_schemes();
    ASSERT_EQ(schemes.size(), 5u);
    EXPECT_EQ(schemes[0].fm_bits, 0);
    EXPECT_EQ(schemes[1].fm_bits, 9);
    EXPECT_EQ(schemes[1].weight_bits, 11);
    EXPECT_EQ(schemes[4].fm_bits, 8);
    EXPECT_EQ(schemes[4].weight_bits, 10);
}

TEST(QModel, QuantizedEvalLeavesWeightsIntact) {
    Rng rng(7);
    nn::Graph net;
    net.emplace<nn::PWConv1>(3, 10, true, rng);
    std::vector<nn::ParamRef> ps;
    net.collect_params(ps);
    const Tensor before = *ps[0].value;
    data::DetectionDataset ds({32, 64, 1, false, 5});
    const data::DetectionBatch val = ds.validation(4);
    const detect::YoloHead head;
    (void)detector_iou_quantized(net, head, val, 8, 8);
    for (std::int64_t i = 0; i < before.size(); ++i)
        EXPECT_FLOAT_EQ((*ps[0].value)[i], before[i]);
}

}  // namespace
}  // namespace sky::quant
