// Layer semantics: output shapes, parameter counts, MAC counts, and the
// behavioural contracts (ReLU6 clipping, BN normalisation, pooling argmax,
// reordering losslessness, channel shuffle permutation).
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/optimizer.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dwconv.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "nn/shuffle.hpp"
#include "nn/space_to_depth.hpp"

namespace sky::nn {
namespace {

TEST(Conv2d, OutShapeAndParams) {
    Rng rng(1);
    Conv2d c(16, 32, 3, 1, 1, /*bias=*/false, rng);
    EXPECT_EQ(c.out_shape({1, 16, 20, 40}), (Shape{1, 32, 20, 40}));
    EXPECT_EQ(c.param_count(), 16 * 32 * 9);
    Conv2d s(16, 32, 3, 2, 1, /*bias=*/true, rng);
    EXPECT_EQ(s.out_shape({1, 16, 20, 40}), (Shape{1, 32, 10, 20}));
    EXPECT_EQ(s.param_count(), 16 * 32 * 9 + 32);
}

TEST(Conv2d, MacCount) {
    Rng rng(1);
    Conv2d c(8, 16, 3, 1, 1, false, rng);
    // out 1x16x4x4, each from 8*9 MACs
    EXPECT_EQ(c.macs({1, 8, 4, 4}), 16LL * 4 * 4 * 8 * 9);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
    Rng rng(2);
    Conv2d c(1, 1, 3, 1, 1, false, rng);
    c.weight().zero();
    c.weight().at(0, 0, 1, 1) = 1.0f;  // centre tap
    Tensor x({1, 1, 4, 4});
    for (int i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
    Tensor y = c.forward(x);
    for (int i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, RejectsWrongChannelCount) {
    Rng rng(3);
    Conv2d c(3, 4, 3, 1, 1, false, rng);
    Tensor x({1, 5, 4, 4});
    EXPECT_THROW((void)c.forward(x), std::invalid_argument);
}

TEST(DWConv3, PreservesShapeAndChannelIsolation) {
    Rng rng(4);
    DWConv3 dw(3, rng);
    EXPECT_EQ(dw.out_shape({2, 3, 8, 8}), (Shape{2, 3, 8, 8}));
    EXPECT_EQ(dw.param_count(), 27);
    // Zero the filter of channel 1: its output must be all zero regardless
    // of other channels (depthwise isolation).
    for (int i = 0; i < 9; ++i) dw.weight().plane(1, 0)[i] = 0.0f;
    Tensor x({1, 3, 6, 6});
    Rng r2(5);
    x.randn(r2);
    Tensor y = dw.forward(x);
    for (int i = 0; i < 36; ++i) EXPECT_FLOAT_EQ(y.plane(0, 1)[i], 0.0f);
}

TEST(DWConv3, MatchesGenericGroupedConv) {
    // DWConv3 must equal Conv2d applied per channel with the same weights.
    Rng rng(6);
    DWConv3 dw(2, rng);
    Tensor x({1, 2, 5, 7});
    Rng r2(7);
    x.randn(r2);
    Tensor y = dw.forward(x);
    for (int c = 0; c < 2; ++c) {
        Rng r3(1);
        Conv2d ref(1, 1, 3, 1, 1, false, r3);
        for (int i = 0; i < 9; ++i) ref.weight().plane(0, 0)[i] = dw.weight().plane(c, 0)[i];
        Tensor xc({1, 1, 5, 7});
        std::copy_n(x.plane(0, c), 35, xc.data());
        Tensor yc = ref.forward(xc);
        for (int i = 0; i < 35; ++i)
            EXPECT_NEAR(y.plane(0, c)[i], yc[i], 1e-5f) << "channel " << c;
    }
}

TEST(PWConv1, EqualsPerPixelMatMul) {
    Rng rng(8);
    PWConv1 pw(3, 2, /*bias=*/true, rng);
    Tensor x({1, 3, 2, 2});
    Rng r2(9);
    x.randn(r2);
    Tensor y = pw.forward(x);
    for (int oc = 0; oc < 2; ++oc)
        for (int p = 0; p < 4; ++p) {
            float expect = pw.bias()[oc];
            for (int ic = 0; ic < 3; ++ic)
                expect += pw.weight().plane(oc, 0)[ic] * x.plane(0, ic)[p];
            EXPECT_NEAR(y.plane(0, oc)[p], expect, 1e-5f);
        }
}

TEST(PWConv1, GroupedParamsAndIsolation) {
    Rng rng(10);
    PWConv1 pw(8, 8, false, rng, /*groups=*/4);
    EXPECT_EQ(pw.param_count(), 8 * 2);
    // Output channel 0 (group 0) must ignore input channels 2..7.
    Tensor x({1, 8, 2, 2});
    Tensor x2 = x;
    Rng r2(11);
    x.randn(r2);
    x2 = x;
    for (int c = 2; c < 8; ++c)
        for (int p = 0; p < 4; ++p) x2.plane(0, c)[p] += 5.0f;
    Tensor y1 = pw.forward(x);
    Tensor y2 = pw.forward(x2);
    for (int p = 0; p < 4; ++p) EXPECT_FLOAT_EQ(y1.plane(0, 0)[p], y2.plane(0, 0)[p]);
}

TEST(BatchNorm, NormalisesTrainingBatch) {
    BatchNorm2d bn(2);
    bn.set_training(true);
    Rng rng(12);
    Tensor x({4, 2, 8, 8});
    x.randn(rng, 3.0f, 2.0f);
    Tensor y = bn.forward(x);
    // Per-channel output should be ~N(0,1).
    for (int c = 0; c < 2; ++c) {
        double sum = 0.0, sq = 0.0;
        for (int n = 0; n < 4; ++n) {
            const float* p = y.plane(n, c);
            for (int i = 0; i < 64; ++i) {
                sum += p[i];
                sq += static_cast<double>(p[i]) * p[i];
            }
        }
        const double mean = sum / 256.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(sq / 256.0 - mean * mean, 1.0, 1e-3);
    }
}

TEST(BatchNorm, EvalUsesRunningStats) {
    BatchNorm2d bn(1, /*momentum=*/1.0f);  // running stats = last batch
    bn.set_training(true);
    Rng rng(13);
    Tensor x({8, 1, 4, 4});
    x.randn(rng, -1.0f, 0.5f);
    (void)bn.forward(x);
    bn.set_training(false);
    // A constant eval input equal to the running mean must map to ~beta (0).
    Tensor probe({1, 1, 2, 2}, bn.running_mean()[0]);
    Tensor y = bn.forward(probe);
    EXPECT_NEAR(y[0], 0.0f, 1e-4f);
}

TEST(BatchNorm, FusedAffineMatchesEval) {
    BatchNorm2d bn(3, 0.5f);
    bn.set_training(true);
    Rng rng(14);
    Tensor x({4, 3, 4, 4});
    x.randn(rng, 2.0f, 1.5f);
    (void)bn.forward(x);
    bn.set_training(false);
    std::vector<float> scale, shift;
    bn.fused_affine(scale, shift);
    Tensor probe({1, 3, 1, 1});
    probe.randn(rng);
    Tensor y = bn.forward(probe);
    for (int c = 0; c < 3; ++c)
        EXPECT_NEAR(y.at(0, c, 0, 0), scale[static_cast<std::size_t>(c)] * probe.at(0, c, 0, 0) +
                                          shift[static_cast<std::size_t>(c)],
                    1e-5f);
}

TEST(Activation, ReLU6Clips) {
    Activation a(Act::kReLU6);
    Tensor x({1, 1, 1, 5}, std::vector<float>{-2.0f, 0.0f, 3.0f, 6.0f, 9.0f});
    Tensor y = a.forward(x);
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 3.0f);
    EXPECT_FLOAT_EQ(y[3], 6.0f);
    EXPECT_FLOAT_EQ(y[4], 6.0f);
}

TEST(Activation, ReLU6BoundsDynamicRange) {
    // The paper's hardware rationale: ReLU6 outputs always fit [0, 6].
    Activation a(Act::kReLU6);
    Rng rng(15);
    Tensor x({2, 4, 8, 8});
    x.randn(rng, 0.0f, 10.0f);
    Tensor y = a.forward(x);
    EXPECT_GE(y.min(), 0.0f);
    EXPECT_LE(y.max(), 6.0f);
}

TEST(MaxPool2, TakesWindowMax) {
    MaxPool2 p;
    Tensor x({1, 1, 2, 4}, std::vector<float>{1, 5, 2, 0, 3, -1, 7, 4});
    Tensor y = p.forward(x);
    EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
    EXPECT_FLOAT_EQ(y[0], 5.0f);
    EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(MaxPool2, BackwardRoutesToArgmax) {
    MaxPool2 p;
    Tensor x({1, 1, 2, 2}, std::vector<float>{1, 9, 2, 3});
    (void)p.forward(x);
    Tensor g({1, 1, 1, 1}, 2.5f);
    Tensor gx = p.backward(g);
    EXPECT_FLOAT_EQ(gx[0], 0.0f);
    EXPECT_FLOAT_EQ(gx[1], 2.5f);
    EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(SpaceToDepth, Fig5Semantics) {
    // 1x4x4 -> 4x2x2 with no information loss (Fig. 5).
    SpaceToDepth s2d(2);
    Tensor x({1, 1, 4, 4});
    for (int i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
    Tensor y = s2d.forward(x);
    EXPECT_EQ(y.shape(), (Shape{1, 4, 2, 2}));
    // Channel 0 = even rows/cols; channel 3 = odd rows/cols.
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(y.at(0, 2, 0, 0), 4.0f);
    EXPECT_FLOAT_EQ(y.at(0, 3, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(y.at(0, 3, 1, 1), 15.0f);
    // Losslessness: every input value appears exactly once.
    double sum = 0.0;
    for (int i = 0; i < 16; ++i) sum += y[i];
    EXPECT_DOUBLE_EQ(sum, 120.0);
}

TEST(SpaceToDepth, RoundTripThroughBackward) {
    SpaceToDepth s2d(2);
    Rng rng(16);
    Tensor x({1, 3, 4, 6});
    x.randn(rng);
    Tensor y = s2d.forward(x);
    Tensor back = s2d.backward(y);  // adjoint of a permutation = inverse
    for (std::int64_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(back[i], x[i]);
}

TEST(ChannelShuffle, InterleavesGroups) {
    ChannelShuffle sh(2);
    Tensor x({1, 4, 1, 1}, std::vector<float>{0, 1, 2, 3});
    Tensor y = sh.forward(x);
    // (2,2) transpose: [0,1,2,3] -> [0,2,1,3]
    EXPECT_FLOAT_EQ(y[0], 0.0f);
    EXPECT_FLOAT_EQ(y[1], 2.0f);
    EXPECT_FLOAT_EQ(y[2], 1.0f);
    EXPECT_FLOAT_EQ(y[3], 3.0f);
}

TEST(Linear, ComputesAffine) {
    Rng rng(17);
    Linear fc(3, 2, rng);
    fc.weight().zero();
    fc.weight().plane(0, 0)[0] = 1.0f;  // out0 = in0
    fc.weight().plane(1, 0)[2] = 2.0f;  // out1 = 2*in2
    Tensor x({1, 3, 1, 1}, std::vector<float>{4.0f, 5.0f, 6.0f});
    Tensor y = fc.forward(x);
    EXPECT_FLOAT_EQ(y[0], 4.0f);
    EXPECT_FLOAT_EQ(y[1], 12.0f);
}

TEST(Optimizer, SgdDescendsQuadratic) {
    // Minimise 0.5*||w||^2 by SGD: w must shrink monotonically.
    Tensor w({1, 4, 1, 1}, 2.0f);
    Tensor g({1, 4, 1, 1});
    SGD opt({{&w, &g}}, {0.1f, 0.0f, 0.0f, 0.0f});
    float prev = 16.0f;
    for (int i = 0; i < 20; ++i) {
        for (int k = 0; k < 4; ++k) g[k] = w[k];
        opt.step();
        const float norm = static_cast<float>(w.sq_norm());
        EXPECT_LT(norm, prev);
        prev = norm;
    }
}

TEST(Optimizer, ExpScheduleEndpoints) {
    ExpSchedule s(1e-2f, 1e-4f, 100);
    EXPECT_NEAR(s.at(0), 1e-2f, 1e-9f);
    EXPECT_NEAR(s.at(99), 1e-4f, 1e-9f);
    EXPECT_GT(s.at(25), s.at(75));
}

TEST(Optimizer, GradClipBoundsUpdate) {
    Tensor w({1, 2, 1, 1}, 0.0f);
    Tensor g({1, 2, 1, 1}, 100.0f);
    SGD opt({{&w, &g}}, {1.0f, 0.0f, 0.0f, /*grad_clip=*/1.0f});
    opt.step();
    // ||update|| <= lr * clip = 1
    EXPECT_NEAR(std::sqrt(w.sq_norm()), 1.0, 1e-5);
}

}  // namespace
}  // namespace sky::nn
