// Property-based (parameterised) test sweeps over the core invariants:
//  - Conv2d agrees with a naive reference implementation across a grid of
//    (kernel, stride, padding, channels) configurations;
//  - every layer's out_shape() agrees with the shape actually produced;
//  - fixed-point quantisation is idempotent, monotone in bits, and bounded
//    by one step;
//  - pipeline algebra invariants hold across stage configurations;
//  - DAC-SDC scoring invariances (scale of energy units cancels in Eq. 4).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "dacsdc/scoring.hpp"
#include "hwsim/pipeline.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dwconv.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "nn/shuffle.hpp"
#include "nn/space_to_depth.hpp"
#include "quant/fixed_point.hpp"

namespace sky {
namespace {

// ---------------------------------------------------------------- Conv2d
// Reference convolution: the slowest possible correct implementation.
Tensor conv_reference(const Tensor& x, const Tensor& w, const Tensor& b, bool has_bias,
                      int k, int stride, int pad) {
    const Shape in = x.shape();
    const int oc_n = w.shape().n;
    const int ic_n = w.shape().c;
    const int oh = (in.h + 2 * pad - k) / stride + 1;
    const int ow = (in.w + 2 * pad - k) / stride + 1;
    Tensor y({in.n, oc_n, oh, ow});
    for (int n = 0; n < in.n; ++n)
        for (int oc = 0; oc < oc_n; ++oc)
            for (int yy = 0; yy < oh; ++yy)
                for (int xx = 0; xx < ow; ++xx) {
                    double acc = has_bias ? b[oc] : 0.0;
                    for (int ic = 0; ic < ic_n; ++ic)
                        for (int kh = 0; kh < k; ++kh)
                            for (int kw = 0; kw < k; ++kw) {
                                const int ih = yy * stride - pad + kh;
                                const int iw = xx * stride - pad + kw;
                                if (ih < 0 || ih >= in.h || iw < 0 || iw >= in.w)
                                    continue;
                                acc += static_cast<double>(x.at(n, ic, ih, iw)) *
                                       w.at(oc, ic, kh, kw);
                            }
                    y.at(n, oc, yy, xx) = static_cast<float>(acc);
                }
    return y;
}

using ConvParam = std::tuple<int, int, int, int, int>;  // k, stride, pad, in_ch, out_ch

class ConvReferenceSweep : public ::testing::TestWithParam<ConvParam> {};

TEST_P(ConvReferenceSweep, MatchesNaiveImplementation) {
    const auto [k, stride, pad, in_ch, out_ch] = GetParam();
    Rng rng(static_cast<std::uint64_t>(k * 1000 + stride * 100 + pad * 10 + in_ch));
    nn::Conv2d conv(in_ch, out_ch, k, stride, pad, /*bias=*/true, rng);
    conv.set_training(false);
    Tensor x({2, in_ch, 9, 11});
    Rng xr(99);
    x.randn(xr);
    const Tensor fast = conv.forward(x);
    const Tensor ref =
        conv_reference(x, conv.weight(), conv.bias(), true, k, stride, pad);
    ASSERT_EQ(fast.shape(), ref.shape());
    for (std::int64_t i = 0; i < fast.size(); ++i)
        ASSERT_NEAR(fast[i], ref[i], 1e-3f) << "at " << i;
    // And the advertised shape is the produced shape.
    EXPECT_EQ(conv.out_shape(x.shape()), fast.shape());
}

INSTANTIATE_TEST_SUITE_P(
    KernelStridePad, ConvReferenceSweep,
    ::testing::Values(ConvParam{1, 1, 0, 3, 5}, ConvParam{1, 2, 0, 4, 4},
                      ConvParam{3, 1, 1, 3, 6}, ConvParam{3, 2, 1, 5, 3},
                      ConvParam{3, 1, 0, 2, 2}, ConvParam{5, 1, 2, 3, 4},
                      ConvParam{5, 2, 2, 2, 6}, ConvParam{7, 2, 3, 3, 4}));

// ------------------------------------------------------------- out_shape
class ShapeContractSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(ShapeContractSweep, EveryLayerHonoursOutShape) {
    const Shape in = GetParam();
    Rng rng(5);
    std::vector<nn::ModulePtr> layers;
    layers.push_back(std::make_unique<nn::DWConv3>(in.c, rng));
    layers.push_back(std::make_unique<nn::PWConv1>(in.c, in.c * 2, false, rng));
    layers.push_back(std::make_unique<nn::BatchNorm2d>(in.c));
    layers.push_back(std::make_unique<nn::Activation>(nn::Act::kReLU6));
    layers.push_back(std::make_unique<nn::MaxPool2>());
    layers.push_back(std::make_unique<nn::GlobalAvgPool>());
    if (in.h % 2 == 0 && in.w % 2 == 0)
        layers.push_back(std::make_unique<nn::SpaceToDepth>(2));
    if (in.c % 2 == 0) layers.push_back(std::make_unique<nn::ChannelShuffle>(2));
    for (auto& m : layers) {
        m->set_training(false);
        Tensor x(in);
        Rng xr(7);
        x.randn(xr);
        const Tensor y = m->forward(x);
        EXPECT_EQ(y.shape(), m->out_shape(in)) << m->name() << " at " << in.str();
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeContractSweep,
                         ::testing::Values(Shape{1, 4, 8, 8}, Shape{2, 6, 10, 6},
                                           Shape{3, 2, 6, 12}, Shape{1, 8, 16, 4},
                                           Shape{2, 3, 5, 7}));

// ----------------------------------------------------------- fixed point
class FixedPointSweep : public ::testing::TestWithParam<int> {};

TEST_P(FixedPointSweep, QuantisationInvariants) {
    const int bits = GetParam();
    Rng rng(static_cast<std::uint64_t>(bits));
    Tensor t({1, 1, 16, 16});
    t.randn(rng, 0.0f, 2.0f);
    const quant::FixedPointFormat fmt = quant::choose_format(bits, t.abs_max());

    // 1. Bounded error: |q(v) - v| <= step/2 for in-range values.
    for (std::int64_t i = 0; i < t.size(); ++i) {
        const float q = fmt.quantize(t[i]);
        if (t[i] > fmt.min_val() && t[i] < fmt.max_val()) {
            EXPECT_LE(std::fabs(q - t[i]), fmt.step() * 0.5 + 1e-9) << t[i];
        }
    }
    // 2. Idempotence: quantising twice changes nothing.
    Tensor once = t;
    quant::quantize_tensor(once, fmt);
    Tensor twice = once;
    quant::quantize_tensor(twice, fmt);
    for (std::int64_t i = 0; i < t.size(); ++i) ASSERT_FLOAT_EQ(once[i], twice[i]);
    // 3. Representable count: distinct values fit in 2^bits.
    EXPECT_LE(fmt.max_val() / fmt.step() - fmt.min_val() / fmt.step(),
              std::ldexp(1.0, bits) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Bits, FixedPointSweep,
                         ::testing::Values(4, 6, 8, 9, 10, 11, 12, 16));

// --------------------------------------------------------------- pipeline
class PipelineSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double, double>> {};

TEST_P(PipelineSweep, SpeedupBounds) {
    const auto [a, b, c, d] = GetParam();
    const std::vector<hwsim::PipelineStage> stages = {
        {"a", a}, {"b", b}, {"c", c}, {"d", d}};
    const hwsim::PipelineReport r = hwsim::simulate_pipeline(stages, 1, 300);
    // Speedup is bounded by the stage count and at least 1.
    EXPECT_GE(r.speedup, 1.0 - 1e-12);
    EXPECT_LE(r.speedup, 4.0 + 1e-12);
    // Pipelined throughput never beats 1/bottleneck and converges near it.
    const double bottleneck = std::max({a, b, c, d});
    EXPECT_LE(r.pipelined_fps, 1e3 / bottleneck + 1e-6);
    EXPECT_GT(r.pipelined_fps, 0.9 * 1e3 / bottleneck);
    // Serial = sum of stages.
    EXPECT_NEAR(r.serial_ms_per_batch, a + b + c + d, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    StageMixes, PipelineSweep,
    ::testing::Values(std::make_tuple(1.0, 1.0, 1.0, 1.0),
                      std::make_tuple(5.0, 1.0, 1.0, 1.0),
                      std::make_tuple(2.0, 8.0, 3.0, 1.0),
                      std::make_tuple(0.5, 0.5, 10.0, 0.5),
                      std::make_tuple(3.0, 3.0, 6.0, 3.0)));

// ----------------------------------------------------------------- scoring
class ScoringSweep : public ::testing::TestWithParam<double> {};

TEST_P(ScoringSweep, EnergyUnitInvariance) {
    // Eq. 4 depends only on the RATIO mean-energy / entry-energy, so scaling
    // every entry's power by a constant must not change any score.
    const double scale = GetParam();
    std::vector<dacsdc::Entry> base = {
        {"a", 0.7, 30.0, 10.0}, {"b", 0.6, 60.0, 8.0}, {"c", 0.5, 15.0, 4.0}};
    std::vector<dacsdc::Entry> scaled = base;
    for (auto& e : scaled) e.power_w *= scale;
    const auto s1 = dacsdc::score_track(base, {10.0, 50000});
    const auto s2 = dacsdc::score_track(scaled, {10.0, 50000});
    ASSERT_EQ(s1.size(), s2.size());
    for (std::size_t i = 0; i < s1.size(); ++i) {
        EXPECT_EQ(s1[i].entry.team, s2[i].entry.team);
        EXPECT_NEAR(s1[i].total_score, s2[i].total_score, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Scales, ScoringSweep, ::testing::Values(0.1, 0.5, 2.0, 10.0));

// ----------------------------------------------------- activation algebra
class ActivationSweep : public ::testing::TestWithParam<nn::Act> {};

TEST_P(ActivationSweep, IdempotentOnOwnRange) {
    // relu(relu(x)) == relu(x) and likewise for relu6/leaky outside their
    // linear regions; sigmoid is excluded (not idempotent).
    const nn::Act kind = GetParam();
    nn::Activation act(kind);
    act.set_training(false);
    Rng rng(3);
    Tensor x({1, 2, 6, 6});
    x.randn(rng, 0.0f, 4.0f);
    Tensor once = act.forward(x);
    Tensor twice = act.forward(once);
    for (std::int64_t i = 0; i < x.size(); ++i) {
        if (kind == nn::Act::kLeaky && x[i] < 0.0f) continue;  // leaky is not
        ASSERT_FLOAT_EQ(once[i], twice[i]) << nn::act_name(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ActivationSweep,
                         ::testing::Values(nn::Act::kReLU, nn::Act::kReLU6,
                                           nn::Act::kLeaky));

}  // namespace
}  // namespace sky
