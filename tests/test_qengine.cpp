// Integer inference engine: agreement with the float network at high
// precision, output representability on the FM grid, behaviour under the
// Table 7 schemes, FM range calibration and compile-time validation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "deploy/fold_bn.hpp"
#include "detect/metrics.hpp"
#include "quant/qengine.hpp"
#include "skynet/skynet_model.hpp"
#include "unfused_reference.hpp"

namespace sky::quant {
namespace {

/// Trained-ish (BN-warmed) folded SkyNet at small width.
SkyNetModel make_folded(SkyNetVariant v, std::uint64_t seed) {
    Rng rng(seed);
    SkyNetModel m = build_skynet({v, nn::Act::kReLU6, 2, 0.2f}, rng);
    m.net->set_training(true);
    Rng wr(77);
    for (int i = 0; i < 3; ++i) {
        Tensor x({2, 3, 32, 64});
        x.rand_uniform(wr, 0.0f, 1.0f);
        (void)m.net->forward(x);
    }
    m.net->set_training(false);
    deploy::fold_graph_bn(*m.net);
    return m;
}

TEST(QEngine, HighPrecisionMatchesFloat) {
    SkyNetModel m = make_folded(SkyNetVariant::kC, 1);
    QEngine engine(*m.net, {20, 20, 16.0f});
    Tensor x({1, 3, 32, 64});
    Rng xr(2);
    x.rand_uniform(xr, 0.0f, 1.0f);
    const Tensor ref = m.net->forward(x);
    const Tensor q = engine.run(x);
    ASSERT_EQ(ref.shape(), q.shape());
    double max_err = 0.0;
    for (std::int64_t i = 0; i < ref.size(); ++i)
        max_err = std::max(max_err, std::abs(static_cast<double>(ref[i]) - q[i]));
    EXPECT_LT(max_err, 2e-2) << "20-bit integer path should track float closely";
}

TEST(QEngine, OutputsLieOnFmGrid) {
    SkyNetModel m = make_folded(SkyNetVariant::kA, 3);
    QEngine engine(*m.net, {9, 11, 8.0f});
    Tensor x({1, 3, 32, 64});
    Rng xr(4);
    x.rand_uniform(xr, 0.0f, 1.0f);
    const Tensor q = engine.run(x);
    const double step = engine.fm_format().step();
    for (std::int64_t i = 0; i < q.size(); ++i) {
        const double ratio = q[i] / step;
        EXPECT_NEAR(ratio, std::nearbyint(ratio), 1e-3) << q[i];
    }
}

TEST(QEngine, MoreBitsCloserToFloat) {
    SkyNetModel m = make_folded(SkyNetVariant::kC, 5);
    Tensor x({1, 3, 32, 64});
    Rng xr(6);
    x.rand_uniform(xr, 0.0f, 1.0f);
    const Tensor ref = m.net->forward(x);
    double prev = 1e30;
    for (int bits : {6, 9, 12, 16}) {
        QEngine engine(*m.net, {bits, bits + 2, 8.0f});
        const Tensor q = engine.run(x);
        double err = 0.0;
        for (std::int64_t i = 0; i < ref.size(); ++i)
            err += std::abs(static_cast<double>(ref[i]) - q[i]);
        err /= static_cast<double>(ref.size());
        EXPECT_LT(err, prev) << bits;
        prev = err;
    }
}

TEST(QEngine, Scheme1RawMapStaysNearFloat) {
    // On an untrained network the objectness argmax is fragile (near-ties
    // everywhere), so compare the raw output maps: the 9/11-bit integer
    // pass must stay within a few FM steps of the float network.
    SkyNetModel m = make_folded(SkyNetVariant::kC, 7);
    QEngine engine(*m.net, {9, 11, 8.0f});
    Tensor x({4, 3, 32, 64});
    Rng xr(8);
    x.rand_uniform(xr, 0.0f, 1.0f);
    const Tensor ref = m.net->forward(x);
    const Tensor q = engine.run(x);
    double mean_err = 0.0;
    for (std::int64_t i = 0; i < ref.size(); ++i)
        mean_err += std::abs(static_cast<double>(ref[i]) - q[i]);
    mean_err /= static_cast<double>(ref.size());
    EXPECT_LT(mean_err, 6.0 * engine.fm_format().step());
}

TEST(QEngine, RejectsUnfoldedGraph) {
    Rng rng(9);
    SkyNetModel m = build_skynet({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.2f}, rng);
    EXPECT_THROW((QEngine(*m.net, {9, 11, 8.0f})), std::invalid_argument);
}

TEST(QEngine, WeightBytesScaleWithBits) {
    SkyNetModel m = make_folded(SkyNetVariant::kA, 11);
    QEngine e8(*m.net, {9, 8, 8.0f});
    QEngine e16(*m.net, {9, 16, 8.0f});
    EXPECT_EQ(e16.weight_bytes(), 2 * e8.weight_bytes());
    EXPECT_GT(e8.weight_bytes(), 0);
}

TEST(QEngine, ReLU6ClipIsExactOnGrid) {
    SkyNetModel m = make_folded(SkyNetVariant::kA, 13);
    QEngine engine(*m.net, {9, 11, 8.0f});
    Tensor x({1, 3, 32, 64});
    x.fill(1.0f);  // drive activations hard
    const Tensor q = engine.run(x);
    // No value of the final map may exceed what the datapath can represent.
    EXPECT_LE(q.max(), static_cast<float>(engine.fm_format().max_val()) + 1e-6f);
    EXPECT_GE(q.min(), static_cast<float>(engine.fm_format().min_val()) - 1e-6f);
}

TEST(QEngine, CalibrationIsTheLargestCarriedValue) {
    SkyNetModel m = make_folded(SkyNetVariant::kC, 15);
    nn::Graph& g = *m.net;
    Tensor x({2, 3, 32, 64});
    Rng xr(16);
    x.rand_uniform(xr, 0.0f, 1.0f);
    const float range = calibrate_fm_abs_max(g, x);
    // The eval forward materializes one tensor per carrier, holding the
    // value of the last node it carries.
    const std::vector<Tensor> values = testing::unfused_node_values(g, x);
    std::vector<int> last(g.node_count(), -1);
    for (int i = 0; i < static_cast<int>(g.node_count()); ++i)
        last[static_cast<std::size_t>(g.node_carrier(i))] = i;
    float want = 0.0f;
    int carriers = 0;
    for (const int node : last) {
        if (node < 0) continue;
        ++carriers;
        want = std::max(want, values[static_cast<std::size_t>(node)].abs_max());
    }
    EXPECT_LT(carriers, static_cast<int>(g.node_count()));  // fusion happened
    EXPECT_EQ(range, want);
    EXPECT_GE(range, values[static_cast<std::size_t>(g.output_node())].abs_max());
}

}  // namespace
}  // namespace sky::quant
