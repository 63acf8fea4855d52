// Second-wave features: multi-object loss, Adam, automated scheme
// selection, ASCII rendering, SiamFC-style tracking mode.
#include <gtest/gtest.h>

#include <cmath>

#include "dacsdc/scheme_select.hpp"
#include "deploy/fold_bn.hpp"
#include "detect/metrics.hpp"
#include "io/ascii_viz.hpp"
#include "nn/optimizer.hpp"
#include "quant/qengine.hpp"
#include "skynet/skynet_model.hpp"
#include "tracking/metrics.hpp"
#include "tracking/tracker.hpp"

namespace sky {
namespace {

TEST(MultiLoss, GradMatchesFiniteDifference) {
    detect::YoloHead h;
    Rng rng(1);
    Tensor raw({2, 10, 4, 6});
    raw.randn(rng, 0.0f, 0.5f);
    std::vector<std::vector<detect::BBox>> gt = {
        {{0.2f, 0.3f, 0.06f, 0.1f}, {0.8f, 0.7f, 0.15f, 0.2f}},
        {{0.5f, 0.5f, 0.1f, 0.1f}},
    };
    Tensor grad;
    (void)h.loss_multi(raw, gt, grad);
    Rng pick(2);
    const float eps = 1e-3f;
    for (int s = 0; s < 20; ++s) {
        const std::int64_t i = pick.uniform_int(0, static_cast<int>(raw.size() - 1));
        Tensor tmp;
        const float orig = raw[i];
        raw[i] = orig + eps;
        const float lp = h.loss_multi(raw, gt, tmp);
        raw[i] = orig - eps;
        const float lm = h.loss_multi(raw, gt, tmp);
        raw[i] = orig;
        const double num = (static_cast<double>(lp) - lm) / (2.0 * eps);
        EXPECT_NEAR(grad[i], num, 2e-2 * std::max(1.0, std::abs(num))) << i;
    }
}

TEST(MultiLoss, SingleBoxAgreesWithSingleObjectLoss) {
    detect::YoloHead h;
    Rng rng(3);
    Tensor raw({1, 10, 4, 4});
    raw.randn(rng, 0.0f, 0.5f);
    const detect::BBox b{0.4f, 0.6f, 0.1f, 0.12f};
    Tensor g1, g2;
    const float l1 = h.loss(raw, {b}, g1);
    const float l2 = h.loss_multi(raw, {{b}}, g2);
    EXPECT_NEAR(l1, l2, 1e-5f);
    for (std::int64_t i = 0; i < g1.size(); ++i) EXPECT_NEAR(g1[i], g2[i], 1e-6f);
}

TEST(MultiLoss, PerfectMultiDecodeRecoversAllBoxes) {
    // Train raw logits directly (no network) until decode_all recovers both
    // planted objects — exercises loss_multi + decode_all end-to-end.
    detect::YoloHead h;
    Rng rng(4);
    Tensor raw({1, 10, 8, 8});
    raw.randn(rng, 0.0f, 0.1f);
    const std::vector<std::vector<detect::BBox>> gt = {
        {{0.2f, 0.2f, 0.08f, 0.1f}, {0.75f, 0.7f, 0.2f, 0.22f}}};
    // Stable step size: the coord term's curvature is coord_weight (=5),
    // so lr must stay below 2/5.
    for (int step = 0; step < 1500; ++step) {
        Tensor grad;
        (void)h.loss_multi(raw, gt, grad);
        raw.axpy(-0.3f, grad);
    }
    const auto dets = h.decode_all(raw, 0.5f, 0.45f);
    ASSERT_EQ(dets[0].size(), 2u);
    // Each GT matched by one detection.
    for (const auto& g : gt[0]) {
        float best = 0.0f;
        for (const auto& d : dets[0]) best = std::max(best, detect::iou(d.box, g));
        EXPECT_GT(best, 0.7f);
    }
}

TEST(Adam, DescendsQuadratic) {
    Tensor w({1, 8, 1, 1}, 3.0f);
    Tensor g({1, 8, 1, 1});
    nn::Adam opt({{&w, &g}}, {0.1f, 0.9f, 0.999f, 1e-8f, 0.0f});
    for (int i = 0; i < 200; ++i) {
        for (int k = 0; k < 8; ++k) g[k] = w[k];
        opt.step();
        opt.zero_grad();
    }
    EXPECT_LT(w.sq_norm(), 0.1);
}

TEST(Adam, StepSizeBoundedByLr) {
    // First Adam step moves each weight by ~lr regardless of grad scale.
    Tensor w({1, 2, 1, 1}, 0.0f);
    Tensor g({1, 2, 1, 1});
    g[0] = 1000.0f;
    g[1] = 0.001f;
    nn::Adam opt({{&w, &g}}, {0.05f, 0.9f, 0.999f, 1e-8f, 0.0f});
    opt.step();
    EXPECT_NEAR(std::abs(w[0]), 0.05f, 5e-3f);
    EXPECT_NEAR(std::abs(w[1]), 0.05f, 5e-3f);
}

/// A small SkyNet-C with its BNs folded, as select_scheme takes it.
SkyNetModel folded_skynet(std::uint64_t seed) {
    Rng rng(seed);
    SkyNetModel m = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.2f}, rng);
    m.net->set_training(false);
    deploy::fold_graph_bn(*m.net);
    return m;
}

TEST(SchemeSelect, Table7SchemeTable) {
    const auto schemes = dacsdc::table7_schemes();
    ASSERT_EQ(schemes.size(), 5u);
    EXPECT_EQ(schemes[0].fm_bits, 0);
    EXPECT_EQ(schemes[1].fm_bits, 9);
    EXPECT_EQ(schemes[1].weight_bits, 11);
    EXPECT_EQ(schemes[4].fm_bits, 8);
    EXPECT_EQ(schemes[4].weight_bits, 10);
}

TEST(SchemeSelect, RanksByProjectedScore) {
    SkyNetModel m = folded_skynet(5);
    data::DetectionDataset ds({32, 64, 1, false, 9});
    const data::DetectionBatch val = ds.validation(8);
    hwsim::FpgaModel u96(hwsim::ultra96());
    dacsdc::SchemeSelectConfig cfg;
    cfg.hw_input = {1, 3, 32, 64};
    const auto ranked = dacsdc::select_scheme(*m.net, m.head, val, u96, cfg);
    ASSERT_EQ(ranked.size(), 5u);
    for (std::size_t i = 1; i < ranked.size(); ++i)
        EXPECT_GE(ranked[i - 1].total_score, ranked[i].total_score);
    for (const auto& ev : ranked) {
        EXPECT_GT(ev.fps, 0.0);
        EXPECT_GT(ev.power_w, 0.0);
    }
}

TEST(SchemeSelect, SchemeIouIsTheEngineIou) {
    SkyNetModel m = folded_skynet(6);
    data::DetectionDataset ds({32, 64, 1, false, 10});
    const data::DetectionBatch val = ds.validation(8);
    hwsim::FpgaModel u96(hwsim::ultra96());
    dacsdc::SchemeSelectConfig cfg;
    cfg.hw_input = {1, 3, 32, 64};
    const float range = quant::calibrate_fm_abs_max(*m.net, val.images);
    const auto ranked = dacsdc::select_scheme(*m.net, m.head, val, u96, cfg);
    ASSERT_EQ(ranked.size(), 5u);
    for (const dacsdc::SchemeEvaluation& ev : ranked) {
        const dacsdc::QuantScheme& s = ev.scheme;
        Tensor raw;
        if (s.id == 0) {
            raw = m.net->forward(val.images);
        } else {
            quant::QEngine engine(*m.net, quant::QuantConfig{}
                                              .with_bits(s.fm_bits, s.weight_bits)
                                              .with_fm_abs_max(range));
            raw = engine.run(val.images);
        }
        EXPECT_EQ(ev.iou, detect::mean_iou(m.head.decode(raw), val.boxes))
            << "scheme " << s.id;
    }
}

TEST(SchemeSelect, LeavesTheFloatGraphUntouched) {
    SkyNetModel m = folded_skynet(7);
    data::DetectionDataset ds({32, 64, 1, false, 5});
    const data::DetectionBatch val = ds.validation(4);
    std::vector<nn::ParamRef> params;
    m.net->collect_params(params);
    std::vector<Tensor> before;
    for (const nn::ParamRef& p : params) before.push_back(*p.value);
    const Tensor y_before = m.net->forward(val.images);
    dacsdc::SchemeSelectConfig cfg;
    cfg.hw_input = {1, 3, 32, 64};
    (void)dacsdc::select_scheme(*m.net, m.head, val, hwsim::FpgaModel(hwsim::ultra96()), cfg);
    for (std::size_t k = 0; k < params.size(); ++k)
        for (std::int64_t i = 0; i < before[k].size(); ++i)
            ASSERT_EQ((*params[k].value)[i], before[k][i]) << "param " << k << " @" << i;
    const Tensor y_after = m.net->forward(val.images);
    ASSERT_EQ(y_after.shape(), y_before.shape());
    for (std::int64_t i = 0; i < y_before.size(); ++i)
        ASSERT_EQ(y_after[i], y_before[i]) << "fp32 output @" << i;
}

TEST(AsciiViz, RendersBoxesAndLuminance) {
    Tensor img({1, 3, 16, 32});
    img.fill(0.0f);
    // Bright square in the middle.
    for (int c = 0; c < 3; ++c)
        for (int y = 6; y < 10; ++y)
            for (int x = 12; x < 20; ++x) img.at(0, c, y, x) = 1.0f;
    const std::string art = io::render_ascii(
        img, 0, {{detect::BBox{0.5f, 0.5f, 0.5f, 0.5f}, '#'}}, 32);
    EXPECT_NE(art.find('#'), std::string::npos);
    EXPECT_NE(art.find('@'), std::string::npos);  // bright region
    EXPECT_NE(art.find(' '), std::string::npos);  // dark region
    // Every line the same width.
    std::size_t pos = 0, prev = 0;
    int lines = 0;
    while ((pos = art.find('\n', prev)) != std::string::npos) {
        if (lines > 0) {
            EXPECT_EQ(pos - prev, 32u);
        }
        prev = pos + 1;
        ++lines;
    }
    EXPECT_GT(lines, 3);
}

TEST(SiamFcMode, TracksWithoutRegression) {
    Rng rng(7);
    SkyNetModel bb = build_skynet_backbone(0.12f, nn::Act::kReLU6, rng);
    tracking::SiameseEmbed embed(std::move(bb.net), bb.feature_channels(), 16, rng);
    tracking::TrackerConfig cfg;
    cfg.crop_size = 32;
    cfg.kernel_cells = 2;
    cfg.use_regression = false;
    tracking::SiamTracker tracker(std::move(embed), cfg, rng);
    data::TrackingDataset ds({48, 48, 8, 0, 0.02f, 0.0f, 21});
    const auto seq = ds.next();
    const auto pred = tracker.track(seq);
    ASSERT_EQ(pred.size(), seq.size());
    // Without regression the box size never changes.
    for (const auto& b : pred) {
        EXPECT_FLOAT_EQ(b.w, pred[0].w);
        EXPECT_FLOAT_EQ(b.h, pred[0].h);
    }
}

}  // namespace
}  // namespace sky
