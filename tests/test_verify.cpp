// sky::verify — static graph/model/quant checking layer.
//
// Each deliberately broken graph must produce the exact catalog code from
// docs/STATIC_ANALYSIS.md, and a pristine SkyNet must pass with zero
// diagnostics; this pins the contract that sky::Detector enforces on build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "backbones/registry.hpp"
#include "deploy/fold_bn.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dwconv.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "nn/shuffle.hpp"
#include "quant/qengine.hpp"
#include "skynet/check_model.hpp"
#include "skynet/detector.hpp"
#include "skynet/skynet_model.hpp"
#include "unfused_reference.hpp"
#include "verify/analyze.hpp"
#include "verify/check_graph.hpp"
#include "verify/check_qmodel.hpp"

namespace sky {
namespace {

const Shape kIn = verify::default_input_shape();  // {1,3,160,320}

SkyNetConfig small_cfg() {
    SkyNetConfig cfg;
    cfg.variant = SkyNetVariant::kC;
    cfg.width_mult = 0.25f;
    return cfg;
}

// ---------------------------------------------------------------- graphs --

TEST(Verify, PristineSkyNetPassesClean) {
    Rng rng(7);
    SkyNetModel model = build_skynet(small_cfg(), rng);
    const verify::Report rep = verify::check_model(model, kIn);
    EXPECT_EQ(rep.error_count(), 0) << rep.str();
    EXPECT_EQ(rep.warning_count(), 0) << rep.str();
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(rep.str(), "");
}

TEST(Verify, DanglingEdgeIsG001) {
    Rng rng(1);
    nn::Graph g;
    g.add(std::make_unique<nn::DWConv3>(3, rng), 42);  // producer 42 missing
    const verify::Report rep = verify::check_graph(g, kIn);
    EXPECT_TRUE(rep.has("G001")) << rep.str();
    EXPECT_FALSE(rep.ok());
}

TEST(Verify, CyclicEdgeIsG002) {
    Rng rng(1);
    nn::Graph g;
    // Node 1 wired to consume node 1: the only way this topological-order
    // representation can encode a cycle is a self/forward edge.
    g.add(std::make_unique<nn::DWConv3>(3, rng), 1);
    const verify::Report rep = verify::check_graph(g, kIn);
    EXPECT_TRUE(rep.has("G002")) << rep.str();
    EXPECT_FALSE(rep.ok());
}

TEST(Verify, ConcatSpatialMismatchIsG003) {
    Rng rng(1);
    nn::Graph g;
    // Branch A keeps 160x320; branch B halves it; the join cannot concat.
    const int a = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
    const int b = g.add(std::make_unique<nn::MaxPool2>(), 0);
    g.add_concat({a, b});
    const verify::Report rep = verify::check_graph(g, kIn);
    EXPECT_TRUE(rep.has("G003")) << rep.str();
    EXPECT_FALSE(rep.ok());
}

TEST(Verify, AddShapeMismatchIsG004) {
    Rng rng(1);
    nn::Graph g;
    const int a = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
    const int b = g.add(std::make_unique<nn::Conv2d>(3, 16, 3, 1, 1, false, rng), 0);
    g.add_add(a, b);  // 8 vs 16 channels
    const verify::Report rep = verify::check_graph(g, kIn);
    EXPECT_TRUE(rep.has("G004")) << rep.str();
}

TEST(Verify, ChannelMismatchIsG005) {
    Rng rng(1);
    nn::Graph g;
    g.add(std::make_unique<nn::DWConv3>(8, rng), 0);  // input has 3 channels
    const verify::Report rep = verify::check_graph(g, kIn);
    EXPECT_TRUE(rep.has("G005")) << rep.str();

    // A Linear reads c*h*w features: Conv2d(3->8) on 8x8 emits 512, not the
    // 100 it takes.  The forward would throw; the check names the edge.
    nn::Graph fc;
    fc.add(std::make_unique<nn::Linear>(100, 10, rng),
           fc.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0));
    const verify::Report frep = verify::check_graph(fc, {1, 3, 8, 8});
    EXPECT_TRUE(frep.has("G005")) << frep.str();
    EXPECT_EQ(frep.error_count(), 1) << frep.str();
    EXPECT_NE(frep.str().find("in_features=512"), std::string::npos) << frep.str();
    fc.set_training(false);
    EXPECT_THROW((void)fc.forward(Tensor({1, 3, 8, 8})), std::invalid_argument);
    nn::Graph ok;
    ok.add(std::make_unique<nn::Linear>(512, 10, rng),
           ok.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0));
    EXPECT_TRUE(verify::check_graph(ok, {1, 3, 8, 8}).ok());
}

TEST(Verify, CollapsedFeatureMapIsG006) {
    Rng rng(1);
    nn::Graph g;
    // 7x7 kernel, no padding, on a 4x4 input: kernel exceeds the map.
    g.add(std::make_unique<nn::Conv2d>(3, 8, 7, 1, 0, false, rng), 0);
    const verify::Report rep = verify::check_graph(g, {1, 3, 4, 4});
    EXPECT_TRUE(rep.has("G006")) << rep.str();
}

TEST(Verify, OddPoolingWarnsG007) {
    nn::Graph g;
    g.add(std::make_unique<nn::MaxPool2>(), 0);
    const verify::Report rep = verify::check_graph(g, {1, 3, 7, 9});
    EXPECT_TRUE(rep.has("G007")) << rep.str();
    EXPECT_TRUE(rep.ok());  // truncation is a warning, not an error
    EXPECT_EQ(rep.warning_count(), 1);
}

TEST(Verify, UnreachableNodeWarnsG008) {
    Rng rng(1);
    nn::Graph g;
    const int keep = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
    g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);  // dead
    g.set_output(keep);
    const verify::Report rep = verify::check_graph(g, kIn);
    EXPECT_TRUE(rep.has("G008")) << rep.str();
    EXPECT_TRUE(rep.ok());
}

TEST(Verify, InvalidOutputNodeIsG009) {
    nn::Graph g;
    g.add(std::make_unique<nn::MaxPool2>(), 0);
    g.set_output(99);
    const verify::Report rep = verify::check_graph(g, kIn);
    EXPECT_TRUE(rep.has("G009")) << rep.str();
}

TEST(Verify, JoinArityIsG011) {
    Rng rng(1);
    nn::Graph g;
    const int a = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
    g.add_concat({a});  // one-input concat is a wiring mistake
    const verify::Report rep = verify::check_graph(g, kIn);
    EXPECT_TRUE(rep.has("G011")) << rep.str();
}

TEST(Verify, ShuffleDivisibilityIsG012) {
    nn::Graph g;
    g.add(std::make_unique<nn::ChannelShuffle>(5), 0);  // 3 % 5 != 0
    const verify::Report rep = verify::check_graph(g, kIn);
    EXPECT_TRUE(rep.has("G012")) << rep.str();
}

// ------------------------------------------------------------ model level --

TEST(Verify, FeatureTapOutOfRangeIsM001) {
    Rng rng(7);
    SkyNetModel model = build_skynet(small_cfg(), rng);
    model.set_feature_tap(9999, model.feature_channels());  // broken tap on purpose
    const verify::Report rep = verify::check_model(model, kIn);
    EXPECT_TRUE(rep.has("M001")) << rep.str();
    EXPECT_FALSE(rep.ok());
}

TEST(Verify, FeatureTapChannelDriftWarnsM002) {
    Rng rng(7);
    SkyNetModel model = build_skynet(small_cfg(), rng);
    model.set_feature_tap(model.feature_node(),
                         model.feature_channels() + 1);  // desync on purpose
    const verify::Report rep = verify::check_model(model, kIn);
    EXPECT_TRUE(rep.has("M002")) << rep.str();
    EXPECT_TRUE(rep.ok());
}

TEST(Verify, MissingNetworkIsM003) {
    SkyNetModel model;
    const verify::Report rep = verify::check_model(model, kIn);
    EXPECT_TRUE(rep.has("M003")) << rep.str();
    EXPECT_FALSE(rep.ok());
}

// ------------------------------------------------------------ quant level --

TEST(Verify, UnfoldedBatchNormIsQ001) {
    Rng rng(1);
    nn::Graph g;
    const int c = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
    const int bn = g.add(std::make_unique<nn::BatchNorm2d>(8), c);
    g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), bn);
    const verify::Report rep = verify::check_qmodel(g, quant::QuantConfig{});
    EXPECT_TRUE(rep.has("Q001")) << rep.str();
    EXPECT_FALSE(rep.ok());
}

TEST(Verify, UnsupportedLayersAreQ002) {
    Rng rng(1);
    nn::Graph g;
    const int s = g.add(std::make_unique<nn::Activation>(nn::Act::kSigmoid), 0);
    g.add(std::make_unique<nn::PWConv1>(8, 8, false, rng, 2), s);  // grouped
    const verify::Report rep = verify::check_qmodel(g, quant::QuantConfig{});
    EXPECT_TRUE(rep.has("Q002")) << rep.str();
    EXPECT_EQ(rep.error_count(), 2);  // one per unsupported layer
}

TEST(Verify, CalibratedRangeOverflowIsQ003) {
    Rng rng(1);
    nn::Graph g;
    g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
    verify::QuantCheckOptions opts;
    opts.calibrated_fm_abs_max = 100.0f;  // format saturates near 8
    const verify::Report rep =
        verify::check_qmodel(g, quant::QuantConfig{9, 11, 8.0f}, opts);
    EXPECT_TRUE(rep.has("Q003")) << rep.str();
    EXPECT_FALSE(rep.ok());
}

TEST(Verify, Relu6ClipSaturationWarnsQ004) {
    nn::Graph g;
    g.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), 0);
    // fm_abs_max=2 -> max representable ~1.99 < 6: the clip never engages.
    const verify::Report rep = verify::check_qmodel(g, quant::QuantConfig{9, 11, 2.0f});
    EXPECT_TRUE(rep.has("Q004")) << rep.str();
    EXPECT_TRUE(rep.ok());
}

TEST(Verify, DegenerateSchemeIsQ005) {
    nn::Graph g;
    const verify::Report bits = verify::check_qmodel(g, quant::QuantConfig{0, 11, 8.0f});
    EXPECT_TRUE(bits.has("Q005")) << bits.str();
    const verify::Report range =
        verify::check_qmodel(g, quant::QuantConfig{9, 11, -1.0f});
    EXPECT_TRUE(range.has("Q005")) << range.str();
    // Wider than 24 bits the engine's int64 proofs would overflow.
    for (const quant::QuantConfig& wide :
         {quant::QuantConfig{}.with_bits(25, 11), quant::QuantConfig{}.with_bits(9, 25)}) {
        EXPECT_TRUE(verify::check_qmodel(g, wide).has("Q005"));
        EXPECT_THROW(quant::QEngine(g, wide), std::invalid_argument);
    }
}

TEST(Verify, IntegerOnlyGridWarnsQ006) {
    nn::Graph g;
    // 9-bit words asked to span [-500, 500]: zero fractional bits remain.
    const verify::Report rep =
        verify::check_qmodel(g, quant::QuantConfig{9, 11, 500.0f});
    EXPECT_TRUE(rep.has("Q006")) << rep.str();
    EXPECT_TRUE(rep.ok());
}

TEST(Verify, StockSkyNetQuantSchemePasses) {
    Rng rng(7);
    Detector det(small_cfg(), rng);
    det.fold_bn();
    const verify::Report rep =
        verify::check_qmodel(det.net(), quant::QuantConfig{});
    EXPECT_EQ(rep.error_count(), 0) << rep.str();
}

// ----------------------------------------------------------- enforcement --

TEST(Verify, EnforceThrowsWithFullReport) {
    Rng rng(1);
    nn::Graph g;
    g.add(std::make_unique<nn::DWConv3>(8, rng), 0);   // G005
    g.add(std::make_unique<nn::DWConv3>(16, rng), 0);  // G005 again
    const verify::Report rep = verify::check_graph(g, kIn);
    try {
        verify::enforce(rep);
        FAIL() << "enforce() must throw on an error-bearing report";
    } catch (const verify::VerifyError& e) {
        EXPECT_EQ(e.report().error_count(), 2);
        EXPECT_NE(std::string(e.what()).find("G005"), std::string::npos);
    }
}

TEST(Verify, EnforcePassesWarningsThrough) {
    nn::Graph g;
    g.add(std::make_unique<nn::MaxPool2>(), 0);
    const verify::Report rep = verify::check_graph(g, {1, 3, 7, 9});  // G007 warn
    EXPECT_NO_THROW(verify::enforce(rep));
}

TEST(Verify, DetectorRefusesBrokenModel) {
    Rng rng(7);
    SkyNetModel model = build_skynet(small_cfg(), rng);
    // Sabotage: append a depthwise layer whose width disagrees with the
    // head output, and route the output through it.
    model.net->add(std::make_unique<nn::DWConv3>(7, rng), model.net->output_node());
    EXPECT_THROW(Detector det(std::move(model)), verify::VerifyError);
}

TEST(Verify, DetectorBuildsAndReverifiesCleanModel) {
    Rng rng(7);
    Detector det(small_cfg(), rng);
    const verify::Report rep = det.verify();
    EXPECT_TRUE(rep.ok()) << rep.str();
    EXPECT_EQ(rep.warning_count(), 0) << rep.str();
}

TEST(Verify, DetectorQuantizeRejectsDegenerateScheme) {
    Rng rng(7);
    Detector det(small_cfg(), rng);
    EXPECT_THROW(det.quantize(quant::QuantConfig{0, 11, 8.0f}),
                 verify::VerifyError);
}

// ------------------------------------------- checker / engine agreement --

/// A backbone graph (skyanalyze's view), BN folded.
std::unique_ptr<nn::Graph> folded_backbone(const std::string& name) {
    Rng rng(7);
    std::unique_ptr<nn::Graph> g = backbones::build_by_name(name, 0.25f, rng).net;
    g->set_training(false);
    deploy::fold_graph_bn(*g);
    return g;
}

/// Under the default kAuto execution, the QEngine constructor throws exactly
/// when check_qmodel reports an error, and with fp32_fallback on the nodes
/// the engine runs as fp32 islands are exactly the Q002 nodes.  Returns the
/// number of schemes (fallback off / on) that compiled.
int expect_checker_agrees_with_engine(nn::Graph& g, const std::string& what) {
    int compiled = 0;
    for (const bool fallback : {false, true}) {
        const quant::QuantConfig cfg = quant::QuantConfig{}.with_fp32_fallback(fallback);
        const verify::Report rep = verify::check_qmodel(g, cfg);
        std::set<int> q002;
        for (const verify::Diagnostic& d : rep.diagnostics)
            if (d.code == "Q002") q002.insert(d.node);
        try {
            const quant::QEngine engine(g, cfg);
            ++compiled;
            EXPECT_TRUE(rep.ok()) << what << ": the engine compiled what check_qmodel "
                                  << "rejects\n" << rep.str();
            std::set<int> fp32;
            for (const quant::QLayerReport& lr : engine.report().layers)
                if (lr.impl == quant::QImpl::kFp32) fp32.insert(lr.node);
            EXPECT_EQ(fp32, q002) << what << " (fp32_fallback " << fallback << ")";
        } catch (const std::invalid_argument& e) {
            EXPECT_FALSE(rep.ok()) << what << ": the engine threw '" << e.what()
                                   << "' but check_qmodel reports no error";
        }
    }
    return compiled;
}

TEST(Verify, CheckQmodelAgreesWithTheEngineOnEveryShippedModel) {
    for (const std::string& name : backbones::backbone_names())
        (void)expect_checker_agrees_with_engine(*folded_backbone(name), name);
    for (SkyNetVariant v : {SkyNetVariant::kA, SkyNetVariant::kB, SkyNetVariant::kC}) {
        Rng rng(7);
        SkyNetModel m = build_skynet({v, nn::Act::kReLU6, 2, 0.25f}, rng);
        m.net->set_training(false);
        deploy::fold_graph_bn(*m.net);
        EXPECT_EQ(expect_checker_agrees_with_engine(*m.net, variant_name(v)), 2)
            << "a folded SkyNet must compile with and without fp32_fallback";
    }
    // Fig. 2a's classifier: its Linear layers lower to integer convs (no Q002).
    Rng rng(7);
    std::unique_ptr<nn::Graph> fc = backbones::build_alexnet_classifier(10, 32, 0.25f, rng);
    fc->set_training(false);
    deploy::fold_graph_bn(*fc);
    EXPECT_EQ(expect_checker_agrees_with_engine(*fc, "alexnet-classifier"), 2);
}

// -------------------------------------------- abstract interpretation (A) --

TEST(Analyze, IntervalBlowupWarnsA001OnlyAtTheTransition) {
    Rng rng(1);
    nn::Graph g;
    const int c1 = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
    const int c2 = g.add(std::make_unique<nn::Conv2d>(8, 8, 3, 1, 1, false, rng), c1);
    g.set_output(c2);
    // 27 taps of 1e38 against inputs in [0, 1] reach 2.7e39 > FLT_MAX.
    dynamic_cast<nn::Conv2d*>(g.node_module(1))->weight().fill(1e38f);
    const verify::Analysis a = verify::analyze(g, kIn);
    EXPECT_TRUE(a.report.has("A001")) << a.report.str();
    int fired = 0;
    for (const verify::Diagnostic& d : a.report.diagnostics)
        if (d.code == "A001") {
            ++fired;
            EXPECT_EQ(d.node, 1);  // downstream nodes must not re-report
        }
    EXPECT_EQ(fired, 1) << a.report.str();
    EXPECT_TRUE(a.report.ok());  // A-codes are warnings
}

TEST(Analyze, DeadClampWarnsA002) {
    nn::Graph g;
    // The graph input is declared [0, 1] by the default scheme: a ReLU on it
    // provably never clamps.
    g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), 0);
    const verify::Analysis a = verify::analyze(g, kIn);
    EXPECT_TRUE(a.report.has("A002")) << a.report.str();
    EXPECT_TRUE(a.report.ok());
}

TEST(Analyze, SaturatedActivationWarnsA003) {
    nn::Graph g;
    g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), 0);
    verify::AnalyzeOptions opts;
    opts.qconfig = quant::QuantConfig{}.with_input_range(-3.0f, -1.0f);
    const verify::Analysis a = verify::analyze(g, kIn, opts);
    EXPECT_TRUE(a.report.has("A003")) << a.report.str();
    EXPECT_FALSE(a.report.has("A002")) << a.report.str();  // saturation wins
}

TEST(Analyze, AccumulatorOverflowWarnsA004) {
    Rng rng(1);
    nn::Graph g;
    // 512 input channels give the second conv K = 4608; with 15-bit weights
    // (|w| up to ~16383) and a ReLU6-tightened input span, the worst-case
    // int32 accumulator K * max|w| * span crosses 2^31.
    const int c1 = g.add(std::make_unique<nn::Conv2d>(3, 512, 3, 1, 1, false, rng), 0);
    const int a1 = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), c1);
    const int c2 = g.add(std::make_unique<nn::Conv2d>(512, 8, 3, 1, 1, false, rng), a1);
    g.set_output(c2);
    verify::AnalyzeOptions opts;
    opts.qconfig = quant::QuantConfig{9, 15, 8.0f};
    const verify::Analysis a = verify::analyze(g, kIn, opts);
    EXPECT_TRUE(a.report.has("A004")) << a.report.str();
    for (const verify::Diagnostic& d : a.report.diagnostics)
        if (d.code == "A004") {
            EXPECT_EQ(d.node, 3);
            EXPECT_NE(d.message.find(">= 2^31"), std::string::npos) << d.message;
        }
}

TEST(Analyze, PristineSkyNetAnalyzesClean) {
    Rng rng(7);
    Detector det(small_cfg(), rng);
    det.fold_bn();
    const verify::Analysis a = verify::analyze(det.net(), kIn);
    EXPECT_EQ(a.report.str(), "");
    ASSERT_TRUE(a.has_plan);
    EXPECT_GT(a.plan.peak_bytes, 0);
    EXPECT_GE(a.plan.arena_bytes, a.plan.peak_bytes);
    EXPECT_LE(a.plan.arena_bytes, a.plan.total_bytes);
}

// ------------------------------------------- static plan vs real execution --

TEST(Analyze, PlanPeakBytesMatchInstrumentedExecution) {
    for (const SkyNetVariant v : {SkyNetVariant::kA, SkyNetVariant::kB, SkyNetVariant::kC})
        for (const quant::QExecution e :
             {quant::QExecution::kAuto, quant::QExecution::kReference}) {
            SCOPED_TRACE(std::string(variant_name(v)) + " " + quant::qexecution_name(e));
            Rng rng(7);
            SkyNetConfig cfg = small_cfg();
            cfg.variant = v;
            Detector det(cfg, rng);
            const quant::QuantConfig qcfg = quant::QuantConfig{}.with_execution(e);
            const quant::QuantReport rep = det.quantize(qcfg);
            ASSERT_TRUE(rep.has_activation_plan);
            const deploy::MemoryPlan& plan = rep.activation_plan;
            EXPECT_GT(plan.peak_bytes, 0);
            EXPECT_EQ(det.activation_plan_bytes(), plan.arena_bytes);

            // The analysis plans the program the engine runs: same fusions,
            // same skipped identities, same arena.
            verify::AnalyzeOptions opts;
            opts.qconfig = qcfg;
            const verify::Analysis a = verify::analyze(det.net(), kIn, opts);
            ASSERT_TRUE(a.has_plan);
            EXPECT_EQ(a.plan.peak_bytes, plan.peak_bytes);
            EXPECT_EQ(a.plan.arena_bytes, plan.arena_bytes);
            EXPECT_EQ(a.plan.slots.size(), plan.slots.size());

            Rng drng(3);
            Tensor x(kIn);
            for (std::int64_t i = 0; i < x.size(); ++i)
                x.data()[i] = static_cast<float>(drng.uniform(0.0, 1.0));
            ASSERT_NE(det.qengine(), nullptr);
            // The plan is exact, not an estimate: the arena executor's
            // instrumented peak must equal the liveness walk's number, and
            // the pre-sized slots make every pass allocation-free from the
            // first run.
            for (int run = 0; run < 2; ++run) {
                (void)det.forward(x);
                EXPECT_EQ(det.qengine()->measured_peak_bytes(), plan.peak_bytes);
                EXPECT_EQ(det.qengine()->alloc_events(), 0);
            }
        }
}

// ------------------------- fp32 interval domain: soundness by execution --

/// Random conv/act/pool chains: every value a real forward pass produces
/// must lie inside the statically analyzed per-node interval.  The eval
/// forward fuses activations into their producers, so per-node values come
/// from a node-by-node unfused evaluation, which the fused output equals.
TEST(Analyze, ValueIntervalsSoundOnRandomGraphs) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed * 53 + 1);
        std::uint64_t s = seed * 1234567891ULL;
        const auto pick = [&s](std::uint64_t n) {
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            return (s >> 33) % n;
        };
        nn::Graph g;
        int last = g.input();
        int ch = 3;
        const int layers = 3 + static_cast<int>(pick(3));
        for (int i = 0; i < layers; ++i) {
            switch (pick(6)) {
                case 0: {
                    const int out = 4 + static_cast<int>(pick(3)) * 2;
                    last = g.add(std::make_unique<nn::Conv2d>(ch, out, 3, 1, 1,
                                                              pick(2) == 0, rng),
                                 last);
                    ch = out;
                    break;
                }
                case 1: {
                    const int out = 4 + static_cast<int>(pick(3)) * 2;
                    last = g.add(
                        std::make_unique<nn::PWConv1>(ch, out, pick(2) == 0, rng),
                        last);
                    ch = out;
                    break;
                }
                case 2:
                    last = g.add(std::make_unique<nn::DWConv3>(ch, rng), last);
                    break;
                case 3:
                    last = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU),
                                 last);
                    break;
                case 4:
                    last = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU6),
                                 last);
                    break;
                default:
                    last = g.add(std::make_unique<nn::Activation>(nn::Act::kSigmoid),
                                 last);
                    break;
            }
        }
        g.set_output(last);
        verify::AnalyzeOptions opts;
        opts.qconfig = quant::QuantConfig{}.with_input_range(-1.0f, 1.0f);
        const verify::Analysis a = verify::analyze(g, {2, 3, 12, 12}, opts);
        ASSERT_EQ(a.value_ranges.size(), g.node_count());

        g.set_training(false);
        Rng xr(seed * 7 + 3);
        for (int trial = 0; trial < 2; ++trial) {
            Tensor x({2, 3, 12, 12});
            x.rand_uniform(xr, -1.0f, 1.0f);
            const Tensor out = g.forward(x);
            const std::vector<Tensor> values = testing::unfused_node_values(g, x);
            const Tensor& ref = values[static_cast<std::size_t>(g.output_node())];
            ASSERT_EQ(out.shape(), ref.shape());
            ASSERT_EQ(std::memcmp(out.data(), ref.data(),
                                  static_cast<std::size_t>(out.size()) * sizeof(float)),
                      0)
                << "seed " << seed << ": fused output differs from the unfused evaluation";
            for (std::size_t i = 0; i < g.node_count(); ++i) {
                const quant::Interval& v = a.value_ranges[i];
                if (!v.known) continue;
                // fp64 interval arithmetic vs fp32 kernel accumulation order.
                const double tol =
                    1e-4 * (1.0 + std::abs(v.lo) + std::abs(v.hi));
                const Tensor& y = values[i];
                for (std::int64_t j = 0; j < y.size(); ++j) {
                    ASSERT_GE(y[j], v.lo - tol) << "seed " << seed << " node " << i;
                    ASSERT_LE(y[j], v.hi + tol) << "seed " << seed << " node " << i;
                }
            }
        }
    }
}

TEST(Analyze, NonFiniteWeightsAreReportedNotPropagatedAsFacts) {
    Rng rng(3);
    nn::Graph g;
    const int c = g.add(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, false, rng), 0);
    g.set_output(g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), c));
    dynamic_cast<nn::Conv2d*>(g.node_module(1))->weight()[0] =
        std::numeric_limits<float>::quiet_NaN();
    const verify::Analysis a = verify::analyze(g, kIn);  // must not throw
    ASSERT_EQ(a.value_ranges.size(), g.node_count());
    // Whatever the domain does with NaN (drop to unknown), it must never
    // claim a *finite known* interval for the poisoned conv.
    const quant::Interval& v = a.value_ranges[1];
    EXPECT_FALSE(v.known && std::isfinite(v.lo) && std::isfinite(v.hi));
}

TEST(Analyze, AllZeroWeightConvHasExactPointInterval) {
    Rng rng(4);
    nn::Graph g;
    const int c = g.add(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, false, rng), 0);
    g.set_output(c);
    dynamic_cast<nn::Conv2d*>(g.node_module(1))->weight().fill(0.0f);
    verify::AnalyzeOptions opts;
    opts.qconfig = quant::QuantConfig{}.with_input_range(-1.0f, 1.0f);
    const verify::Analysis a = verify::analyze(g, {1, 3, 8, 8}, opts);
    ASSERT_EQ(a.value_ranges.size(), g.node_count());
    const quant::Interval& v = a.value_ranges[static_cast<std::size_t>(c)];
    ASSERT_TRUE(v.known);
    EXPECT_DOUBLE_EQ(v.lo, 0.0);  // a dead channel's interval is exactly {0}
    EXPECT_DOUBLE_EQ(v.hi, 0.0);
}

// ------------------------------------------------- catalog exhaustiveness --

/// A module whose shape inference throws — the only way to seed G010.
struct ThrowingShape : nn::Module {
    Tensor forward(const Tensor& x) override { return x; }
    Tensor backward(const Tensor& g) override { return g; }
    [[nodiscard]] std::string name() const override { return "ThrowingShape"; }
    [[nodiscard]] Shape out_shape(const Shape&) const override {
        throw std::runtime_error("seeded failure");
    }
};

/// One deliberately broken model per catalog code, so the catalog, the
/// checkers, and this test cannot drift: a new code without a seed (or a
/// seed whose code vanished from the catalog) fails here.
std::map<std::string, verify::Report> seeded_defect_reports() {
    std::map<std::string, verify::Report> out;
    Rng rng(1);
    {
        nn::Graph g;
        g.add(std::make_unique<nn::DWConv3>(3, rng), 42);
        out["G001"] = verify::check_graph(g, kIn);
    }
    {
        nn::Graph g;
        g.add(std::make_unique<nn::DWConv3>(3, rng), 1);
        out["G002"] = verify::check_graph(g, kIn);
    }
    {
        nn::Graph g;
        const int a = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
        const int b = g.add(std::make_unique<nn::MaxPool2>(), 0);
        g.add_concat({a, b});
        out["G003"] = verify::check_graph(g, kIn);
    }
    {
        nn::Graph g;
        const int a = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
        const int b = g.add(std::make_unique<nn::Conv2d>(3, 16, 3, 1, 1, false, rng), 0);
        g.add_add(a, b);
        out["G004"] = verify::check_graph(g, kIn);
    }
    {
        nn::Graph g;
        g.add(std::make_unique<nn::DWConv3>(8, rng), 0);
        g.add(std::make_unique<nn::Linear>(100, 10, rng), 0);  // reads 3 * 32 * 64
        out["G005"] = verify::check_graph(g, kIn);
    }
    {
        nn::Graph g;
        g.add(std::make_unique<nn::Conv2d>(3, 8, 7, 1, 0, false, rng), 0);
        out["G006"] = verify::check_graph(g, {1, 3, 4, 4});
    }
    {
        nn::Graph g;
        g.add(std::make_unique<nn::MaxPool2>(), 0);
        out["G007"] = verify::check_graph(g, {1, 3, 7, 9});
    }
    {
        nn::Graph g;
        const int keep = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
        g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
        g.set_output(keep);
        out["G008"] = verify::check_graph(g, kIn);
    }
    {
        nn::Graph g;
        g.add(std::make_unique<nn::MaxPool2>(), 0);
        g.set_output(99);
        out["G009"] = verify::check_graph(g, kIn);
    }
    {
        nn::Graph g;
        g.add(std::make_unique<ThrowingShape>(), 0);
        out["G010"] = verify::check_graph(g, kIn);
    }
    {
        nn::Graph g;
        const int a = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
        g.add_concat({a});
        out["G011"] = verify::check_graph(g, kIn);
    }
    {
        nn::Graph g;
        g.add(std::make_unique<nn::ChannelShuffle>(5), 0);
        out["G012"] = verify::check_graph(g, kIn);
    }
    {
        Rng mrng(7);
        SkyNetModel model = build_skynet(small_cfg(), mrng);
        model.set_feature_tap(9999, model.feature_channels());
        out["M001"] = verify::check_model(model, kIn);
    }
    {
        Rng mrng(7);
        SkyNetModel model = build_skynet(small_cfg(), mrng);
        model.set_feature_tap(model.feature_node(), model.feature_channels() + 1);
        out["M002"] = verify::check_model(model, kIn);
    }
    {
        SkyNetModel model;
        out["M003"] = verify::check_model(model, kIn);
    }
    {
        nn::Graph g;
        const int c = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
        g.add(std::make_unique<nn::BatchNorm2d>(8), c);
        out["Q001"] = verify::check_qmodel(g, quant::QuantConfig{});
    }
    {
        nn::Graph g;
        g.add(std::make_unique<nn::PWConv1>(8, 8, false, rng, 2), 0);
        out["Q002"] = verify::check_qmodel(g, quant::QuantConfig{});
    }
    {
        nn::Graph g;
        g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
        verify::QuantCheckOptions opts;
        opts.calibrated_fm_abs_max = 100.0f;
        out["Q003"] = verify::check_qmodel(g, quant::QuantConfig{9, 11, 8.0f}, opts);
    }
    {
        nn::Graph g;
        g.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), 0);
        out["Q004"] = verify::check_qmodel(g, quant::QuantConfig{9, 11, 2.0f});
    }
    {
        nn::Graph g;
        out["Q005"] = verify::check_qmodel(g, quant::QuantConfig{0, 11, 8.0f});
    }
    {
        nn::Graph g;
        out["Q006"] = verify::check_qmodel(g, quant::QuantConfig{9, 11, 500.0f});
    }
    {
        nn::Graph g;
        g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, false, rng), 0);
        dynamic_cast<nn::Conv2d*>(g.node_module(1))->weight().fill(1e38f);
        out["A001"] = verify::analyze(g, kIn).report;
    }
    {
        nn::Graph g;
        g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), 0);
        out["A002"] = verify::analyze(g, kIn).report;
    }
    {
        nn::Graph g;
        g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), 0);
        verify::AnalyzeOptions opts;
        opts.qconfig = quant::QuantConfig{}.with_input_range(-3.0f, -1.0f);
        out["A003"] = verify::analyze(g, kIn, opts).report;
    }
    {
        nn::Graph g;
        const int c1 = g.add(std::make_unique<nn::Conv2d>(3, 512, 3, 1, 1, false, rng), 0);
        const int a1 = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), c1);
        g.set_output(
            g.add(std::make_unique<nn::Conv2d>(512, 8, 3, 1, 1, false, rng), a1));
        verify::AnalyzeOptions opts;
        opts.qconfig = quant::QuantConfig{9, 15, 8.0f};
        out["A004"] = verify::analyze(g, kIn, opts).report;
    }
    {
        // E001/E003/E004: a quantized conv against an impossibly tight
        // budget — the input's half-step alone crosses it, the output bound
        // dominates it, and no feasible fractional-bit count exists.
        nn::Graph g;
        g.set_output(
            g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, true, rng), 0));
        verify::AnalyzeOptions opts;
        opts.qconfig = quant::QuantConfig{}.with_error_budget(1e-7f);
        const verify::Report rep = verify::analyze(g, kIn, opts).report;
        out["E001"] = rep;
        out["E003"] = rep;
        out["E004"] = rep;
    }
    {
        // E002: a module kind no error transfer function knows, with an
        // unknown value interval — the certified bound is unrecoverable.
        struct OpaqueOp : nn::Module {
            Tensor forward(const Tensor& x) override { return x; }
            Tensor backward(const Tensor& grad) override { return grad; }
            [[nodiscard]] std::string name() const override { return "OpaqueOp"; }
            [[nodiscard]] Shape out_shape(const Shape& in) const override {
                return in;
            }
        };
        nn::Graph g;
        g.set_output(g.add(std::make_unique<OpaqueOp>(), 0));
        out["E002"] = verify::analyze(g, kIn).report;
    }
    return out;
}

TEST(Verify, CatalogIsExhaustiveAndSeverityStable) {
    const std::map<std::string, verify::Report> seeded = seeded_defect_reports();
    const std::vector<verify::CatalogEntry>& cat = verify::catalog();
    ASSERT_FALSE(cat.empty());

    // Every catalogued code has a seeded defect that fires it, at the
    // catalogued severity.
    for (const verify::CatalogEntry& e : cat) {
        const auto it = seeded.find(e.code);
        ASSERT_NE(it, seeded.end()) << "no seeded defect for " << e.code;
        bool fired = false;
        for (const verify::Diagnostic& d : it->second.diagnostics)
            if (d.code == e.code) {
                fired = true;
                EXPECT_EQ(d.severity, e.severity) << e.code;
            }
        EXPECT_TRUE(fired) << e.code << " did not fire: " << it->second.str();
    }

    // Conversely: nothing fires a code the catalog does not list.
    for (const auto& [code, rep] : seeded)
        for (const verify::Diagnostic& d : rep.diagnostics) {
            bool catalogued = false;
            for (const verify::CatalogEntry& e : cat)
                catalogued = catalogued || d.code == e.code;
            EXPECT_TRUE(catalogued) << d.code << " fired but is not catalogued";
        }
}

}  // namespace
}  // namespace sky
