// Fused eval epilogues (nn/epilogue.hpp, nn::Graph::forward): an eval
// forward folds Identity / Activation nodes, and eval BatchNorm2d nodes as
// a per-channel affine, into their producers and must stay bitwise equal to
// a node-by-node unfused evaluation at every SIMD level and thread count.
// Every unfolded network's BatchNorms get random statistics first
// (testing::randomize_bn).  Also pins which patterns must not fuse,
// node_output's view of fused nodes, the training exception and the
// refusal of collapsing inputs.
//
// PoolFold: an eval forward also folds a MaxPool2 into the PWConv1 whose
// value it alone reads, and the pwconv pools each band of its output from
// scratch.  Pinned bitwise against the unfused evaluation over batch sizes
// 4 -> 1 -> 3, odd maps and grouped pwconvs, with what must not fold.
//
// ActivationReuse: every node that runs writes into the buffer it wrote on
// the previous forward (Module::forward_fused).  Buffers stay put across
// forwards and batch sizes, stale contents never reach a result, and eval
// MaxPool2, which runs the vector kernel and records no argmax, equals
// the training-mode pool at every level.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backbones/registry.hpp"
#include "core/simd.hpp"
#include "core/thread_pool.hpp"
#include "deploy/fold_bn.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dwconv.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "nn/space_to_depth.hpp"
#include "simd_levels.hpp"
#include "skynet/detector.hpp"
#include "skynet/skynet_model.hpp"
#include "tracking/siamese.hpp"
#include "unfused_reference.hpp"

namespace sky {
namespace {

struct Restore {
    core::SimdLevel saved = core::active_simd_level();
    ~Restore() {
        core::set_simd_level(saved);
        core::ThreadPool::set_global_threads(0);
    }
};

Tensor random_input(Shape s, std::uint64_t seed, float lo = -1.0f, float hi = 1.0f) {
    Rng rng(seed);
    Tensor x(s);
    x.rand_uniform(rng, lo, hi);
    return x;
}

std::uint32_t bits(float v) {
    std::uint32_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

void expect_bitwise(const Tensor& got, const Tensor& want, const std::string& what) {
    ASSERT_EQ(got.shape(), want.shape()) << what;
    for (std::int64_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(bits(got[i]), bits(want[i]))
            << what << " idx " << i << ": " << got[i] << " vs " << want[i];
}

/// Eval forward of `m` against the unfused reference at every SIMD level and
/// 1/2/4 threads (the reference is recomputed per level: FMA contraction
/// makes levels differ from each other, never a level from itself).
void expect_fused_equals_unfused(nn::Module& m, const Tensor& x, const std::string& what) {
    Restore restore;
    m.set_training(false);
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        core::ThreadPool::set_global_threads(1);
        const Tensor ref = testing::unfused_forward(m, x);
        for (int threads : {1, 2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            expect_bitwise(m.forward(x), ref,
                           what + " @" + core::simd_level_name(lvl) + "/" +
                               std::to_string(threads) + "t");
        }
    }
}

int fused_count(const nn::Graph& g) {
    int n = 0;
    for (std::size_t i = 0; i < g.node_count(); ++i)
        if (g.node_carrier(static_cast<int>(i)) != static_cast<int>(i)) ++n;
    return n;
}

/// BatchNorm nodes of `g` (nested graphs included) that the last forward
/// ran as modules of their own.
int running_bns(const nn::Graph& g) {
    int n = 0;
    for (std::size_t i = 0; i < g.node_count(); ++i) {
        const nn::Module* m = g.node_module(i);
        if (const auto* sub = dynamic_cast<const nn::Graph*>(m)) n += running_bns(*sub);
        if (m != nullptr && m->kind() == "bn" &&
            g.node_carrier(static_cast<int>(i)) == static_cast<int>(i))
            ++n;
    }
    return n;
}

// ------------------------------------------------------------ bitwise

TEST(FusedForward, SkyNetBitwiseEqualsUnfusedFoldedAndUnfolded) {
    for (SkyNetVariant v : {SkyNetVariant::kA, SkyNetVariant::kB, SkyNetVariant::kC})
        for (nn::Act act : {nn::Act::kReLU, nn::Act::kReLU6, nn::Act::kLeaky})
            for (bool folded : {false, true}) {
                Rng rng(11);
                Detector det({v, act, 2, 0.25f}, rng);
                ASSERT_GT(testing::randomize_bn(det.net(), 14), 0);
                if (folded) (void)det.fold_bn();
                const Tensor x = random_input({2, 3, 32, 64}, 12, 0.0f, 1.0f);
                const std::string what = std::string(variant_name(v)) + "/" +
                                         nn::act_name(act) + (folded ? "/folded" : "");
                expect_fused_equals_unfused(det.net(), x, what);
                // No BatchNorm runs, and every Bundle activation fused into
                // its conv (unfolded: after the BN's affine; folded: through
                // the Identity).
                EXPECT_EQ(running_bns(det.net()), 0) << what;
                int acts = 0;
                for (std::size_t i = 0; i < det.net().node_count(); ++i)
                    if (det.net().node_module(i) != nullptr &&
                        det.net().node_module(i)->kind() == "act") {
                        ++acts;
                        EXPECT_NE(det.net().node_carrier(static_cast<int>(i)),
                                  static_cast<int>(i))
                            << what << " node " << i;
                    }
                EXPECT_GT(acts, 0);
            }
}

TEST(FusedForward, SigmoidAndConvBiasActivationGraphs) {
    Rng rng(21);
    nn::Graph g;
    // conv (own bias) -> Sigmoid
    int a = g.add(std::make_unique<nn::Conv2d>(3, 6, 3, 1, 1, true, rng), g.input());
    a = g.add(std::make_unique<nn::Activation>(nn::Act::kSigmoid), a);
    // conv -> LeakyReLU, with -0.0 and 0.0 among the conv's biases
    auto conv = std::make_unique<nn::Conv2d>(3, 6, 3, 1, 1, true, rng);
    const float conv_bias[] = {0.5f, -0.25f, 0.0f, -0.0f, 1.0f, -2.0f};
    for (int k = 0; k < 6; ++k) conv->bias()[k] = conv_bias[k];
    int b = g.add(std::move(conv), g.input());
    b = g.add(std::make_unique<nn::Activation>(nn::Act::kLeaky, 0.2f), b);
    b = g.add(std::make_unique<nn::MaxPool2>(), b);
    // pwconv with its own bias -> ReLU6
    auto pw = std::make_unique<nn::PWConv1>(3, 6, true, rng);
    for (int k = 0; k < 6; ++k) pw->bias()[k] = 0.75f;
    int c = g.add(std::move(pw), g.input());
    c = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), c);
    c = g.add(std::make_unique<nn::MaxPool2>(), c);
    // dwconv with a folded-BN bias -> ReLU, BN -> Sigmoid
    auto dw = std::make_unique<nn::DWConv3>(6, rng);
    dw->enable_bias();
    for (int k = 0; k < 6; ++k)
        dw->bias()[k] = k == 2 ? -0.0f : 0.2f * static_cast<float>(k) - 0.3f;
    int d = g.add(std::move(dw), a);
    d = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), d);
    d = g.add(std::make_unique<nn::BatchNorm2d>(6), d);
    d = g.add(std::make_unique<nn::Activation>(nn::Act::kSigmoid), d);
    d = g.add(std::make_unique<nn::MaxPool2>(), d);
    g.set_output(g.add_concat({b, c, d}));
    expect_fused_equals_unfused(g, random_input({2, 3, 10, 14}, 22), "mixed");
    // Every activation node fused: the two sigmoids and the other acts.
    for (std::size_t i = 0; i < g.node_count(); ++i) {
        if (g.node_module(i) != nullptr && g.node_module(i)->kind() == "act") {
            EXPECT_NE(g.node_carrier(static_cast<int>(i)), static_cast<int>(i)) << i;
        }
    }
    // Only the pwconv takes its pool; the conv's and the BN's run.
    EXPECT_EQ(g.node_carrier(c), c - 2);
    EXPECT_EQ(g.node_carrier(b), b);
    EXPECT_EQ(g.node_carrier(d), d);
}

TEST(FusedForward, BackboneZooBitwiseEqualsUnfused) {
    for (const std::string& name : backbones::backbone_names()) {
        Rng rng(31);
        backbones::Backbone b = backbones::build_by_name(name, 0.25f, rng);
        testing::randomize_bn(*b.net, 33);
        expect_fused_equals_unfused(*b.net, random_input({1, 3, 32, 32}, 32, 0.0f, 1.0f),
                                    name);
    }
}

TEST(FusedForward, SiamRpnEmbedBitwiseEqualsUnfused) {
    Rng rng(41);
    SkyNetModel bb = build_skynet_backbone(0.25f, nn::Act::kReLU6, rng);
    const int channels = bb.feature_channels();
    const nn::Graph& backbone = *bb.net;
    tracking::SiameseEmbed embed(std::move(bb.net), channels, 16, rng);
    ASSERT_GT(testing::randomize_bn(embed.net(), 43), 0);
    expect_fused_equals_unfused(embed.net(), random_input({2, 3, 64, 64}, 42, 0.0f, 1.0f),
                                "embed");
    // The backbone is the embed chain's node 1, a nested graph: its BN ->
    // ReLU6 pairs fused into their convs, and so did the neck's BN, the
    // embed's output.
    ASSERT_EQ(embed.net().node_module(1), &backbone);
    EXPECT_GT(fused_count(backbone), 0);
    EXPECT_EQ(running_bns(embed.net()), 0);
    EXPECT_EQ(embed.net().node_carrier(embed.net().output_node()), 2);
}

TEST(FusedForward, EvalBatchNormFoldsIntoItsConvAsAnAffine) {
    Rng rng(45);
    nn::Graph g;
    const auto bn = [&](int node, int ch) {
        return g.add(std::make_unique<nn::BatchNorm2d>(ch), node);
    };
    const auto act = [&](int node, nn::Act a) {
        return g.add(std::make_unique<nn::Activation>(a, 0.2f), node);
    };
    // Each conv takes its BN and then its activation.
    const int conv = g.add(std::make_unique<nn::Conv2d>(3, 6, 3, 1, 1, true, rng), g.input());
    const int conv_bn = bn(conv, 6);
    const int conv_act = act(conv_bn, nn::Act::kLeaky);
    const int pw = g.add(std::make_unique<nn::PWConv1>(6, 6, false, rng), conv_act);
    const int pw_bn = bn(pw, 6);
    const int pw_act = act(pw_bn, nn::Act::kReLU6);
    const int dw = g.add(std::make_unique<nn::DWConv3>(6, rng), pw_act);
    const int dw_bn = bn(dw, 6);
    // A BN that cannot fold runs as a producer and takes the activation
    // after it: after the input, after an activation, after a BN, after a
    // conv with a second reader, and after a Linear.
    const int in_bn = bn(g.input(), 3);
    const int in_act = act(in_bn, nn::Act::kReLU);
    const int pw2 = g.add(std::make_unique<nn::PWConv1>(3, 6, true, rng), in_act);
    const int pw2_act = act(pw2, nn::Act::kReLU);
    const int late_bn = bn(pw2_act, 6);
    const int late_act = act(late_bn, nn::Act::kSigmoid);
    const int second_bn = bn(dw_bn, 6);
    const int shared = g.add(std::make_unique<nn::DWConv3>(6, rng), late_act);
    const int shared_bn = bn(shared, 6);
    const int cat = g.add_concat({second_bn, shared_bn, shared});
    const int fc = g.add(std::make_unique<nn::Linear>(18 * 8 * 10, 5, rng), cat);
    const int fc_bn = bn(fc, 5);
    g.set_output(act(fc_bn, nn::Act::kReLU));
    ASSERT_EQ(testing::randomize_bn(g, 46), 8);
    const Tensor x = random_input({2, 3, 8, 10}, 47);
    expect_fused_equals_unfused(g, x, "bn graph");
    EXPECT_EQ(g.node_carrier(conv_bn), conv);
    EXPECT_EQ(g.node_carrier(conv_act), conv);
    EXPECT_EQ(g.node_carrier(pw_bn), pw);
    EXPECT_EQ(g.node_carrier(pw_act), pw);
    EXPECT_EQ(g.node_carrier(dw_bn), dw);
    for (int runs : {in_bn, late_bn, second_bn, shared_bn, fc_bn})
        EXPECT_EQ(g.node_carrier(runs), runs) << "node " << runs;
    EXPECT_EQ(g.node_carrier(in_act), in_bn);
    EXPECT_EQ(g.node_carrier(pw2_act), pw2);
    EXPECT_EQ(g.node_carrier(late_act), late_bn);
    EXPECT_EQ(g.node_carrier(g.output_node()), fc_bn);

    // Without its cached affine (a mutable gamma() dropped it) a BN is no
    // epilogue: it runs as a module, from its current statistics.
    auto* pw_norm =
        dynamic_cast<nn::BatchNorm2d*>(g.node_module(static_cast<std::size_t>(pw_bn)));
    ASSERT_NE(pw_norm, nullptr);
    ASSERT_TRUE(pw_norm->has_affine());
    pw_norm->gamma()[0] = -2.0f;
    EXPECT_FALSE(pw_norm->has_affine());
    EXPECT_FALSE(pw_norm->as_epilogue());
    Restore restore;
    core::ThreadPool::set_global_threads(2);
    expect_bitwise(g.forward(x), testing::unfused_forward(g, x), "uncached BN");
    EXPECT_EQ(g.node_carrier(pw_bn), pw_bn);
    EXPECT_EQ(g.node_carrier(pw_act), pw_bn);
    g.set_training(false);  // caches it again
    EXPECT_TRUE(pw_norm->has_affine());
    expect_bitwise(g.forward(x), testing::unfused_forward(g, x), "recached BN");
    EXPECT_EQ(g.node_carrier(pw_bn), pw);
}

// ------------------------------------------------------ fusion rule

TEST(FusedForward, UnfusableCasesRunUnfused) {
    Rng rng(51);
    nn::Graph g;
    // Input -> act: the input carries no epilogue.
    const int act_in = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), g.input());
    // A producer with a second reader keeps its value.
    const int shared = g.add(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, true, rng), act_in);
    const int act_shared = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), shared);
    const int cat = g.add_concat({act_shared, shared});
    // Concat -> act, then a second act after an act.
    const int act_cat = g.add(std::make_unique<nn::Activation>(nn::Act::kLeaky), cat);
    const int pw = g.add(std::make_unique<nn::PWConv1>(8, 4, false, rng), act_cat);
    const int act1 = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), pw);
    const int act2 = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), act1);
    // Add -> act.
    const int sum = g.add_add(act2, act1);
    const int act_add = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), sum);
    const int pw2 = g.add(std::make_unique<nn::PWConv1>(4, 4, true, rng), act_add);
    const int act3 = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), pw2);
    // A producer that is the graph output keeps its value too.
    const int out = g.add(std::make_unique<nn::DWConv3>(4, rng), g.add_add(act_add, act3));
    const int act_dead = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), out);
    g.set_output(out);

    expect_fused_equals_unfused(g, random_input({2, 3, 8, 8}, 52), "unfusable");
    for (int unfused : {act_in, act_shared, act_cat, act2, act_add, act_dead})
        EXPECT_EQ(g.node_carrier(unfused), unfused) << "node " << unfused;
    EXPECT_EQ(g.node_carrier(act1), pw);  // the first act in a row does fuse
    EXPECT_EQ(g.node_carrier(act3), pw2);
    EXPECT_EQ(fused_count(g), 2);
}

TEST(FusedForward, TrainingRunsEveryNode) {
    Rng rng(61);
    SkyNetModel model = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    nn::Graph& g = *model.net;
    const Tensor x = random_input({1, 3, 32, 64}, 62, 0.0f, 1.0f);
    g.set_training(true);
    (void)g.forward(x);
    EXPECT_EQ(fused_count(g), 0);
    g.set_training(false);  // back in eval mode, fusion is back
    (void)g.forward(x);
    EXPECT_GT(fused_count(g), 0);
}

TEST(FusedForward, NodeOutputReadsCarriersAndRefusesOverwrittenProducers) {
    Rng rng(71);
    Detector det({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    (void)det.fold_bn();
    nn::Graph& g = det.net();
    g.set_training(false);
    const Tensor x = random_input({1, 3, 32, 64}, 72, 0.0f, 1.0f);
    const std::vector<Tensor> ref = testing::unfused_node_values(g, x);
    (void)g.forward(x);
    // SkyNet's feature tap is a fused activation: it reads post-activation
    // features from its carrier.
    const int feat = det.model().feature_node();
    ASSERT_NE(g.node_carrier(feat), feat);
    expect_bitwise(g.node_output(feat), ref[static_cast<std::size_t>(feat)], "feature tap");
    int refused = 0;
    for (std::size_t i = 0; i < g.node_count(); ++i) {
        const int node = static_cast<int>(i);
        try {
            expect_bitwise(g.node_output(node), ref[i], "node " + std::to_string(i));
        } catch (const std::logic_error& e) {
            // Only a value an epilogue overwrote refuses, naming that node.
            ++refused;
            EXPECT_NE(std::string(e.what()).find("fused into it"), std::string::npos);
        }
    }
    EXPECT_GT(refused, 0);
    EXPECT_THROW((void)g.node_output(static_cast<int>(g.node_count())), std::out_of_range);
}

TEST(FusedForward, CollapsingInputIsRefusedBeforeAnyLayerRuns) {
    Rng rng(81);
    Detector det({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    const Tensor tiny = random_input({1, 3, 6, 6}, 82, 0.0f, 1.0f);
    try {
        (void)det.forward(tiny);
        FAIL() << "a 6x6 input collapses SkyNet's maps and must be refused";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("has a degenerate shape"), std::string::npos)
            << e.what();
    }
    det.net().set_training(true);
    EXPECT_THROW((void)det.net().forward(tiny), std::invalid_argument);
}

// ------------------------------------------------------------ pool fold

/// Top-level pools of `g` that the last forward folded into a producer.
int folded_pools(const nn::Graph& g) {
    int n = 0;
    for (std::size_t i = 0; i < g.node_count(); ++i) {
        const nn::Module* m = g.node_module(i);
        if (m != nullptr && m->kind() == "pool" &&
            g.node_carrier(static_cast<int>(i)) != static_cast<int>(i))
            ++n;
    }
    return n;
}

/// Eval forwards of `m` over `xs` in turn, each into the buffers the one
/// before wrote, against the unfused reference at every SIMD level and
/// 1/2/4 threads.
void expect_sequence_equals_unfused(nn::Module& m, const std::vector<Tensor>& xs,
                                    const std::string& what) {
    Restore restore;
    m.set_training(false);
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        core::ThreadPool::set_global_threads(1);
        std::vector<Tensor> refs;
        for (const Tensor& x : xs) refs.push_back(testing::unfused_forward(m, x));
        for (int threads : {1, 2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            for (std::size_t k = 0; k < xs.size(); ++k)
                expect_bitwise(m.forward(xs[k]), refs[k],
                               what + " @" + core::simd_level_name(lvl) + "/" +
                                   std::to_string(threads) + "t " + xs[k].shape().str());
        }
    }
}

/// Batches of 4, 1 and 3 images of c x h x w in [0, 1].
std::vector<Tensor> batches(int c, int h, int w, std::uint64_t seed) {
    return {random_input({4, c, h, w}, seed, 0.0f, 1.0f),
            random_input({1, c, h, w}, seed + 1, 0.0f, 1.0f),
            random_input({3, c, h, w}, seed + 2, 0.0f, 1.0f)};
}

TEST(PoolFold, SkyNetBundlePoolsFoldBitwise) {
    for (SkyNetVariant v : {SkyNetVariant::kA, SkyNetVariant::kB, SkyNetVariant::kC})
        for (nn::Act act : {nn::Act::kReLU6, nn::Act::kReLU, nn::Act::kLeaky})
            for (bool folded : {false, true}) {
                Rng rng(81);
                Detector det({v, act, 2, 0.25f}, rng);
                ASSERT_GT(testing::randomize_bn(det.net(), 80), 0);
                if (folded) (void)det.fold_bn();
                const std::string what = std::string(variant_name(v)) + "/" +
                                         nn::act_name(act) + (folded ? "/folded" : "");
                expect_sequence_equals_unfused(det.net(), batches(3, 32, 64, 82), what);
                // Bundles 1-3 end in pwconv -> act -> pool (unfolded, the
                // pwconv's BatchNorm folds into it first), but B's and C's
                // Bundle-3 output also feeds the bypass.
                const int want = v == SkyNetVariant::kA ? 3 : 2;
                EXPECT_EQ(folded_pools(det.net()), want) << what;
                EXPECT_EQ(running_bns(det.net()), 0) << what;
            }
}

TEST(PoolFold, ZooAndSiamRpnEmbedBitwise) {
    // BN-folded: MobileNet's two pools fold into its pwconvs, and no other
    // zoo pool follows a pwconv's sole reader (FusedForward runs the
    // unfolded zoo).
    for (const std::string& name : backbones::backbone_names()) {
        Rng rng(83);
        backbones::Backbone b = backbones::build_by_name(name, 0.25f, rng);
        testing::randomize_bn(*b.net, 84);
        deploy::fold_graph_bn(*b.net);
        expect_sequence_equals_unfused(*b.net, batches(3, 32, 32, 84), name);
        EXPECT_EQ(folded_pools(*b.net), name == "mobilenet" ? 2 : 0) << name;
    }
    for (bool folded : {false, true}) {
        Rng rng(85);
        SkyNetModel bb = build_skynet_backbone(0.25f, nn::Act::kReLU6, rng);
        ASSERT_GT(testing::randomize_bn(*bb.net, 86), 0);
        if (folded) deploy::fold_graph_bn(*bb.net);
        const int channels = bb.feature_channels();
        const nn::Graph& backbone = *bb.net;
        tracking::SiameseEmbed embed(std::move(bb.net), channels, 16, rng);
        testing::randomize_bn(embed.net(), 87);  // the neck's BN; and unfolded, the backbone's
        expect_sequence_equals_unfused(embed.net(), batches(3, 32, 32, 86),
                                       folded ? "embed/folded" : "embed");
        // All three pools fold (the backbone has no bypass), as the tracker
        // runs it with its BatchNorms as in the folded graph.
        EXPECT_EQ(folded_pools(backbone), 3);
        EXPECT_EQ(running_bns(embed.net()), 0);
    }
}

TEST(PoolFold, OddMapsGroupedPwconvsAndStaleBuffers) {
    Rng rng(87);
    nn::Graph g;
    auto pw = std::make_unique<nn::PWConv1>(3, 8, true, rng);
    for (int k = 0; k < 8; ++k)
        pw->bias()[k] = k == 3 ? -0.0f : 0.3f * static_cast<float>(k) - 1.0f;
    int n = g.add(std::move(pw), g.input());
    n = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), n);
    const int p1 = g.add(std::make_unique<nn::MaxPool2>(), n);
    n = g.add(std::make_unique<nn::PWConv1>(8, 12, true, rng, /*groups=*/4), p1);
    n = g.add(std::make_unique<nn::Activation>(nn::Act::kLeaky, 0.1f), n);
    const int p2 = g.add(std::make_unique<nn::MaxPool2>(), n);
    g.set_output(p2);
    // Odd H and W drop a last row and column; 45 x 75 splits into several
    // row bands; NaNs pin the activation before the pool.
    Tensor nans = random_input({2, 3, 9, 11}, 88);
    for (std::int64_t i = 0; i < nans.size(); i += 7)
        nans[i] = std::numeric_limits<float>::quiet_NaN();
    expect_sequence_equals_unfused(
        g,
        {random_input({4, 3, 45, 75}, 89), random_input({1, 3, 11, 13}, 90),
         random_input({3, 3, 13, 6}, 91), nans},
        "odd maps");
    EXPECT_EQ(folded_pools(g), 2);

    // Straight into a stale buffer of another shape: the pwconv writes every
    // pooled element, and only those.
    Restore restore;
    nn::PWConv1 single(5, 7, true, rng);
    single.set_training(false);
    nn::Activation relu(nn::Act::kReLU);
    nn::MaxPool2 pool;
    pool.set_training(false);
    for (const Shape s : {Shape{2, 5, 9, 11}, Shape{1, 5, 40, 70}, Shape{3, 5, 2, 3}}) {
        const Tensor x = random_input(s, 92);
        const Tensor want = pool.forward(relu.forward(single.forward(x)));
        for (int threads : {1, 2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            Tensor stale({3, 7, 21, 20}, std::numeric_limits<float>::quiet_NaN());
            single.forward_fused(x, nn::Epilogue{nn::EpilogueAct::kReLU, 0.0f, true}, stale);
            expect_bitwise(stale, want,
                           "stale " + s.str() + " " + std::to_string(threads) + "t");
        }
    }
}

TEST(PoolFold, WhatMustNotFoldRuns) {
    Rng rng(93);
    nn::Graph g;
    // A second reader: the activation also feeds a dwconv, whose pool runs
    // too (a dwconv takes no pool).
    const int a = g.add(std::make_unique<nn::PWConv1>(3, 4, true, rng), g.input());
    const int a_act = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), a);
    const int a_pool = g.add(std::make_unique<nn::MaxPool2>(), a_act);
    const int a_dw = g.add(std::make_unique<nn::DWConv3>(4, rng), a_act);
    const int dw_pool = g.add(std::make_unique<nn::MaxPool2>(), a_dw);
    // A pool after a Conv2d, and after a BatchNorm that runs (after the
    // input).  After a pwconv's eval BatchNorm, which folds into the pwconv
    // as its affine, the pool folds too.
    const int conv = g.add(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, true, rng), g.input());
    const int conv_pool = g.add(std::make_unique<nn::MaxPool2>(), conv);
    const int b = g.add(std::make_unique<nn::PWConv1>(3, 4, false, rng), g.input());
    const int bn = g.add(std::make_unique<nn::BatchNorm2d>(4), b);
    const int bn_pool = g.add(std::make_unique<nn::MaxPool2>(), bn);
    const int in_bn = g.add(std::make_unique<nn::BatchNorm2d>(3), g.input());
    const int in_bn_pool = g.add(std::make_unique<nn::MaxPool2>(), in_bn);
    // A folded pool takes nothing after it: the pwconv applies its
    // activation before it pools, so a later ReLU and pool both run.
    const int c = g.add(std::make_unique<nn::PWConv1>(3, 4, true, rng), g.input());
    const int c_pool = g.add(std::make_unique<nn::MaxPool2>(), c);
    const int c_act = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), c_pool);
    const int c_pool2 = g.add(std::make_unique<nn::MaxPool2>(), c_act);
    const int d = g.add(std::make_unique<nn::PWConv1>(3, 4, true, rng), g.input());
    const int d_pool = g.add(std::make_unique<nn::MaxPool2>(), d);
    const int d_pool2 = g.add(std::make_unique<nn::MaxPool2>(), d_pool);
    const int cat = g.add_concat({a_pool, dw_pool, conv_pool, bn_pool, in_bn_pool, c_act});
    g.set_output(g.add_concat({g.add(std::make_unique<nn::MaxPool2>(), cat), c_pool2, d_pool2}));
    ASSERT_EQ(testing::randomize_bn(g, 99), 2);
    Tensor x = random_input({2, 3, 12, 16}, 94);
    for (std::int64_t i = 0; i < x.size(); i += 5) x[i] = std::numeric_limits<float>::quiet_NaN();
    expect_sequence_equals_unfused(g, {x, random_input({1, 3, 8, 20}, 95)}, "must not fold");
    for (int unfolded : {a_pool, dw_pool, conv_pool, in_bn, in_bn_pool, c_act, c_pool2, d_pool2})
        EXPECT_EQ(g.node_carrier(unfolded), unfolded) << "node " << unfolded;
    EXPECT_EQ(g.node_carrier(c_pool), c);
    EXPECT_EQ(g.node_carrier(d_pool), d);
    EXPECT_EQ(g.node_carrier(bn), b);
    EXPECT_EQ(g.node_carrier(bn_pool), b);

    // A pwconv that is the graph output keeps its value.
    nn::Graph h;
    const int out = h.add(std::make_unique<nn::PWConv1>(3, 4, true, rng), h.input());
    const int dangling = h.add(std::make_unique<nn::MaxPool2>(), out);
    h.set_output(out);
    expect_sequence_equals_unfused(h, {random_input({2, 3, 6, 6}, 96)}, "output pwconv");
    EXPECT_EQ(h.node_carrier(dangling), dangling);
}

TEST(PoolFold, NodeOutputOfAFoldedOverNodeNamesThePool) {
    Rng rng(97);
    Detector det({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    (void)det.fold_bn();
    nn::Graph& g = det.net();
    g.set_training(false);
    const Tensor x = random_input({2, 3, 32, 64}, 98, 0.0f, 1.0f);
    const std::vector<Tensor> ref = testing::unfused_node_values(g, x);
    (void)g.forward(x);
    const std::vector<int> overwritten = g.fusion_plan().overwritten;
    int checked = 0;
    for (int i = 0; i < static_cast<int>(g.node_count()); ++i) {
        const nn::Module* m = g.node_module(static_cast<std::size_t>(i));
        const int c = g.node_carrier(i);
        if (m == nullptr || m->kind() != "pool" || c == i) continue;
        EXPECT_EQ(g.node_module(static_cast<std::size_t>(c))->kind(), "pwconv");
        expect_bitwise(g.node_output(i), ref[static_cast<std::size_t>(i)],
                       "pool " + std::to_string(i));
        // The pool overwrote the value its pwconv's activation left.
        for (int k = c; k < i; ++k) {
            if (overwritten[static_cast<std::size_t>(k)] != i) continue;
            try {
                (void)g.node_output(k);
                ADD_FAILURE() << "node " << k << " under pool " << i << " was readable";
            } catch (const std::logic_error& e) {
                const std::string named = "node " + std::to_string(i) + " (MaxPool2x2)";
                EXPECT_NE(std::string(e.what()).find(named), std::string::npos) << e.what();
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 2);  // the ReLU6 of Bundles 1 and 2
}

// ------------------------------------------------- activation reuse

/// A network under test, in eval mode, and whatever owns it.
struct Net {
    std::string name;
    Shape in;  ///< input shape at batch 1
    std::shared_ptr<void> owner;
    nn::Graph* graph = nullptr;
};

Net eval_net(std::string name, Shape in, std::shared_ptr<void> owner, nn::Graph& g) {
    g.set_training(false);
    return Net{std::move(name), in, std::move(owner), &g};
}

/// SkyNet A/B/C (unfolded, and BN-folded as serve runs it) and the SiamRPN
/// embed, each built afresh from a fixed seed.  Every node that runs in
/// them writes into its buffer (the nested embed backbone included).
std::vector<std::function<Net()>> skynet_nets() {
    std::vector<std::function<Net()>> out;
    for (SkyNetVariant v : {SkyNetVariant::kA, SkyNetVariant::kB, SkyNetVariant::kC})
        for (bool folded : {false, true})
            out.emplace_back([v, folded] {
                Rng rng(91);
                auto det = std::make_shared<Detector>(
                    SkyNetConfig{v, nn::Act::kReLU6, 2, 0.25f}, rng);
                if (folded) (void)det->fold_bn();
                return eval_net(std::string("SkyNet-") + variant_name(v) +
                                    (folded ? "/folded" : ""),
                                {1, 3, 32, 64}, det, det->net());
            });
    out.emplace_back([] {
        Rng rng(93);
        SkyNetModel bb = build_skynet_backbone(0.25f, nn::Act::kReLU6, rng);
        const int channels = bb.feature_channels();
        auto embed = std::make_shared<tracking::SiameseEmbed>(std::move(bb.net), channels,
                                                              16, rng);
        return eval_net("embed", {1, 3, 64, 64}, embed, embed->net());
    });
    return out;
}

/// The 9 zoo backbones.  Some of their nodes keep the default
/// forward_fused, which allocates.
std::vector<std::function<Net()>> zoo_nets() {
    std::vector<std::function<Net()>> out;
    for (const std::string& name : backbones::backbone_names())
        out.emplace_back([name] {
            Rng rng(92);
            auto b = std::make_shared<backbones::Backbone>(
                backbones::build_by_name(name, 0.25f, rng));
            return eval_net(name, {1, 3, 32, 32}, b, *b->net);
        });
    return out;
}

Shape at_batch(Shape s, int n) {
    s.n = n;
    return s;
}

/// The buffer behind every node value of `g` and of the graphs nested in
/// it, after the last forward; nullptr for a value an epilogue overwrote.
void collect_buffers(const nn::Graph& g, std::vector<const float*>& out) {
    for (std::size_t i = 0; i < g.node_count(); ++i) {
        try {
            out.push_back(g.node_output(static_cast<int>(i)).data());
        } catch (const std::logic_error&) {
            out.push_back(nullptr);
        }
        if (const auto* inner = dynamic_cast<const nn::Graph*>(g.node_module(i)))
            collect_buffers(*inner, out);
    }
}

std::vector<const float*> buffers(const nn::Graph& g) {
    std::vector<const float*> out;
    collect_buffers(g, out);
    return out;
}

TEST(ActivationReuse, SteadyStateForwardWritesTheSameBuffers) {
    Restore restore;
    core::ThreadPool::set_global_threads(4);
    for (const auto& make : skynet_nets()) {
        const Net net = make();
        nn::Graph& g = *net.graph;
        const Tensor x = random_input(at_batch(net.in, 4), 101, 0.0f, 1.0f);
        const Tensor first = g.forward(x);  // warm: every buffer sized
        const std::vector<const float*> warm = buffers(g);
        int live = 0;
        for (const float* p : warm) live += p != nullptr;
        EXPECT_GT(live, 4) << net.name;
        expect_bitwise(g.forward(x), first, net.name + " second forward");
        EXPECT_EQ(buffers(g), warm) << net.name << ": a node buffer was reallocated";
        // Smaller batches reuse the same buffers, and so does the way back.
        for (int n : {1, 4}) {
            (void)g.forward(random_input(at_batch(net.in, n), 102 + n, 0.0f, 1.0f));
            EXPECT_EQ(buffers(g), warm) << net.name << " at batch " << n;
        }
    }
}

/// Copies its input, and records what the graph handed it as `y`.
class ReuseProbe : public nn::Module {
public:
    Tensor forward(const Tensor& x) override { return x; }
    void forward_fused(const Tensor& x, const nn::Epilogue& ep, Tensor& y) override {
        arrived_data = y.data();
        arrived_shape = y.shape();
        y.resize(x.shape());
        std::copy_n(x.data(), x.size(), y.data());
        nn::apply_epilogue(ep, y);
        left_data = y.data();
        left_shape = y.shape();
    }
    Tensor backward(const Tensor& grad_out) override { return grad_out; }
    [[nodiscard]] std::string name() const override { return "ReuseProbe"; }
    [[nodiscard]] Shape out_shape(const Shape& in) const override { return in; }

    const float* arrived_data = nullptr;
    Shape arrived_shape{0, 0, 0, 0};
    const float* left_data = nullptr;
    Shape left_shape{0, 0, 0, 0};
};

TEST(ActivationReuse, TheGraphHandsEachNodeItsPreviousOutput) {
    Rng rng(105);
    nn::Graph g;
    std::vector<ReuseProbe*> probes;
    const auto probe = [&](int in) {
        auto p = std::make_unique<ReuseProbe>();
        probes.push_back(p.get());
        return g.add(std::move(p), in);
    };
    const int a = probe(g.add(std::make_unique<nn::PWConv1>(3, 4, false, rng), g.input()));
    const int b = probe(g.add(std::make_unique<nn::DWConv3>(4, rng), a));
    probe(g.add_concat({a, b}));
    g.set_training(false);
    (void)g.forward(random_input({4, 3, 6, 8}, 106));
    for (int n : {4, 1, 3}) {
        std::vector<std::pair<const float*, Shape>> before;
        for (const ReuseProbe* p : probes) before.emplace_back(p->left_data, p->left_shape);
        (void)g.forward(random_input({n, 3, 6, 8}, 107));
        for (std::size_t i = 0; i < probes.size(); ++i) {
            EXPECT_EQ(probes[i]->arrived_data, before[i].first) << "probe " << i << " n=" << n;
            EXPECT_EQ(probes[i]->arrived_shape, before[i].second) << "probe " << i << " n=" << n;
        }
    }
}

TEST(ActivationReuse, StaleContentsNeverLeakIntoAResult) {
    Restore restore;
    core::ThreadPool::set_global_threads(4);
    std::vector<std::function<Net()>> nets = skynet_nets();
    for (auto& make : zoo_nets()) nets.push_back(std::move(make));
    for (const auto& make : nets) {
        const Net net = make();
        nn::Graph& g = *net.graph;
        // Every buffer first holds NaN, then each batch size must give what
        // a graph that never ran gives.
        (void)g.forward(Tensor(at_batch(net.in, 4), std::numeric_limits<float>::quiet_NaN()));
        int seed = 110;
        for (int n : {4, 1, 3}) {
            const Tensor x = random_input(at_batch(net.in, n), static_cast<std::uint64_t>(seed++),
                                          0.0f, 1.0f);
            const Net fresh = make();
            const Tensor want = fresh.graph->forward(x);
            for (std::int64_t i = 0; i < want.size(); ++i)
                ASSERT_FALSE(std::isnan(want[i])) << net.name << " idx " << i;
            expect_bitwise(g.forward(x), want, net.name + " at batch " + std::to_string(n));
        }
    }
}

TEST(ActivationReuse, EvalMaxPoolEqualsTrainingMaxPoolBitwise) {
    Restore restore;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    // Hand-made 2x2 windows: ties keep the first value in scan order, so
    // -0.0 before +0.0 stays -0.0; a NaN never wins unless it comes first.
    Tensor x({1, 1, 2, 16});
    const float windows[8][4] = {{-0.0f, 0.0f, 0.0f, -0.0f}, {0.0f, -0.0f, -1.0f, -0.0f},
                                 {nan, 1.0f, 2.0f, 3.0f},    {1.0f, nan, 3.0f, 2.0f},
                                 {2.0f, 2.0f, 1.0f, 2.0f},   {-1.0f, -1.0f, nan, -1.0f},
                                 {nan, nan, nan, nan},       {-3.0f, -2.0f, -2.0f, -4.0f}};
    for (int k = 0; k < 8; ++k) {
        x.at(0, 0, 0, 2 * k) = windows[k][0];
        x.at(0, 0, 0, 2 * k + 1) = windows[k][1];
        x.at(0, 0, 1, 2 * k) = windows[k][2];
        x.at(0, 0, 1, 2 * k + 1) = windows[k][3];
    }
    const float want[8] = {-0.0f, 0.0f, nan, 3.0f, 2.0f, -1.0f, nan, -2.0f};
    nn::MaxPool2 pool;
    pool.set_training(true);
    const Tensor scanned = pool.forward(x);
    for (int k = 0; k < 8; ++k)
        EXPECT_EQ(bits(scanned[k]), bits(want[k])) << "window " << k << ": " << scanned[k];
    pool.set_training(false);
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        expect_bitwise(pool.forward(x), scanned,
                       std::string("hand-made windows @") + core::simd_level_name(lvl));
    }

    // Random planes with NaN and signed-zero ties, at every level and 1 and
    // 4 threads, and an eval forward into a larger stale buffer.  45 columns
    // pool to 22 outputs per row: two full vectors and a shifted-back tail
    // at 8 lanes, five and a tail at 4.
    Tensor r = random_input({3, 5, 9, 45}, 120, -1.0f, 1.0f);
    Rng rng(121);
    for (std::int64_t i = 0; i < r.size(); ++i) {
        const double u = rng.uniform(0.0, 1.0);
        if (u < 0.1) r[i] = nan;
        else if (u < 0.3) r[i] = 0.0f;
        else if (u < 0.5) r[i] = -0.0f;
    }
    pool.set_training(true);
    const Tensor train = pool.forward(r);
    pool.set_training(false);
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        for (int threads : {1, 4}) {
            core::ThreadPool::set_global_threads(threads);
            const std::string at =
                std::string(core::simd_level_name(lvl)) + "/" + std::to_string(threads) + "t";
            expect_bitwise(pool.forward(r), train, "eval @" + at);
            Tensor stale({4, 8, 9, 9}, nan);
            pool.forward_fused(r, nn::Epilogue{}, stale);
            expect_bitwise(stale, train, "eval into a stale buffer @" + at);
        }
    }
}

TEST(ActivationReuse, NodesAThrowingForwardNeverReachedExposeNoValue) {
    Rng rng(130);
    nn::Graph g;
    const int pw = g.add(std::make_unique<nn::PWConv1>(3, 4, false, rng), g.input());
    const int reorder = g.add(std::make_unique<nn::SpaceToDepth>(2), pw);
    const int head = g.add(std::make_unique<nn::PWConv1>(16, 2, true, rng), reorder);
    g.set_training(false);
    (void)g.forward(random_input({1, 3, 4, 4}, 131));
    EXPECT_NO_THROW((void)g.node_output(head));
    // 5 rows do not split into 2x2 blocks: SpaceToDepth throws at run time,
    // after the first conv wrote its buffer for this forward.
    EXPECT_THROW((void)g.forward(random_input({1, 3, 5, 4}, 132)), std::invalid_argument);
    EXPECT_EQ(g.node_output(pw).shape(), (Shape{1, 4, 5, 4}));
    EXPECT_THROW((void)g.node_output(reorder), std::logic_error);
    EXPECT_THROW((void)g.node_output(head), std::logic_error);
    (void)g.forward(random_input({1, 3, 4, 4}, 133));
    EXPECT_EQ(g.node_output(head).shape(), (Shape{1, 2, 2, 2}));
}

}  // namespace
}  // namespace sky
