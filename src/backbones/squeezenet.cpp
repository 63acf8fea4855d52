#include "backbones/backbone.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"

namespace sky::backbones {
namespace {

/// Fire module: 1x1 squeeze -> parallel (1x1 expand | 3x3 expand) -> concat.
nn::ModulePtr fire(int in_ch, int squeeze, int expand1, int expand3, Rng& rng) {
    auto g = std::make_unique<nn::Graph>();
    auto sq = std::make_unique<nn::Graph>();
    sq->emplace<nn::PWConv1>(in_ch, squeeze, /*bias=*/false, rng);
    sq->emplace<nn::BatchNorm2d>(squeeze);
    sq->emplace<nn::Activation>(nn::Act::kReLU);
    const int s = g->add(std::move(sq), g->input());

    auto e1 = std::make_unique<nn::Graph>();
    e1->emplace<nn::PWConv1>(squeeze, expand1, /*bias=*/false, rng);
    e1->emplace<nn::BatchNorm2d>(expand1);
    e1->emplace<nn::Activation>(nn::Act::kReLU);
    const int a = g->add(std::move(e1), s);

    auto e3 = std::make_unique<nn::Graph>();
    e3->emplace<nn::Conv2d>(squeeze, expand3, 3, 1, 1, /*bias=*/false, rng);
    e3->emplace<nn::BatchNorm2d>(expand3);
    e3->emplace<nn::Activation>(nn::Act::kReLU);
    const int b = g->add(std::move(e3), s);

    g->set_output(g->add_concat({a, b}));
    return g;
}

}  // namespace

// SqueezeNet v1.1 feature extractor (fire2..fire9), output stride 8.
// The running channel count follows each fire's actual e1+e3 output (the
// per-width rounding of the two expands need not equal the rounding of
// their nominal sum).
Backbone build_squeezenet(float width_mult, Rng& rng) {
    auto net = std::make_unique<nn::Graph>();
    const auto ch = [&](int c) { return scale_ch(c, width_mult); };
    int in_ch = ch(64);
    conv_bn_act(*net, 3, in_ch, 3, 2, 1, nn::Act::kReLU, rng);  // /2
    net->emplace<nn::MaxPool2>();                               // /4
    struct FireSpec {
        int squeeze, expand;
        bool pool_before;
    };
    const FireSpec fires[8] = {{16, 64, false},  {16, 64, false},  {32, 128, true},
                               {32, 128, false}, {48, 192, false}, {48, 192, false},
                               {64, 256, false}, {64, 256, false}};
    for (const FireSpec& f : fires) {
        if (f.pool_before) net->emplace<nn::MaxPool2>();  // /8
        const int e = ch(f.expand);
        net->add(fire(in_ch, ch(f.squeeze), e, e, rng));
        in_ch = 2 * e;
    }
    return {std::move(net), in_ch, "SqueezeNet"};
}

}  // namespace sky::backbones
