#include "backbones/backbone.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dwconv.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"

namespace sky::backbones {
namespace {

void dw_separable(nn::Graph& g, int in_ch, int out_ch, bool pool_after, Rng& rng) {
    g.emplace<nn::DWConv3>(in_ch, rng);
    g.emplace<nn::BatchNorm2d>(in_ch);
    g.emplace<nn::Activation>(nn::Act::kReLU6);
    g.emplace<nn::PWConv1>(in_ch, out_ch, /*bias=*/false, rng);
    g.emplace<nn::BatchNorm2d>(out_ch);
    g.emplace<nn::Activation>(nn::Act::kReLU6);
    if (pool_after) g.emplace<nn::MaxPool2>();
}

}  // namespace

// MobileNetV1 feature extractor.  The 13 depthwise-separable layers and the
// 32-64-128-...-1024 channel ladder are kept; the strided depthwise convs
// are realised as DW + 2x2 pool (identical parameters), and only the first
// two downsampling points fire so the output stride is 8.
Backbone build_mobilenet(float width_mult, Rng& rng) {
    auto net = std::make_unique<nn::Graph>();
    const auto ch = [&](int c) { return scale_ch(c, width_mult); };
    conv_bn_act(*net, 3, ch(32), 3, 2, 1, nn::Act::kReLU6, rng);  // stem /2
    dw_separable(*net, ch(32), ch(64), /*pool_after=*/false, rng);
    dw_separable(*net, ch(64), ch(128), /*pool_after=*/true, rng);  // /4
    dw_separable(*net, ch(128), ch(128), false, rng);
    dw_separable(*net, ch(128), ch(256), /*pool_after=*/true, rng);  // /8
    dw_separable(*net, ch(256), ch(256), false, rng);
    dw_separable(*net, ch(256), ch(512), false, rng);
    for (int i = 0; i < 5; ++i) dw_separable(*net, ch(512), ch(512), false, rng);
    dw_separable(*net, ch(512), ch(1024), false, rng);
    dw_separable(*net, ch(1024), ch(1024), false, rng);
    return {std::move(net), ch(1024), "MobileNet"};
}

}  // namespace sky::backbones
