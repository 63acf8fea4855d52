#include "backbones/backbone.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/pooling.hpp"

namespace sky::backbones {

// Tiny-YOLO (DarkNet-tiny) feature extractor: seven 3x3 convs with leaky
// ReLU, channel ladder 16-32-64-128-256-512-1024.  Stride 8: the first
// three pools downsample; the later pools of the original are dropped.
Backbone build_tinyyolo(float width_mult, Rng& rng) {
    auto net = std::make_unique<nn::Graph>();
    const auto ch = [&](int c) { return scale_ch(c, width_mult); };
    const int ladder[7] = {ch(16), ch(32), ch(64), ch(128), ch(256), ch(512), ch(1024)};
    int in_ch = 3;
    for (int i = 0; i < 7; ++i) {
        conv_bn_act(*net, in_ch, ladder[i], 3, 1, 1, nn::Act::kLeaky, rng);
        if (i < 3) net->emplace<nn::MaxPool2>();
        in_ch = ladder[i];
    }
    return {std::move(net), in_ch, "Tiny-YOLO"};
}

}  // namespace sky::backbones
