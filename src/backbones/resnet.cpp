#include <stdexcept>

#include "backbones/backbone.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/pooling.hpp"

namespace sky::backbones {
namespace {

/// conv-bn(-relu) chain, nested as one node of a residual block.
nn::ModulePtr conv_bn(int in_ch, int out_ch, int k, int stride, int pad, bool relu,
                      Rng& rng) {
    auto net = std::make_unique<nn::Graph>();
    net->emplace<nn::Conv2d>(in_ch, out_ch, k, stride, pad, /*bias=*/false, rng);
    net->emplace<nn::BatchNorm2d>(out_ch);
    if (relu) net->emplace<nn::Activation>(nn::Act::kReLU);
    return net;
}

/// BasicBlock (ResNet-18/34): 3x3 -> 3x3 with identity or 1x1 shortcut.
nn::ModulePtr basic_block(int in_ch, int out_ch, int stride, Rng& rng) {
    auto g = std::make_unique<nn::Graph>();
    int n = g->add(conv_bn(in_ch, out_ch, 3, stride, 1, /*relu=*/true, rng), g->input());
    n = g->add(conv_bn(out_ch, out_ch, 3, 1, 1, /*relu=*/false, rng), n);
    int shortcut = g->input();
    if (stride != 1 || in_ch != out_ch)
        shortcut = g->add(conv_bn(in_ch, out_ch, 1, stride, 0, /*relu=*/false, rng),
                          g->input());
    n = g->add_add(n, shortcut);
    n = g->add(std::make_unique<nn::Activation>(nn::Act::kReLU), n);
    g->set_output(n);
    return g;
}

/// Bottleneck (ResNet-50): 1x1 reduce -> 3x3 -> 1x1 expand (x4).
nn::ModulePtr bottleneck_block(int in_ch, int planes, int stride, Rng& rng) {
    const int out_ch = planes * 4;
    auto g = std::make_unique<nn::Graph>();
    int n = g->add(conv_bn(in_ch, planes, 1, 1, 0, /*relu=*/true, rng), g->input());
    n = g->add(conv_bn(planes, planes, 3, stride, 1, /*relu=*/true, rng), n);
    n = g->add(conv_bn(planes, out_ch, 1, 1, 0, /*relu=*/false, rng), n);
    int shortcut = g->input();
    if (stride != 1 || in_ch != out_ch)
        shortcut = g->add(conv_bn(in_ch, out_ch, 1, stride, 0, /*relu=*/false, rng),
                          g->input());
    n = g->add_add(n, shortcut);
    n = g->add(std::make_unique<nn::Activation>(nn::Act::kReLU), n);
    g->set_output(n);
    return g;
}

}  // namespace

// ResNet-18/34/50.  Stem is 3x3/2 + pool (the 7x7 stem at our input sizes
// would collapse the map; parameter delta is negligible next to the stages).
// Stage strides are {1, 2, 1, 1}: with the stem's /4 this gives the stride-8
// detection layout while keeping every block's parameters intact.
Backbone build_resnet(int depth, float width_mult, Rng& rng) {
    int blocks[4];
    bool bottleneck = false;
    switch (depth) {
        case 18: blocks[0] = 2; blocks[1] = 2; blocks[2] = 2; blocks[3] = 2; break;
        case 34: blocks[0] = 3; blocks[1] = 4; blocks[2] = 6; blocks[3] = 3; break;
        case 50:
            blocks[0] = 3; blocks[1] = 4; blocks[2] = 6; blocks[3] = 3;
            bottleneck = true;
            break;
        default: throw std::invalid_argument("build_resnet: depth must be 18/34/50");
    }
    const int planes[4] = {scale_ch(64, width_mult), scale_ch(128, width_mult),
                           scale_ch(256, width_mult), scale_ch(512, width_mult)};
    const int stage_stride[4] = {1, 2, 1, 1};

    auto net = std::make_unique<nn::Graph>();
    const int stem = scale_ch(64, width_mult);
    conv_bn_act(*net, 3, stem, 3, 2, 1, nn::Act::kReLU, rng);
    net->emplace<nn::MaxPool2>();
    int in_ch = stem;
    for (int s = 0; s < 4; ++s) {
        for (int b = 0; b < blocks[s]; ++b) {
            const int stride = b == 0 ? stage_stride[s] : 1;
            if (bottleneck) {
                net->add(bottleneck_block(in_ch, planes[s], stride, rng));
                in_ch = planes[s] * 4;
            } else {
                net->add(basic_block(in_ch, planes[s], stride, rng));
                in_ch = planes[s];
            }
        }
    }
    return {std::move(net), in_ch, "ResNet-" + std::to_string(depth)};
}

}  // namespace sky::backbones
