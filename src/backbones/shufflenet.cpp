#include "backbones/backbone.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dwconv.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "nn/shuffle.hpp"

namespace sky::backbones {
namespace {

/// ShuffleNet unit (stride 1, residual): GConv1x1 -> shuffle -> DW3 ->
/// GConv1x1 -> add.
nn::ModulePtr shuffle_unit(int channels, int groups, Rng& rng) {
    const int mid = std::max(groups, channels / 4 / groups * groups);
    auto g = std::make_unique<nn::Graph>();
    auto branch = std::make_unique<nn::Graph>();
    branch->emplace<nn::PWConv1>(channels, mid, /*bias=*/false, rng, groups);
    branch->emplace<nn::BatchNorm2d>(mid);
    branch->emplace<nn::Activation>(nn::Act::kReLU);
    branch->emplace<nn::ChannelShuffle>(groups);
    branch->emplace<nn::DWConv3>(mid, rng);
    branch->emplace<nn::BatchNorm2d>(mid);
    branch->emplace<nn::PWConv1>(mid, channels, /*bias=*/false, rng, groups);
    branch->emplace<nn::BatchNorm2d>(channels);
    const int b = g->add(std::move(branch), g->input());
    int n = g->add_add(b, g->input());
    n = g->add(std::make_unique<nn::Activation>(nn::Act::kReLU), n);
    g->set_output(n);
    return g;
}

}  // namespace

// ShuffleNet(g=3)-style feature extractor: 24-channel stem, three stages of
// shuffle units at 240/480/960 channels.  Stage transitions are pool +
// grouped 1x1 expansion (the concat-based stride unit of the original is
// equivalent in cost); output stride 8 keeps only two downsampling points
// after the stem.
Backbone build_shufflenet(float width_mult, Rng& rng, int groups) {
    auto net = std::make_unique<nn::Graph>();
    const auto ch = [&](int c) {
        const int v = scale_ch(c, width_mult);
        return (v + groups - 1) / groups * groups;  // keep divisible by groups
    };
    const int stem = ch(24);
    conv_bn_act(*net, 3, stem, 3, 2, 1, nn::Act::kReLU, rng);  // /2
    net->emplace<nn::MaxPool2>();                              // /4

    const int stages[3] = {ch(240), ch(480), ch(960)};
    const int units[3] = {3, 7, 3};
    int in_ch = stem;
    for (int s = 0; s < 3; ++s) {
        // Only the first post-stem transition downsamples (stride-8 mode).
        if (s == 1) net->emplace<nn::MaxPool2>();  // /8
        net->emplace<nn::PWConv1>(in_ch, stages[s], /*bias=*/false, rng,
                                  s == 0 ? 1 : groups);
        net->emplace<nn::BatchNorm2d>(stages[s]);
        net->emplace<nn::Activation>(nn::Act::kReLU);
        in_ch = stages[s];
        for (int u = 0; u < units[s]; ++u) net->add(shuffle_unit(in_ch, groups, rng));
    }
    return {std::move(net), in_ch, "ShuffleNet"};
}

}  // namespace sky::backbones
