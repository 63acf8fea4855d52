#include "backbones/backbone.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/pooling.hpp"

namespace sky::backbones {

// VGG-16 feature extractor.  The full 13-conv stack is kept (14.71M params
// at width 1.0, matching Table 2); only the first three of the five pools
// downsample so the detection grid is stride 8.
Backbone build_vgg16(float width_mult, Rng& rng) {
    auto net = std::make_unique<nn::Graph>();
    struct Stage {
        int channels;
        int convs;
        bool pool;
    };
    const Stage stages[5] = {
        {64, 2, true}, {128, 2, true}, {256, 3, true}, {512, 3, false}, {512, 3, false}};
    int in_ch = 3;
    for (const Stage& st : stages) {
        const int out_ch = scale_ch(st.channels, width_mult);
        for (int i = 0; i < st.convs; ++i) {
            conv_bn_act(*net, in_ch, out_ch, 3, 1, 1, nn::Act::kReLU, rng);
            in_ch = out_ch;
        }
        if (st.pool) net->emplace<nn::MaxPool2>();
    }
    return {std::move(net), in_ch, "VGG-16"};
}

}  // namespace sky::backbones
