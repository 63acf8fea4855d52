#include "backbones/backbone.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

namespace sky::backbones {

// Detection-mode AlexNet feature extractor (stride 8).  The canonical
// 11x11/4 stem is replaced by 5x5/1 + pool to suit small inputs; the
// 5-conv channel progression (64-192-384-256-256) is preserved, which is
// what matters for the tracking comparison of Table 8.
Backbone build_alexnet(float width_mult, Rng& rng) {
    auto net = std::make_unique<nn::Graph>();
    const int c1 = scale_ch(64, width_mult), c2 = scale_ch(192, width_mult),
              c3 = scale_ch(384, width_mult), c4 = scale_ch(256, width_mult),
              c5 = scale_ch(256, width_mult);
    conv_bn_act(*net, 3, c1, 5, 1, 2, nn::Act::kReLU, rng);
    net->emplace<nn::MaxPool2>();
    conv_bn_act(*net, c1, c2, 3, 1, 1, nn::Act::kReLU, rng);
    net->emplace<nn::MaxPool2>();
    conv_bn_act(*net, c2, c3, 3, 1, 1, nn::Act::kReLU, rng);
    conv_bn_act(*net, c3, c4, 3, 1, 1, nn::Act::kReLU, rng);
    conv_bn_act(*net, c4, c5, 3, 1, 1, nn::Act::kReLU, rng);
    net->emplace<nn::MaxPool2>();
    return {std::move(net), c5, "AlexNet"};
}

std::unique_ptr<nn::Graph> build_alexnet_classifier(int num_classes, int input_size,
                                                    float width_mult, Rng& rng) {
    auto net = std::make_unique<nn::Graph>();
    const int c1 = scale_ch(64, width_mult), c2 = scale_ch(192, width_mult),
              c3 = scale_ch(384, width_mult), c4 = scale_ch(256, width_mult),
              c5 = scale_ch(256, width_mult);
    const int fc = scale_ch(4096, width_mult * 0.125f);  // FC width scales harder:
    // at full scale the two 4096-wide FCs dominate AlexNet's 61M parameters
    // (Fig. 2a's blue bubbles); the proxy keeps the same conv:FC imbalance
    // without making CPU training infeasible.
    conv_bn_act(*net, 3, c1, 5, 1, 2, nn::Act::kReLU, rng);
    net->emplace<nn::MaxPool2>();
    conv_bn_act(*net, c1, c2, 3, 1, 1, nn::Act::kReLU, rng);
    net->emplace<nn::MaxPool2>();
    conv_bn_act(*net, c2, c3, 3, 1, 1, nn::Act::kReLU, rng);
    conv_bn_act(*net, c3, c4, 3, 1, 1, nn::Act::kReLU, rng);
    conv_bn_act(*net, c4, c5, 3, 1, 1, nn::Act::kReLU, rng);
    net->emplace<nn::MaxPool2>();
    const int spatial = input_size / 8;
    net->emplace<nn::Linear>(c5 * spatial * spatial, fc, rng);
    net->emplace<nn::Activation>(nn::Act::kReLU);
    net->emplace<nn::Linear>(fc, fc, rng);
    net->emplace<nn::Activation>(nn::Act::kReLU);
    net->emplace<nn::Linear>(fc, num_classes, rng);
    return net;
}

std::int64_t alexnet_reference_params(bool fc_only) {
    // torchvision AlexNet at 224x224 / 1000 classes.
    auto conv = [](std::int64_t ic, std::int64_t oc, std::int64_t k) {
        return ic * oc * k * k + oc;
    };
    auto fc = [](std::int64_t in, std::int64_t out) { return in * out + out; };
    const std::int64_t convs = conv(3, 64, 11) + conv(64, 192, 5) + conv(192, 384, 3) +
                               conv(384, 256, 3) + conv(256, 256, 3);
    const std::int64_t fcs = fc(256 * 6 * 6, 4096) + fc(4096, 4096) + fc(4096, 1000);
    return fc_only ? fcs : convs + fcs;
}

}  // namespace sky::backbones
