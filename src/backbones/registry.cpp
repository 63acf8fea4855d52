#include "backbones/registry.hpp"

#include <stdexcept>

namespace sky::backbones {

int scale_ch(int ch, float mult) {
    const int s = static_cast<int>(static_cast<float>(ch) * mult + 0.5f);
    return std::max(4, (s + 3) / 4 * 4);
}

void conv_bn_act(nn::Graph& g, int in_ch, int out_ch, int k, int stride, int pad,
                 nn::Act act, Rng& rng) {
    g.emplace<nn::Conv2d>(in_ch, out_ch, k, stride, pad, /*bias=*/false, rng);
    g.emplace<nn::BatchNorm2d>(out_ch);
    g.emplace<nn::Activation>(act);
}

nn::ModulePtr make_detector(Backbone backbone, int anchors, Rng& rng) {
    auto g = std::make_unique<nn::Graph>();
    const int feat = backbone.out_channels;
    g->add(std::move(backbone.net));
    g->emplace<nn::PWConv1>(feat, 5 * anchors, /*bias=*/true, rng);
    return g;
}

Backbone build_by_name(const std::string& name, float width_mult, Rng& rng) {
    if (name == "alexnet") return build_alexnet(width_mult, rng);
    if (name == "vgg16") return build_vgg16(width_mult, rng);
    if (name == "resnet18") return build_resnet(18, width_mult, rng);
    if (name == "resnet34") return build_resnet(34, width_mult, rng);
    if (name == "resnet50") return build_resnet(50, width_mult, rng);
    if (name == "mobilenet") return build_mobilenet(width_mult, rng);
    if (name == "shufflenet") return build_shufflenet(width_mult, rng);
    if (name == "squeezenet") return build_squeezenet(width_mult, rng);
    if (name == "tinyyolo") return build_tinyyolo(width_mult, rng);
    throw std::invalid_argument("unknown backbone: " + name);
}

std::vector<std::string> backbone_names() {
    return {"alexnet",   "vgg16",      "resnet18",   "resnet34", "resnet50",
            "mobilenet", "shufflenet", "squeezenet", "tinyyolo"};
}

}  // namespace sky::backbones
