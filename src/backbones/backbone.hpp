// Baseline backbone zoo.
//
// Every backbone the paper compares against is built here as a real,
// trainable module: ResNet-18/34/50 and VGG-16 (Table 2), AlexNet and
// ResNet-50 (tracking Tables 8/9), and the compact nets underlying the
// DAC-SDC competitor entries of Table 1 (MobileNet, ShuffleNet, SqueezeNet,
// Tiny-YOLO) which feed the hwsim cost models for Tables 5/6.
//
// All builders produce *detection-friendly* feature extractors with output
// stride 8 (so the same YOLO back-end attaches to every backbone, as the
// paper does for Table 2): architecturally-late downsampling is converted to
// stride 1, which leaves parameter counts untouched.  `width_mult` scales
// channels for fast CPU training; 1.0 reproduces the published sizes.
#pragma once

#include <memory>
#include <string>

#include "nn/activations.hpp"
#include "nn/graph.hpp"

namespace sky::backbones {

struct Backbone {
    std::unique_ptr<nn::Graph> net;
    int out_channels = 0;
    std::string name;

    [[nodiscard]] std::int64_t param_count() const { return net->param_count(); }
    [[nodiscard]] double param_mb() const {
        return static_cast<double>(param_count()) * 4.0 / 1e6;
    }
};

/// Channel scaling used by every builder: round to a multiple of 4, floor 4.
[[nodiscard]] int scale_ch(int ch, float mult);

/// Conv + BN + activation, appended to `g` after its current output.
void conv_bn_act(nn::Graph& g, int in_ch, int out_ch, int k, int stride, int pad,
                 nn::Act act, Rng& rng);

/// Attach the shared 2-anchor YOLO back-end (a 1x1 conv to 5*anchors
/// channels) to a backbone — the "same back-end for object detection" of
/// Table 2.  Returns the full detector as a single module.
[[nodiscard]] nn::ModulePtr make_detector(Backbone backbone, int anchors, Rng& rng);

Backbone build_alexnet(float width_mult, Rng& rng);
Backbone build_vgg16(float width_mult, Rng& rng);
Backbone build_resnet(int depth, float width_mult, Rng& rng);  // 18 / 34 / 50
Backbone build_mobilenet(float width_mult, Rng& rng);
Backbone build_shufflenet(float width_mult, Rng& rng, int groups = 3);
Backbone build_squeezenet(float width_mult, Rng& rng);
Backbone build_tinyyolo(float width_mult, Rng& rng);

/// AlexNet *classifier* (5 convs + 3 FC) for the Fig. 2a quantization study;
/// `input_size` fixes the FC fan-in.  width_mult scales both conv channels
/// and FC widths.
[[nodiscard]] std::unique_ptr<nn::Graph> build_alexnet_classifier(int num_classes,
                                                                  int input_size,
                                                                  float width_mult, Rng& rng);

/// Exact float32 parameter bytes of the canonical full-size AlexNet
/// (224x224, 1000 classes) — the "237.9 MB" reference of Fig. 2a, computed
/// from the architecture rather than measured on the scaled proxy.
[[nodiscard]] std::int64_t alexnet_reference_params(bool fc_only = false);

}  // namespace sky::backbones
