#include "skynet/bundle.hpp"

#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dwconv.hpp"
#include "nn/pwconv.hpp"

namespace sky {

const char* bundle_op_name(BundleOp op) {
    switch (op) {
        case BundleOp::kDWConv3: return "DW-Conv3";
        case BundleOp::kPWConv1: return "PW-Conv1";
        case BundleOp::kConv3: return "Conv3";
        case BundleOp::kConv1: return "Conv1";
        case BundleOp::kConv5: return "Conv5";
    }
    return "?";
}

std::vector<BundleSpec> enumerate_bundles() {
    return {
        {"DW3+PW1", {BundleOp::kDWConv3, BundleOp::kPWConv1}},
        {"Conv3", {BundleOp::kConv3}},
        {"Conv1+Conv3", {BundleOp::kConv1, BundleOp::kConv3}},
        {"Conv3+Conv1", {BundleOp::kConv3, BundleOp::kConv1}},
        {"DW3+PW1x2", {BundleOp::kDWConv3, BundleOp::kPWConv1, BundleOp::kDWConv3,
                       BundleOp::kPWConv1}},
        {"Conv5", {BundleOp::kConv5}},
        {"Conv3+Conv3", {BundleOp::kConv3, BundleOp::kConv3}},
        {"PW1+DW3", {BundleOp::kPWConv1, BundleOp::kDWConv3}},
    };
}

BundleSpec skynet_bundle() { return {"DW3+PW1", {BundleOp::kDWConv3, BundleOp::kPWConv1}}; }

nn::ModulePtr instantiate(const BundleSpec& spec, int in_ch, int out_ch, nn::Act act,
                          Rng& rng) {
    auto g = std::make_unique<nn::Graph>();
    int cur = in_ch;
    // The first channel-mapping op transitions cur -> out_ch; later mapping
    // ops stay at out_ch.  Channel-preserving ops run at the current width.
    for (BundleOp op : spec.ops) {
        switch (op) {
            case BundleOp::kDWConv3:
                g->emplace<nn::DWConv3>(cur, rng);
                break;
            case BundleOp::kPWConv1:
                g->emplace<nn::PWConv1>(cur, out_ch, /*bias=*/false, rng);
                cur = out_ch;
                break;
            case BundleOp::kConv3:
                g->emplace<nn::Conv2d>(cur, out_ch, 3, 1, 1, /*bias=*/false, rng);
                cur = out_ch;
                break;
            case BundleOp::kConv1:
                g->emplace<nn::Conv2d>(cur, out_ch, 1, 1, 0, /*bias=*/false, rng);
                cur = out_ch;
                break;
            case BundleOp::kConv5:
                g->emplace<nn::Conv2d>(cur, out_ch, 5, 1, 2, /*bias=*/false, rng);
                cur = out_ch;
                break;
        }
        g->emplace<nn::BatchNorm2d>(cur);
        g->emplace<nn::Activation>(act);
    }
    return g;
}

}  // namespace sky
