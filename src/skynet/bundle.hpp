// Bundles: the hardware-aware building blocks of the bottom-up flow (§4.1).
//
// From the software side a Bundle is a short sequence of conv-style layers
// (each followed by BN + activation); from the hardware side it is the set of
// IPs that must exist on the device.  Stage 1 of the flow enumerates
// candidate Bundles from a component pool, evaluates each one's latency /
// resources on the target devices and its accuracy potential via a fast-
// trained DNN sketch, then keeps the Pareto-optimal ones.
//
// BundleSpec is the declarative description; instantiate() turns it into a
// trainable chain nn::Graph for given in/out channel counts.
#pragma once

#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/graph.hpp"

namespace sky {

/// Conv-style operators a Bundle may contain.  Every conv op is implicitly
/// followed by BatchNorm + activation when instantiated.
enum class BundleOp {
    kDWConv3,  ///< 3x3 depthwise (channel-preserving)
    kPWConv1,  ///< 1x1 pointwise (channel-mapping)
    kConv3,    ///< standard 3x3, pad 1 (channel-mapping)
    kConv1,    ///< standard 1x1 (channel-mapping)
    kConv5,    ///< standard 5x5, pad 2 (channel-mapping)
};

[[nodiscard]] const char* bundle_op_name(BundleOp op);

struct BundleSpec {
    std::string name;
    std::vector<BundleOp> ops;
};

/// The component-pool enumeration used by Stage 1: all bundle candidates
/// considered in our reproduction, including the winning DW3+PW1 pair.
[[nodiscard]] std::vector<BundleSpec> enumerate_bundles();

/// The Bundle SkyNet selected: DW-Conv3 + PW-Conv1 (+BN +activation).
[[nodiscard]] BundleSpec skynet_bundle();

/// Build a trainable instance of `spec` mapping in_ch -> out_ch.
/// Channel-mapping ops transition in->out at the first mapping op; channel-
/// preserving ops run at whatever width is current.
[[nodiscard]] nn::ModulePtr instantiate(const BundleSpec& spec, int in_ch, int out_ch,
                                        nn::Act act, Rng& rng);

}  // namespace sky
