// Weight serialization: save/load all parameters AND non-trainable state
// (BN running statistics) of a network to a simple binary container, so a
// trained model reloads with identical eval-mode behaviour.
//
// Format (little-endian):
//   magic "SKYW" | u32 version | u64 tensor count |
//   per tensor: 4 x i32 shape | u64 element count | f32 data[]
// Loading requires an identically-structured network (same parameter order
// and shapes) — the natural contract for a builder-based model zoo.
#pragma once

#include <string>

#include "nn/module.hpp"

namespace sky::io {

/// Serialise every parameter of `net` to `path`.  Throws std::runtime_error
/// on I/O failure.
void save_weights(nn::Module& net, const std::string& path);

/// Load parameters saved by save_weights into `net`.  Throws
/// std::runtime_error on I/O failure or any shape/count mismatch, and does
/// so before writing any tensor: a failed load leaves `net` as it was.  It
/// writes through collect_params, which drops every conv layer's weight
/// pack, so a model already in eval mode runs the loaded weights at once.
void load_weights(nn::Module& net, const std::string& path);

/// Byte size the file will have (header + payload), for tests/tools.
[[nodiscard]] std::int64_t serialized_size(nn::Module& net);

}  // namespace sky::io
