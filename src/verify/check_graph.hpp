// Static model verifier — walks an nn::Graph WITHOUT executing it.
//
// The failure modes this catches are exactly the ones that otherwise
// surface as a runtime crash (or worse, a wrong-but-plausible IoU) deep
// inside the build -> fold_bn -> quantize funnel: a bypass concat whose
// branches disagree on spatial size after reordering (paper Sec. 3.3), a
// conv fed the wrong channel count, a stride/padding combination that
// silently truncates the feature map, a node wired to an edge that does
// not exist.  check_graph() runs symbolic shape inference through every
// node kind the repo emits (conv layers / pooling / space_to_depth /
// shuffle / concat / add) and reports typed diagnostics; it never runs a
// kernel and never allocates a feature map.  Every conv-like layer is one
// test for nn::ConvLayer: its ConvSpec gives the expected input channels
// (G005) and the kernel geometry (G006/G007).
//
// Diagnostic catalog (full table in docs/STATIC_ANALYSIS.md):
//   G001 error  dangling edge (input id out of range)
//   G002 error  cyclic edge (node consumes itself or a later node)
//   G003 error  concat inputs disagree on batch/spatial dims
//   G004 error  add inputs disagree on shape
//   G005 error  channel mismatch between producer and consumer
//   G006 error  feature map collapses to a non-positive dimension
//   G007 warn   stride/padding/pool/reorder silently truncates rows or cols
//   G008 warn   node unreachable from the output
//   G009 error  output node id invalid
//   G010 error  module shape inference threw
//   G011 error  join node has too few inputs
//   G012 error  channel count incompatible with a shuffle's groups (a
//               grouped PWConv1 refuses a bad count in its constructor)
// The SkyNetModel-level M-codes live in skynet/check_model.hpp: verify
// stays below skynet in the layering manifest (tools/skylint/layers.txt).
#pragma once

#include "nn/graph.hpp"
#include "verify/diagnostics.hpp"

namespace sky::verify {

/// Canonical DAC-SDC input shape used when a caller has no better one
/// (paper input resolution 160x320).  Structural checks are shape-generic;
/// the spatial-truncation warnings are evaluated at this shape.
[[nodiscard]] Shape default_input_shape();

/// Statically verify `g` for an input of shape `input`.
[[nodiscard]] Report check_graph(const nn::Graph& g, const Shape& input);

}  // namespace sky::verify
