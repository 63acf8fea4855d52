#include "verify/check_graph.hpp"

#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv_layer.hpp"
#include "nn/pooling.hpp"
#include "nn/shuffle.hpp"
#include "nn/space_to_depth.hpp"

namespace sky::verify {
namespace {

std::string shape_str(const Shape& s) { return s.str(); }

/// Per-module structural checks that need the incoming shape.  Returns the
/// inferred output shape, or nullopt when inference failed (a diagnostic
/// has been emitted and downstream checks on this chain are skipped).
std::optional<Shape> check_module(const nn::Module& m, const Shape& in, int node,
                                  Report& rep) {
    const auto* conv = dynamic_cast<const nn::ConvLayer*>(&m);
    // The input channel count a layer expects, when statically knowable; a
    // Linear's is its input feature count, which it reads as c*h*w.
    std::optional<std::int64_t> want;
    if (conv != nullptr)
        want = conv->spec().in_ch;
    else if (const auto* bn = dynamic_cast<const nn::BatchNorm2d*>(&m))
        want = bn->channels();
    const bool flat = conv != nullptr && conv->spec().flatten;
    const std::int64_t got = flat ? in.per_item() : in.c;
    if (want && *want != got) {
        rep.error("G005", node,
                  m.name() + " expects " + std::to_string(*want) +
                      (flat ? " input features" : " input channels") +
                      " but its producer emits " + std::to_string(got) + " " + shape_str(in),
                  std::string("rewire the edge or rebuild the layer with ") +
                      (flat ? "in_features=" : "in_ch=") + std::to_string(got));
        return std::nullopt;
    }
    if (const auto* shuffle = dynamic_cast<const nn::ChannelShuffle*>(&m)) {
        if (shuffle->groups() < 1 || in.c % shuffle->groups() != 0) {
            rep.error("G012", node,
                      m.name() + " cannot permute " + std::to_string(in.c) + " channels",
                      "feed a channel count divisible by the shuffle group count");
            return std::nullopt;
        }
    }
    if (conv != nullptr) {
        const int k = conv->spec().k, s = conv->spec().stride, p = conv->spec().pad;
        const int eh = in.h + 2 * p - k, ew = in.w + 2 * p - k;
        if (eh < 0 || ew < 0) {
            rep.error("G006", node,
                      m.name() + " kernel " + std::to_string(k) +
                          " exceeds padded input " + shape_str(in),
                      "shrink the kernel, add padding, or feed a larger map");
            return std::nullopt;
        }
        if (eh % s != 0 || ew % s != 0)
            rep.warn("G007", node,
                     m.name() + " stride " + std::to_string(s) +
                         " does not tile input " + shape_str(in) +
                         "; trailing rows/cols are silently dropped",
                     "adjust padding or input size so (dim + 2*pad - k) % stride == 0");
    }
    if (dynamic_cast<const nn::MaxPool2*>(&m) != nullptr && (in.h % 2 != 0 || in.w % 2 != 0))
        rep.warn("G007", node,
                 m.name() + " on odd input " + shape_str(in) +
                     " drops the trailing row/column",
                 "keep feature maps even-sized ahead of 2x2 pooling");
    if (const auto* s2d = dynamic_cast<const nn::SpaceToDepth*>(&m)) {
        const int b = s2d->block();
        if (b < 1 || in.h % b != 0 || in.w % b != 0)
            rep.warn("G007", node,
                     m.name() + " block " + std::to_string(b) +
                         " does not tile input " + shape_str(in) +
                         "; the reorder truncates",
                     "feed spatial dims divisible by the reorder block");
    }

    Shape out;
    try {
        out = m.out_shape(in);
    } catch (const std::exception& e) {
        rep.error("G010", node, m.name() + " shape inference threw: " + e.what(),
                  "fix the layer configuration so out_shape() accepts " + shape_str(in));
        return std::nullopt;
    }
    if (out.n <= 0 || out.c <= 0 || out.h <= 0 || out.w <= 0) {
        rep.error("G006", node,
                  m.name() + " collapses " + shape_str(in) + " to non-positive " +
                      shape_str(out),
                  "reduce the downsampling depth or enlarge the input");
        return std::nullopt;
    }
    return out;
}

}  // namespace

Shape default_input_shape() { return {1, 3, 160, 320}; }

Report check_graph(const nn::Graph& g, const Shape& input) {
    Report rep;
    const int count = static_cast<int>(g.node_count());

    if (input.n <= 0 || input.c <= 0 || input.h <= 0 || input.w <= 0)
        rep.error("G006", 0, "graph input shape " + shape_str(input) + " is degenerate",
                  "verify with a positive NCHW shape");

    // --- Edge validity (before any shape walk). ------------------------
    // Node ids are assigned in construction order, so a well-formed edge
    // always points strictly backwards; a forward or self edge is the only
    // way this DAG representation can encode a cycle.
    std::vector<bool> edges_ok(static_cast<std::size_t>(count), true);
    for (int i = 1; i < count; ++i) {
        for (const int in : g.node_inputs(static_cast<std::size_t>(i))) {
            if (in < 0 || in >= count) {
                rep.error("G001", i,
                          "edge references node " + std::to_string(in) +
                              " which does not exist (graph has " +
                              std::to_string(count) + " nodes)",
                          "connect the node to an existing producer id");
                edges_ok[static_cast<std::size_t>(i)] = false;
            } else if (in >= i) {
                rep.error("G002", i,
                          "edge references node " + std::to_string(in) +
                              " at or after itself — the graph has a cycle",
                          "nodes may only consume earlier nodes; re-add them in "
                          "topological order");
                edges_ok[static_cast<std::size_t>(i)] = false;
            }
        }
        const std::size_t arity = g.node_inputs(static_cast<std::size_t>(i)).size();
        const auto kind = g.node_kind(static_cast<std::size_t>(i));
        if ((kind == nn::Graph::NodeKind::kConcat && arity < 2) ||
            (kind == nn::Graph::NodeKind::kAdd && arity != 2))
            rep.error("G011", i, "join node has too few inputs",
                      "concat needs >= 2 producers, add exactly 2");
    }

    const int out_node = g.output_node();
    if (out_node < 0 || out_node >= count)
        rep.error("G009", out_node, "output node id is out of range",
                  "call set_output() with a node the graph owns");

    // --- Symbolic shape walk. ------------------------------------------
    // shapes[i] empty => unknown (producer already diagnosed); checks that
    // depend on an unknown shape are skipped rather than cascading.
    std::vector<std::optional<Shape>> shapes(static_cast<std::size_t>(count));
    if (count > 0) shapes[0] = input;
    for (int i = 1; i < count; ++i) {
        const std::size_t idx = static_cast<std::size_t>(i);
        if (!edges_ok[idx]) continue;
        const auto& ins = g.node_inputs(idx);
        switch (g.node_kind(idx)) {
            case nn::Graph::NodeKind::kInput:
                break;
            case nn::Graph::NodeKind::kModule: {
                if (ins.empty()) break;
                const auto& in_shape = shapes[static_cast<std::size_t>(ins[0])];
                if (!in_shape) break;
                const nn::Module* m = g.node_module(idx);
                if (m == nullptr) break;
                shapes[idx] = check_module(*m, *in_shape, i, rep);
                break;
            }
            case nn::Graph::NodeKind::kConcat: {
                std::optional<Shape> acc;
                bool all_known = true;
                int channels = 0;
                for (const int in : ins) {
                    const auto& s = shapes[static_cast<std::size_t>(in)];
                    if (!s) {
                        all_known = false;
                        break;
                    }
                    if (!acc) {
                        acc = *s;
                    } else if (s->n != acc->n || s->h != acc->h || s->w != acc->w) {
                        rep.error(
                            "G003", i,
                            "concat inputs disagree: node " + std::to_string(ins[0]) +
                                " emits " + shape_str(*acc) + " but node " +
                                std::to_string(in) + " emits " + shape_str(*s),
                            "equalise the branches (the bypass must space_to_depth "
                            "the high-resolution branch before the concat)");
                        all_known = false;
                        break;
                    }
                    channels += s->c;
                }
                if (all_known && acc) {
                    acc->c = channels;
                    shapes[idx] = acc;
                }
                break;
            }
            case nn::Graph::NodeKind::kAdd: {
                if (ins.size() != 2) break;
                const auto& a = shapes[static_cast<std::size_t>(ins[0])];
                const auto& b = shapes[static_cast<std::size_t>(ins[1])];
                if (!a || !b) break;
                if (!(*a == *b)) {
                    rep.error("G004", i,
                              "add inputs disagree: " + shape_str(*a) + " vs " +
                                  shape_str(*b),
                              "elementwise add requires identical shapes on both edges");
                    break;
                }
                shapes[idx] = a;
                break;
            }
        }
    }

    // --- Reachability (dead nodes burn memory and usually mean a wiring
    // mistake; the output itself is checked above). ---------------------
    if (out_node >= 0 && out_node < count) {
        std::vector<bool> live(static_cast<std::size_t>(count), false);
        std::vector<int> stack{out_node};
        while (!stack.empty()) {
            const int n = stack.back();
            stack.pop_back();
            if (live[static_cast<std::size_t>(n)]) continue;
            live[static_cast<std::size_t>(n)] = true;
            for (const int in : g.node_inputs(static_cast<std::size_t>(n)))
                if (in >= 0 && in < count) stack.push_back(in);
        }
        for (int i = 1; i < count; ++i)
            if (!live[static_cast<std::size_t>(i)])
                rep.warn("G008", i,
                         "node is not an ancestor of the output and never affects it",
                         "remove the node or wire it into the output path");
    }

    return rep;
}

}  // namespace sky::verify
