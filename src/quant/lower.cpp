#include "quant/lower.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "deploy/fold_bn.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv_layer.hpp"
#include "nn/pooling.hpp"
#include "nn/shuffle.hpp"
#include "nn/space_to_depth.hpp"

namespace sky::quant {
namespace {

std::vector<Op> lower_graph(const nn::Graph& g, const QuantConfig& cfg);

/// The module-kind dispatch: kind, parameters and verdict of one module.
Op lower_module(nn::Module& m, const QuantConfig& cfg) {
    Op op;
    op.module = &m;
    op.name = m.name();
    bool integer = false;  // the integer engine has a lowering for it
    std::string why = " (kind '" + m.kind() + "') has no integer-engine lowering";
    std::string hint = "replace the layer or extend quant::QEngine";
    if (const auto* conv = dynamic_cast<const nn::ConvLayer*>(&m)) {
        const nn::ConvSpec& s = conv->spec();
        op.kind = s.depthwise() ? OpKind::kDwConv : OpKind::kConv;
        op.conv = s;
        op.weight = &conv->weight();
        op.bias = conv->has_bias() ? &conv->bias() : nullptr;
        integer = s.groups == 1 || s.depthwise();
        const std::string k = std::to_string(s.k);
        why = ": grouped " + k + "x" + k + " conv is unsupported";
        hint = "ungroup the conv or extend the integer engine";
    } else if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
        op.kind = OpKind::kAffine;
        bn->fused_affine(op.scale, op.shift);
    } else if (auto* act = dynamic_cast<nn::Activation*>(&m)) {
        switch (act->act_kind()) {
            case nn::Act::kReLU: op.kind = OpKind::kRelu; break;
            case nn::Act::kReLU6: op.kind = OpKind::kRelu6; break;
            case nn::Act::kLeaky: op.kind = OpKind::kLeaky; break;
            case nn::Act::kSigmoid: op.kind = OpKind::kSigmoid; break;
        }
        op.slope = act->leaky_slope();
        integer = op.kind == OpKind::kRelu || op.kind == OpKind::kRelu6;
        why = ": only ReLU / ReLU6 exist on the integer datapath";
        hint = "retrain with a supported activation or extend the engine";
    } else if (dynamic_cast<nn::MaxPool2*>(&m) != nullptr) {
        op.kind = OpKind::kMaxPool;
        integer = true;
    } else if (dynamic_cast<nn::GlobalAvgPool*>(&m) != nullptr) {
        op.kind = OpKind::kAvgPool;
    } else if (auto* s2d = dynamic_cast<nn::SpaceToDepth*>(&m)) {
        op.kind = OpKind::kReorder;
        op.block = s2d->block();
        integer = true;
    } else if (dynamic_cast<nn::ChannelShuffle*>(&m) != nullptr) {
        op.kind = OpKind::kShuffle;
    } else if (dynamic_cast<deploy::Identity*>(&m) != nullptr) {
        op.kind = OpKind::kIdentity;
        integer = true;
    } else if (auto* sub = dynamic_cast<nn::Graph*>(&m)) {
        op.body_output = sub->output_node();
        // A nested graph without a valid output has no dataflow to follow.
        if (op.body_output >= 0 &&
            static_cast<std::size_t>(op.body_output) < sub->node_count()) {
            op.kind = OpKind::kBlock;
            op.body = lower_graph(*sub, cfg);
        }
    }
    if (m.kind() == "bn") {
        op.verdict = Verdict::kRejected;
        op.code = "Q001";
        op.reason = op.name + " is still a BatchNorm — the integer engine has no BN op";
        op.hint = "run deploy::fold_graph_bn (or Detector::fold_bn) before quantizing";
    } else if (!integer) {
        op.verdict = cfg.fp32_fallback ? Verdict::kFp32 : Verdict::kRejected;
        op.code = "Q002";
        op.reason = op.name + why;
        op.hint = hint;
    }
    return op;
}

/// Ops of a graph, one per node in node order.
std::vector<Op> lower_graph(const nn::Graph& g, const QuantConfig& cfg) {
    std::vector<Op> ops(g.node_count());
    for (std::size_t i = 0; i < g.node_count(); ++i) {
        Op& op = ops[i];
        switch (g.node_kind(i)) {
            case nn::Graph::NodeKind::kInput:
                op.kind = OpKind::kInput;
                op.name = "input";
                break;
            case nn::Graph::NodeKind::kConcat:
                op.kind = OpKind::kConcat;
                op.name = "concat";
                break;
            case nn::Graph::NodeKind::kAdd:
                op.kind = OpKind::kAdd;
                op.name = "add";
                break;
            case nn::Graph::NodeKind::kModule:
                // Lowering reads modules; the engine runs fp32 islands through
                // this pointer on the graph it was handed.
                if (nn::Module* m = const_cast<nn::Module*>(g.node_module(i))) {
                    op = lower_module(*m, cfg);
                } else {
                    op.name = "node";
                    op.verdict = Verdict::kRejected;
                    op.code = "Q002";
                    op.reason = "module node without a module";
                }
                break;
        }
        op.inputs = g.node_inputs(i);
    }
    return ops;
}

/// Quantize an integer conv's weights and bias onto the scheme: the
/// per-layer weight format covering max|w|, round-to-nearest with
/// saturation, and the bias at accumulator scale (weight + FM fraction).
void quantize_conv(Op& op, int weight_bits, const FixedPointFormat& fm) {
    const Tensor& w = *op.weight;
    op.wfmt = choose_format(weight_bits, w.abs_max());
    const double inv_step = 1.0 / op.wfmt.step();
    op.qweights.resize(static_cast<std::size_t>(w.size()));
    for (std::int64_t i = 0; i < w.size(); ++i) {
        const std::int32_t q = saturate(
            static_cast<std::int64_t>(std::llround(w[i] * inv_step)), op.wfmt.total_bits);
        op.qweights[static_cast<std::size_t>(i)] = q;
        op.wmax = std::max<std::int64_t>(op.wmax, std::abs(static_cast<std::int64_t>(q)));
    }
    if (op.bias == nullptr) return;
    const double scale = std::ldexp(1.0, op.wfmt.frac_bits + fm.frac_bits);
    for (int oc = 0; oc < op.conv.out_ch; ++oc)
        op.qbias.push_back(
            static_cast<std::int64_t>(std::llround((*op.bias)[oc] * scale)));
}

/// Every op but the input reads earlier ops only, a module op has its
/// module, and the output exists: what shape inference and the execution
/// decisions index by.
bool well_formed(const Program& p) {
    for (std::size_t i = 1; i < p.ops.size(); ++i) {
        const Op& op = p.ops[i];
        const bool join = op.kind == OpKind::kConcat || op.kind == OpKind::kAdd;
        if (op.inputs.empty() || (!join && op.module == nullptr)) return false;
        for (const int in : op.inputs)
            if (in < 0 || static_cast<std::size_t>(in) >= i) return false;
    }
    return p.output >= 0 && static_cast<std::size_t>(p.output) < p.ops.size();
}

/// The execution decisions (Op::alias, fused_act, fused_pool): the graph's
/// fusion plan minus the folds the integer datapath cannot make exactly.
/// Identities (folded BN leaves one behind every conv) are pure plumbing.
/// A folded ReLU/ReLU6 becomes a requantization clamp:
/// clamp(round_shift(acc)) equals act(saturate(round_shift(acc))) because
/// the activation bounds lie inside the grid.  A folded MaxPool2 pools the
/// clamped words, which an integer max does exactly.  kReference keeps
/// every other op so the oracle executes the graph as written.
void schedule(Program& p) {
    if (!well_formed(p)) return;  // plan_activations refuses the program
    const bool fuse = p.execution != QExecution::kReference && p.valid_scheme();
    const std::vector<int> carrier = p.graph->fusion_plan().carrier;
    for (std::size_t i = 1; i < p.ops.size(); ++i) {
        Op& op = p.ops[i];
        const int in = p.carrier(op.inputs[0]), c = carrier[i];
        Op& prod = p.ops[static_cast<std::size_t>(c)];
        // The fp32 plan folds op into c unless c == i.  The fold stands when
        // c (a module that is no epilogue, so it executes here too) is an
        // integer conv or dwconv whose buffer holds op's input: c == in,
        // which also rules out c == i.
        const bool holds = fuse && c == in && prod.verdict == Verdict::kInt &&
                           (prod.kind == OpKind::kConv || prod.kind == OpKind::kDwConv);
        if (op.kind == OpKind::kIdentity) {
            op.alias = in;
        } else if (holds && (op.kind == OpKind::kRelu || op.kind == OpKind::kRelu6)) {
            prod.fused_act = static_cast<int>(i);
            op.alias = c;
        } else if (holds && op.kind == OpKind::kMaxPool && prod.kind == OpKind::kConv) {
            // The fp32 plan folds a pool only into a PWConv1, and an integer
            // one is an ungrouped pointwise kConv.
            prod.fused_pool = static_cast<int>(i);
            op.alias = c;
        }
    }
}

}  // namespace

Program lower(const nn::Graph& g, const QuantConfig& cfg) {
    Program p;
    p.cfg = cfg;
    p.execution = resolved_execution(cfg);
    p.graph = &g;
    p.scheme_errors = scheme_violations(cfg);
    p.ops = lower_graph(g, cfg);
    p.output = g.output_node();
    if (p.valid_scheme()) {
        p.spec = make_grid_spec(cfg);
        for (Op& op : p.ops)
            if (op.verdict == Verdict::kInt &&
                (op.kind == OpKind::kConv || op.kind == OpKind::kDwConv))
                quantize_conv(op, cfg.weight_bits, p.spec.fm);
    }
    schedule(p);
    return p;
}

deploy::MemoryPlan plan_activations(const Program& p, const Shape& input) {
    if (!well_formed(p))
        throw std::invalid_argument(
            "plan_activations: malformed edge, node or output (run verify::check_graph)");
    const std::vector<Shape> shapes = p.graph->infer_shapes(input);
    const auto refuse = [](std::size_t i, const std::string& why) {
        throw std::invalid_argument("plan_activations: node " + std::to_string(i) + why);
    };
    std::vector<deploy::PlanTensor> tensors(p.ops.size());
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
        const Op& op = p.ops[i];
        const Shape& s = shapes[i];
        const Shape& x = op.inputs.empty() ? s : shapes[static_cast<std::size_t>(op.inputs[0])];
        if (s.n <= 0 || s.c <= 0 || s.h <= 0 || s.w <= 0)
            refuse(i, " has a degenerate shape (run verify::check_graph)");
        const std::int64_t in_ch = op.conv.flatten ? x.per_item() : x.c;
        if (op.verdict == Verdict::kInt &&
            (op.kind == OpKind::kConv || op.kind == OpKind::kDwConv) && in_ch != op.conv.in_ch)
            refuse(i, " (" + op.name + ") expects " + std::to_string(op.conv.in_ch) +
                          " input channels, got " + x.str());
        for (const int in : op.inputs) {
            Shape y = shapes[static_cast<std::size_t>(in)];
            if (op.kind == OpKind::kConcat) y.c = x.c;  // concat stacks channels
            if ((op.kind == OpKind::kConcat || op.kind == OpKind::kAdd) && !(y == x))
                refuse(i, " (" + op.name + ") joins " + x.str() + " and " +
                              shapes[static_cast<std::size_t>(in)].str() +
                              " (run verify::check_graph)");
        }
        if (!op.executes()) continue;  // no buffer: its carrier holds the value
        for (const int in : op.inputs) tensors[i].inputs.push_back(p.carrier(in));
        const Shape& stored =
            op.fused_pool >= 0 ? shapes[static_cast<std::size_t>(op.fused_pool)] : s;
        tensors[i].bytes = stored.count() * activation_word_bytes(p.cfg.fm_bits);
    }
    return deploy::plan_tensors(tensors, p.carrier(p.output));
}

}  // namespace sky::quant
