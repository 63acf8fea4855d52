// Lowering: one pass from a BN-folded nn::Graph to the flat, typed op
// program that every consumer of the integer datapath reads.
//
// quant::lower() is the only place in src/quant that asks what kind of
// module a graph node holds; every conv-like layer is one test for
// nn::ConvLayer, whose ConvSpec the op carries.  Each node becomes one Op —
// a typed kind, the layer parameters the passes need, and a verdict:
//
//   kInt       the integer engine runs the op on the shared FM grid
//   kFp32      the op runs as an fp32 island (dequantize -> float module ->
//              requantize); only with QuantConfig::fp32_fallback (Q002 warn)
//   kRejected  the engine refuses the op: Q001 (unfolded BatchNorm) or
//              Q002 (no integer lowering and fp32_fallback off)
//
// Integer convolutions are quantized here, once: weight format, integer
// taps, max|w_hat| and the bias at accumulator scale — the engine executes
// them, the A004 proof and the error domain read them.  A nested Graph
// becomes a kBlock op whose body is lowered recursively; a block always runs
// as one fp32 island.
//
// Lowering also decides, once, which top-level ops execute (Op::alias).  It
// runs nn::Graph::fusion_plan(), the fp32 forward's plan, and only vetoes:
// an identity never executes; outside QExecution::kReference and with a
// valid scheme, a folded ReLU/ReLU6 stays in the clamp of an integer conv or
// dwconv holding its input, and a folded MaxPool2 stays in the integer
// pointwise conv holding its input (Op::fused_pool: the conv writes the
// pooled map); every other op executes.  QEngine runs exactly the executing
// ops, and plan_activations() sizes exactly their buffers — for the engine
// and for verify::analyze alike.
//
// propagate() is the one forward-dataflow pass the abstract domains run on:
// the grid ranges (quant/ranges.hpp), the fp32 intervals
// (quant/intervals.hpp) and the certified error bounds (quant/qerror.hpp)
// are each one per-op-kind transfer function over the same op list.  The
// interval and error domains recurse into a block by propagating over its
// body; the grid domain gives a block the full grid.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deploy/memory_plan.hpp"
#include "nn/conv_layer.hpp"
#include "nn/graph.hpp"
#include "quant/fixed_point.hpp"
#include "quant/qconfig.hpp"
#include "quant/ranges.hpp"

namespace sky::quant {

enum class OpKind {
    kInput,
    kConcat,
    kAdd,
    kConv,      ///< an nn::ConvLayer: Conv2d, PWConv1 (any groups), Linear
    kDwConv,    ///< a depthwise nn::ConvLayer (ConvSpec::depthwise: DWConv3)
    kAffine,    ///< BatchNorm2d, as its fused per-channel affine
    kRelu,
    kRelu6,
    kLeaky,
    kSigmoid,
    kMaxPool,   ///< MaxPool2
    kAvgPool,   ///< GlobalAvgPool
    kReorder,   ///< SpaceToDepth
    kShuffle,   ///< ChannelShuffle
    kIdentity,  ///< deploy::Identity
    kBlock,     ///< nested Graph; `body` holds its ops
    kOpaque,    ///< a module no pass has a transfer function for
};

enum class Verdict { kInt, kFp32, kRejected };

struct Op {
    OpKind kind = OpKind::kOpaque;
    Verdict verdict = Verdict::kInt;
    std::string name;  ///< module name, or "input" / "concat" / "add"
    std::vector<int> inputs;
    /// The graph's module (fp32 islands run it): the graph must outlive
    /// every Program and engine lowered from it.
    nn::Module* module = nullptr;
    std::string code, reason, hint;  ///< the Q001/Q002 finding when verdict != kInt

    // kConv / kDwConv: the layer's geometry and its weight
    // [out_ch, in_ch / groups, k, k].
    nn::ConvSpec conv;
    const Tensor* weight = nullptr;
    const Tensor* bias = nullptr;  ///< nullptr: no bias
    // Integer ops, quantized once on the scheme's grid.
    FixedPointFormat wfmt{};               ///< per-layer weight format
    std::vector<std::int32_t> qweights;    ///< w_hat, the layout of *weight
    std::int64_t wmax = 0;                 ///< max |w_hat|
    std::vector<std::int64_t> qbias;       ///< the bias at accumulator scale

    std::vector<float> scale, shift;  ///< kAffine: y = scale_c * x + shift_c
    float slope = 0.0f;               ///< kLeaky
    int block = 2;                    ///< kReorder

    /// kBlock: op 0 is the block input.  The whole body runs in fp32, so
    /// only top-level verdicts, quantized weights and execution decisions
    /// mean anything.
    std::vector<Op> body;
    int body_output = 0;

    /// -1: the op executes.  Otherwise it is skipped and op `alias` (an
    /// executing op) holds its value in its own buffer.
    int alias = -1;
    int fused_act = -1;  ///< kConv/kDwConv: the ReLU/ReLU6 op in its clamp
    /// kConv (pointwise): the MaxPool2 op folded in after the clamp; the
    /// conv's buffer then holds the pool's value, at the pooled shape.
    int fused_pool = -1;

    [[nodiscard]] bool executes() const { return alias < 0; }
};

struct Program {
    QuantConfig cfg;
    QExecution execution = QExecution::kAuto;  ///< resolved_execution(cfg)
    const nn::Graph* graph = nullptr;  ///< the lowered graph (shape inference)
    /// Q005: every rule the scheme breaks.  Empty means `spec` is valid and
    /// the integer ops are quantized.
    std::vector<std::string> scheme_errors;
    GridSpec spec;
    std::vector<Op> ops;  ///< one per graph node, in node order; op 0 is the input
    int output = 0;

    [[nodiscard]] bool valid_scheme() const { return scheme_errors.empty(); }
    /// The op whose buffer holds op `i`'s value.
    [[nodiscard]] int carrier(int i) const {
        const Op& op = ops[static_cast<std::size_t>(i)];
        return op.executes() ? i : op.alias;
    }
};

/// Lower `g` under `cfg`.  Never throws: a degenerate scheme is recorded in
/// scheme_errors and leaves the ops unquantized; unsupported modules get
/// their verdict.
[[nodiscard]] Program lower(const nn::Graph& g, const QuantConfig& cfg);

/// The activation memory plan of `p`'s executing ops for inputs of `input`
/// shape, in FM grid words of activation_word_bytes(p.cfg.fm_bits): int16
/// up to 16-bit FMs, int32 above (deploy::plan_tensors over the shapes
/// nn::Graph::infer_shapes gives, a conv with a fused pool at the pool's).
/// QEngine runs out of exactly this plan.
/// Throws std::invalid_argument, before anything runs, on a malformed edge
/// or output, a degenerate shape, a concat / add of mismatched shapes, or
/// an integer conv / dwconv whose input channel count is not its in_ch.
[[nodiscard]] deploy::MemoryPlan plan_activations(const Program& p, const Shape& input);

/// The forward dataflow pass: visits `ops` in order and sets
/// vals[i] = transfer(ops[i], i, vals), reading inputs from vals[ops[i].inputs];
/// the input op takes `entry`.  A domain recurses into a kBlock op by
/// propagating over its body with the block's input value as `entry`.
template <class V, class Transfer>
std::vector<V> propagate(const std::vector<Op>& ops, const V& entry, Transfer&& transfer) {
    std::vector<V> vals(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        vals[i] = ops[i].kind == OpKind::kInput ? entry : transfer(ops[i], i, vals);
    return vals;
}

}  // namespace sky::quant
