// Shared fp32 interval value-range domain over the lowered program.
//
// The certified quantization-error domain (quant/qerror.hpp) needs the same
// per-node fp32 enclosures verify::analyze reports on (A001-A003) for its
// Lipschitz / saturation terms, so the transfer function lives here in
// quant — one per-op-kind switch over the Program (quant/lower.hpp)
// consumed by both the checker and the error certifier, mirroring how
// quant/ranges.hpp shares the grid domain (they can never disagree).
//
// Soundness contract: for every graph node i, the true fp32 activation
// values at i (over any input inside [cfg.input_lo, cfg.input_hi]) lie in
// values[i] whenever values[i].known.  An unknown interval means the
// analysis lost track (no transfer function) — never that the values are
// unbounded.
//
// The activation usefulness findings (dead clamp / always-saturating) are
// discovered while folding activations; they are returned as neutral
// ActEvents so verify::analyze can report them as A002/A003 without quant
// depending on the verify layer.
#pragma once

#include <string>
#include <vector>

namespace sky::quant {

/// Closed fp32 interval in double (so the *bound* itself never overflows).
struct Interval {
    double lo = 0.0;
    double hi = 0.0;
    bool known = false;
};

/// True when the interval proves fp32 execution can produce Inf/NaN here.
[[nodiscard]] bool interval_blown(const Interval& v);

/// "[lo, hi]" with %.4g bounds (the rendering the diagnostics quote).
[[nodiscard]] std::string interval_str(const Interval& v);

/// An activation whose clamp is statically useless — either it never fires
/// (dead) or it always saturates (the layer erases its features).
struct ActEvent {
    enum class Kind {
        kDeadClamp,    ///< clamp never fires (verify reports as A002)
        kSaturating,   ///< output is statically constant (verify: A003)
    };
    Kind kind = Kind::kDeadClamp;
    int node = 0;          ///< graph node the activation lives at
    std::string message;   ///< fully-formed finding text
    std::string hint;
};

struct IntervalAnalysis {
    std::vector<Interval> values;  ///< one per graph node
    std::vector<ActEvent> events;
};

struct Program;

/// Forward dataflow pass over the program: the input starts at
/// [cfg.input_lo, cfg.input_hi], concat takes the union, add the sum, and
/// each op kind applies its transfer function (per-out-channel sign-split
/// sums for convs, per-channel affine for BN, exact clamp images for
/// activations, the body's dataflow for blocks; kinds without a transfer
/// widen to unknown).  Activation events inside a block anchor to the
/// block's node.
[[nodiscard]] IntervalAnalysis propagate_value_intervals(const Program& p);

}  // namespace sky::quant
