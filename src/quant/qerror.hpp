// Certified quantization error bounds — the affine/interval *error domain*.
//
// certify_error() statically derives, per graph node, a sound upper bound on
//
//     max_elem | QEngine::run(x) at node  -  fp32 forward(x) at node |
//
// over every input x inside the declared [cfg.input_lo, cfg.input_hi] range.
// The bound is built from the exact rounding the integer engine performs
// (src/quant/qengine.cpp) — nothing is estimated:
//
//   input        u8 grid rounding <= half an FM step, plus saturation when
//                the declared range spills past the representable grid
//   conv/dwconv  s16 weight rounding |w_hat - w| summed exactly per output
//                channel and scaled by the fp32 magnitude bound, incoming
//                error amplified by the quantized Lipschitz factor
//                sum|w_hat| per (out, in) channel pair, bias rounding at
//                accumulator scale, one half-step requantization rounding,
//                and grid-clamp saturation versus the fp32 interval
//   add          exact on-grid integer arithmetic: only clamp saturation
//                enters
//   clamps       ReLU is 1-Lipschitz on both sides; ReLU6 adds the exact
//                |six_hat - 6| grid offset
//   fallbacks    dequantize -> float module -> requantize contributes the
//                module's real Lipschitz gain plus one half-step rounding
//                (the fallback runs the *original* weights, so no weight
//                rounding term); a block (a nested Graph) is one island
//                whose body the same fp32 transfers walk, with per-channel
//                concat / add and no rounding inside
//
// Every per-node bound is finally capped by the trivial two-sided enclosure
// max(E.hi - V.lo, V.hi - E.lo) — the engine value provably lives in the
// grid enclosure E (quant/ranges.hpp) and the fp32 value in the interval V
// (quant/intervals.hpp) — which is what keeps deep chains from compounding
// exponentially: a ReLU6 can never be more than ~6 wrong.
//
// The zero-point rowsum correction is algebraically exact in the engine and
// therefore contributes no term.  fp32 round-off of the float reference
// itself (~1e-7 relative) is outside the model; it is orders of magnitude
// below the half-step terms the bound always contains (docs/QUANTIZATION.md
// "error budgets").
//
// For layers the engine cannot compile without cfg.fp32_fallback the domain
// models the fallback datapath — i.e. the bound certifies the engine *as it
// would run with fallback enabled*; configs that instead throw at
// construction are a stricter failure the Q-codes already report.
//
// One per-op-kind transfer over the lowered Program (quant/lower.hpp),
// shared by verify::analyze (E-series diagnostics), QEngine (QuantReport
// certified bound) and Detector::quantize (budget enforcement), mirroring
// the quant/ranges.hpp design: one propagation, three consumers, zero
// disagreement.  The w_hat / b_hat terms read the integer weights and
// biases the lowering produced, the very values the engine executes.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "nn/graph.hpp"
#include "quant/intervals.hpp"
#include "quant/lower.hpp"
#include "quant/qconfig.hpp"
#include "quant/ranges.hpp"

namespace sky::quant {

/// Certified |int - fp32| bound for one tensor: `bound` is the sup over
/// elements; `per_ch` optionally refines it per channel (empty = uniform —
/// channel structure was widened away, e.g. across a reorder).
struct ErrBound {
    bool known = false;
    double bound = 0.0;
    std::vector<double> per_ch;

    [[nodiscard]] double channel(std::size_t c) const {
        return c < per_ch.size() ? per_ch[c] : bound;
    }
};

/// Per-node result of the error domain.
struct NodeError {
    ErrBound out;              ///< certified bound on this node's output
    double introduced = 0.0;   ///< fresh rounding/saturation added here
    double gain = 0.0;         ///< amplification from here to the output
    double contribution = 0.0; ///< introduced * gain — the E003 ranking key
};

struct ErrorAnalysis {
    std::vector<NodeError> nodes;   ///< one per graph node
    bool output_known = false;
    double output_bound = 0.0;      ///< certified bound at the output node
    int output_node = -1;
    int first_unknown_node = -1;    ///< -1: every node stayed bounded
    std::string unknown_reason;     ///< why tracking was lost (E002 text)

    /// Top-k error contributors (node, contribution), largest first —
    /// introduced error weighted by the downstream Lipschitz gain to the
    /// output.  Zero-contribution nodes are omitted.
    [[nodiscard]] std::vector<std::pair<int, double>> dominant(std::size_t k) const;
};

/// Propagate the error domain over `g` under scheme `cfg`.  Never throws: a
/// degenerate scheme (Q005) yields an all-unknown analysis with the reason
/// recorded.
[[nodiscard]] ErrorAnalysis certify_error(const nn::Graph& g, const QuantConfig& cfg);

/// Same over an already-lowered program, reusing its value intervals and
/// grid ranges (`vals` from propagate_value_intervals, `grid` from
/// propagate_grid_ranges over the same `p`).
[[nodiscard]] ErrorAnalysis certify_error(const Program& p, const IntervalAnalysis& vals,
                                          const std::vector<GridRange>& grid);

/// E004 helper: the minimum feature-map fractional bits for which the
/// certified bound would (to first order — the bound's half-step terms scale
/// with the FM step) fit inside `budget`, given it is `bound` at
/// `frac_bits` today.  Returns frac_bits when already inside.
[[nodiscard]] int min_frac_bits_for_budget(double bound, double budget, int frac_bits);

}  // namespace sky::quant
