// Shared value-range analysis on the fixed-point feature-map grid.
//
// This is the single source of truth for the range reasoning the integer
// engine's execution plan rests on: QEngine and verify::analyze run the
// same propagation over the same lowered Program (quant/lower.hpp), so the
// verifier and the engine can never disagree about which layers are
// provably int8-eligible (docs/STATIC_ANALYSIS.md "Abstract
// interpretation").
//
// The domain is an inclusive interval [lo, hi] of values on the shared FM
// grid (two's-complement integers of fm_bits).  Per op kind:
//
//   input              -> the declared [input_lo, input_hi] on the grid
//   ReLU               -> [max(lo, 0), max(hi, 0)]
//   ReLU6              -> [clamp(lo, 0, six), clamp(hi, 0, six)]
//   max pool / reorder /
//     identity         -> preserved (data movement / max selection)
//   concat             -> union of the input intervals
//   conv / dwconv /
//     add / fp32
//     islands          -> the full grid (every executed value requantizes
//                         onto the grid, so this is always sound)
//
// prove_qgemm() is the engine's per-conv eligibility proof over that
// domain: u8 span, s16 weight operand, and the value-aware int32
// accumulator bound K * max|w| * span < 2^31 (core/qgemm.hpp's contract).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quant/fixed_point.hpp"
#include "quant/qconfig.hpp"

namespace sky::quant {

/// Inclusive value range of a node's output on the FM grid.
struct GridRange {
    std::int32_t lo = 0;
    std::int32_t hi = 0;
};

/// The shared fixed-point grid a scheme defines: the FM format, its
/// two's-complement bounds, the ReLU6 clip constant and the declared input
/// range, all expressed as grid integers.
struct GridSpec {
    FixedPointFormat fm{};
    std::int32_t grid_lo = 0, grid_hi = 0;
    std::int32_t six = 0;            ///< ReLU6 clip on the grid (saturated)
    std::int32_t in_lo = 0, in_hi = 0;
};

/// Bytes of the word every activation on a `fm_bits`-wide FM grid is
/// stored in: 2 (int16) up to 16 bits, 4 (int32) above — a valid scheme's
/// grid has at most 24.  Every stored value is a grid value saturated to
/// fm_bits, so it always fits.  QEngine stores its activations in this word
/// and quant::plan_activations sizes tensors in it, so the plan and the
/// engine's measured peak agree.
[[nodiscard]] constexpr int activation_word_bytes(int fm_bits) {
    return fm_bits <= 16 ? 2 : 4;
}

/// Every rule `cfg` breaks, one message each (empty: a valid scheme): bit
/// widths in [2, 24], fm_abs_max positive and finite, input_lo <= input_hi.
/// The one scheme validation — verify::check_qmodel reports each as Q005.
/// The 24-bit cap keeps |w_hat| and |x| at most 2^23, so prove_qgemm's
/// K * max|w| * span, the dwconv's 9 * max|w| * max|x| and the int64
/// reference accumulators stay exact for K < 2^16 (VGG-16's 4608 is the
/// deepest reduction shipped); wider words overflow them.
[[nodiscard]] std::vector<std::string> scheme_violations(const QuantConfig& cfg);

/// Resolve a scheme into its grid.  Throws std::invalid_argument with the
/// first scheme_violations() message on a degenerate scheme.
[[nodiscard]] GridSpec make_grid_spec(const QuantConfig& cfg);

struct Program;

/// Forward interval propagation over a lowered program with a valid scheme,
/// on its grid.  Returns one range per op, in node order.
[[nodiscard]] std::vector<GridRange> propagate_grid_ranges(const Program& p);

/// Outcome of the int8 GEMM eligibility proof for one convolution.
struct ConvProof {
    bool eligible = false;
    std::int32_t zero_point = 0;  ///< u8 operand stores x - zero_point
    std::int64_t span = 0;        ///< hi - zero_point (grid values covered)
    std::int64_t acc_bound = 0;   ///< K * max|w| * span (int32-exact iff < 2^31)
    std::string reason;           ///< why not eligible; empty when eligible
};

/// Prove (or refute) packed-int8 eligibility for a conv with reduction
/// depth `K = in_ch * k * k`, padding `pad`, scheme weight width
/// `weight_bits`, quantised weight magnitude `wmax`, and the propagated
/// input range `in`.  Pure arithmetic on the analysis result — the engine
/// packs weights only for proofs that come back eligible, and
/// verify::analyze reports A004 when the accumulator bound is the reason.
[[nodiscard]] ConvProof prove_qgemm(int K, int pad, int weight_bits,
                                    std::int64_t wmax, GridRange in);

}  // namespace sky::quant
