// Forward-dataflow abstract interpretation over nn::Graph (A- and E-codes).
//
// analyze() lowers the graph once (quant::lower) and runs each abstract
// domain as one forward pass over that program, reporting what the
// ordinary shape checks (check_graph) cannot see — properties of the
// VALUES a graph computes, provable without executing a single kernel:
//
//   * fp32 interval domain — every node gets an inclusive [lo, hi] bound on
//     its output values, derived from the actual weights (per-out-channel
//     sign-split sums; quant/intervals.hpp).  Interval blow-up past FLT_MAX
//     means Inf/NaN is statically reachable (A001).
//   * activation usefulness — a ReLU whose input is already non-negative
//     never clamps (A002, dead code); one whose input is never positive
//     emits a constant (A003, the layer erases its features).
//   * fixed-point grid domain — quant::propagate_grid_ranges on the scheme
//     in AnalyzeOptions::qconfig, the SAME propagation the integer engine
//     plans with, feeding the int32 accumulator proof quant::prove_qgemm
//     with the lowered convs' max|w_hat|.  A conv whose K * max|w| * span
//     reaches 2^31 cannot use the packed int8 path (A004).
//   * quantization error domain — quant::certify_error propagates a sound
//     per-out-channel bound on |int8 - fp32| through every node, composing
//     the exact engine rounding model with the fp32 intervals (Lipschitz
//     factors) and the grid enclosures (clamp caps).  Against the
//     qconfig.error_budget it yields E001 (a layer's certified bound
//     crosses the budget), E002 (the bound became unbounded — tracking
//     lost), E003 (dominant-error layers, top-k contributors) and E004
//     (budget-infeasible bit-width: minimum fractional bits needed).
//   * tensor liveness — quant::plan_activations over the same program: the
//     static activation memory plan (exact peak bytes + arena slots) of the
//     ops QEngine executes under the scheme's execution mode — the plan its
//     arena executor runs and serve's capacity gauge reads.
//
// Diagnostic catalog (full table in docs/STATIC_ANALYSIS.md):
//   A001 warn   value interval exceeds FLT_MAX: Inf/NaN statically reachable
//   A002 warn   activation clamp provably never fires (dead clamp)
//   A003 warn   activation always saturates (output provably constant)
//   A004 warn   int32 accumulator bound K * max|w| * span reaches 2^31
//   E001 warn   certified error bound exceeds the per-layer budget
//   E002 warn   certified error bound unbounded (tracking lost)
//   E003 warn   dominant-error layer report (top contributors)
//   E004 warn   budget infeasible at this bit-width (min fractional bits)
// All A/E-codes are warnings: they flag numerically suspect or wasteful
// graphs, not graphs that cannot execute.  (skyanalyze --deny promotes
// selected codes to errors; the CI lint lane denies E002.)
#pragma once

#include <vector>

#include "deploy/memory_plan.hpp"
#include "nn/graph.hpp"
#include "quant/intervals.hpp"
#include "quant/qconfig.hpp"
#include "quant/qerror.hpp"
#include "quant/ranges.hpp"
#include "verify/diagnostics.hpp"

namespace sky::verify {

struct AnalyzeOptions {
    /// Scheme for the fixed-point grid / error domains and the A004
    /// accumulator proof; the fp32 domain also anchors the graph input at
    /// [input_lo, input_hi].  qconfig.error_budget > 0 arms E001/E003/E004.
    quant::QuantConfig qconfig{};
};

/// Everything one analyze() pass derives.  Vectors are indexed by graph
/// node id.
struct Analysis {
    Report report;
    /// fp32 output bounds; known == false means the analysis lost track (a
    /// module kind without a transfer function) and every downstream check
    /// involving the node is skipped — soundness over false alarms.
    std::vector<quant::Interval> value_ranges;
    std::vector<quant::GridRange> grid_ranges;  ///< empty for a degenerate scheme
    quant::ErrorAnalysis errors;  ///< certified |int8 - fp32| bounds
    deploy::MemoryPlan plan;
    bool has_plan = false;  ///< false when planning failed
};

/// Abstractly interpret `g` for inputs of shape `input` (batch and spatial
/// dims only matter to the memory plan).  Never throws on analyzable
/// graphs; a graph the planner refuses (malformed, or a shape the integer
/// engine cannot run) simply loses its memory plan (run check_graph first
/// for the structural diagnostics).
[[nodiscard]] Analysis analyze(const nn::Graph& g, const Shape& input,
                               const AnalyzeOptions& opts = {});

}  // namespace sky::verify
