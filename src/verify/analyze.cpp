#include "verify/analyze.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "quant/lower.hpp"

namespace sky::verify {
namespace {

std::string num_str(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

/// A004: the int32 accumulator proof for the integer convs, on the shared
/// grid domain the engine itself plans with.
void prove_accumulators(const quant::Program& p, const std::vector<quant::GridRange>& gr,
                        Report& rep) {
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
        const quant::Op& op = p.ops[i];
        // Grouped and fp32 convs never take qgemm; dwconvs have their own path.
        if (op.kind != quant::OpKind::kConv || op.verdict != quant::Verdict::kInt) continue;
        const int K = op.conv.in_ch * op.conv.k * op.conv.k;
        const quant::ConvProof pr =
            quant::prove_qgemm(K, op.conv.pad, p.cfg.weight_bits, op.wmax,
                               gr[static_cast<std::size_t>(op.inputs[0])]);
        if (pr.eligible || pr.reason.find("accumulator") == std::string::npos) continue;
        rep.warn("A004", static_cast<int>(i),
                 op.name + ": int32 accumulator bound reached: K=" + std::to_string(K) +
                     " * max|w|=" + std::to_string(op.wmax) +
                     " * span=" + std::to_string(pr.span) + " = " +
                     std::to_string(pr.acc_bound) + " >= 2^31",
                 "the packed int8 GEMM path is unavailable here; narrow "
                 "weight_bits / fm_abs_max or accept the reference path");
    }
}

/// E001-E004: judge the certified error bounds against the configured
/// per-layer budget.  E001 fires only where the budget is first crossed
/// (transition), E002 only where tracking is first lost, E003/E004 once at
/// the output node.
void report_error_bounds(const quant::Program& p, const quant::ErrorAnalysis& ea,
                         Report& rep) {
    const auto name = [&p](int node) { return p.ops[static_cast<std::size_t>(node)].name; };
    if (ea.first_unknown_node >= 0)
        rep.warn("E002", ea.first_unknown_node,
                 name(ea.first_unknown_node) +
                     ": certified error bound lost: " + ea.unknown_reason,
                 "the |int8 - fp32| deviation is no longer certified past this "
                 "node; give the module an error transfer function or restructure "
                 "the graph");

    const double budget = p.cfg.error_budget;
    if (budget <= 0.0) return;

    for (std::size_t i = 0; i < ea.nodes.size(); ++i) {
        const quant::ErrBound& e = ea.nodes[i].out;
        if (!e.known || e.bound <= budget) continue;
        bool inputs_ok = true;  // transition: every input still inside budget
        for (const int in : p.ops[i].inputs) {
            const quant::ErrBound& u = ea.nodes[static_cast<std::size_t>(in)].out;
            inputs_ok = inputs_ok && u.known && u.bound <= budget;
        }
        if (!inputs_ok) continue;
        rep.warn("E001", static_cast<int>(i),
                 name(static_cast<int>(i)) + ": certified |int8 - fp32| bound " +
                     num_str(e.bound) + " exceeds the per-layer error budget " +
                     num_str(budget),
                 "add fractional bits (fm_bits), shrink fm_abs_max, or raise "
                 "the budget");
    }

    if (!ea.output_known || ea.output_bound <= budget || ea.output_node < 0) return;

    std::string top;
    for (const auto& [node, contribution] : ea.dominant(3)) {
        if (!top.empty()) top += ", ";
        top += name(node) + "@" + std::to_string(node) + " (" +
               num_str(contribution) + ")";
    }
    rep.warn("E003", ea.output_node,
             "output error bound " + num_str(ea.output_bound) +
                 " dominated by: " + (top.empty() ? std::string("(none)") : top),
             "error introduced per layer weighted by its downstream gain; "
             "fix the top contributors first");

    const int frac = p.spec.fm.frac_bits;
    const int need = quant::min_frac_bits_for_budget(ea.output_bound, budget, frac);
    if (need > frac)
        rep.warn("E004", ea.output_node,
                 "error budget " + num_str(budget) + " is infeasible at fm_bits=" +
                     std::to_string(p.cfg.fm_bits) + " (" + std::to_string(frac) +
                     " fractional bits): certified bound " + num_str(ea.output_bound) +
                     " needs >= " + std::to_string(need) + " fractional bits (fm_bits >= " +
                     std::to_string(p.cfg.fm_bits + (need - frac)) + " at this fm_abs_max)",
                 "the bound's rounding terms scale with the FM step; widen "
                 "the feature-map word or relax the budget");
}

}  // namespace

Analysis analyze(const nn::Graph& g, const Shape& input, const AnalyzeOptions& opts) {
    Analysis a;
    const quant::Program p = quant::lower(g, opts.qconfig);

    quant::IntervalAnalysis vals = quant::propagate_value_intervals(p);
    for (const quant::ActEvent& e : vals.events)
        a.report.warn(e.kind == quant::ActEvent::Kind::kDeadClamp ? "A002" : "A003", e.node,
                      e.message, e.hint);
    // A001 fires only where boundedness is LOST — downstream nodes of a
    // blown interval would all re-report otherwise.
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
        if (!quant::interval_blown(vals.values[i])) continue;
        const std::vector<int>& ins = p.ops[i].inputs;
        if (std::any_of(ins.begin(), ins.end(), [&](int in) {
                return quant::interval_blown(vals.values[static_cast<std::size_t>(in)]);
            }))
            continue;
        a.report.warn("A001", static_cast<int>(i),
                      p.ops[i].name + ": value interval " +
                          quant::interval_str(vals.values[i]) +
                          " exceeds fp32 range: Inf/NaN statically reachable",
                      "rescale the weights or normalise the input (intervals are "
                      "conservative; calibrate to confirm)");
    }

    // A degenerate scheme (check_qmodel's Q005) leaves the grid domain
    // nothing sound to say; the error domain reports it as unknown.
    if (p.valid_scheme()) {
        a.grid_ranges = quant::propagate_grid_ranges(p);
        prove_accumulators(p, a.grid_ranges, a.report);
    }
    a.errors = quant::certify_error(p, vals, a.grid_ranges);
    report_error_bounds(p, a.errors, a.report);
    a.value_ranges = std::move(vals.values);

    try {
        a.plan = quant::plan_activations(p, input);  // the plan QEngine runs
        a.has_plan = true;
    } catch (const std::invalid_argument&) {
        // The planner refused the graph at this input — check_graph carries
        // the diagnostics.
    }
    return a;
}

}  // namespace sky::verify
