#include "quant/ranges.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/qgemm.hpp"
#include "quant/lower.hpp"

namespace sky::quant {

std::vector<std::string> scheme_violations(const QuantConfig& cfg) {
    std::vector<std::string> v;
    if (cfg.fm_bits < 2 || cfg.fm_bits > 24)
        v.push_back("fm_bits=" + std::to_string(cfg.fm_bits) +
                    " is outside the representable window [2, 24]");
    if (cfg.weight_bits < 2 || cfg.weight_bits > 24)
        v.push_back("weight_bits=" + std::to_string(cfg.weight_bits) +
                    " is outside the representable window [2, 24]");
    if (!(cfg.fm_abs_max > 0.0f) || !std::isfinite(cfg.fm_abs_max))
        v.push_back("fm_abs_max=" + std::to_string(cfg.fm_abs_max) +
                    " must be positive and finite to define the shared FM grid");
    if (!(cfg.input_lo <= cfg.input_hi)) v.push_back("input_lo must be <= input_hi");
    return v;
}

GridSpec make_grid_spec(const QuantConfig& cfg) {
    if (const std::vector<std::string> v = scheme_violations(cfg); !v.empty())
        throw std::invalid_argument("degenerate quantization scheme: " + v.front());
    GridSpec spec;
    spec.fm = choose_format(cfg.fm_bits, cfg.fm_abs_max);
    const int fm_bits = spec.fm.total_bits;
    spec.grid_lo = saturate(std::numeric_limits<std::int64_t>::min(), fm_bits);
    spec.grid_hi = saturate(std::numeric_limits<std::int64_t>::max(), fm_bits);
    spec.six = spec.fm.frac_bits >= 60
                   ? spec.grid_hi
                   : saturate(static_cast<std::int64_t>(6) << spec.fm.frac_bits,
                              fm_bits);
    const double inv_step = 1.0 / spec.fm.step();
    spec.in_lo = saturate(
        std::llround(static_cast<double>(cfg.input_lo) * inv_step), fm_bits);
    spec.in_hi = saturate(
        std::llround(static_cast<double>(cfg.input_hi) * inv_step), fm_bits);
    return spec;
}

std::vector<GridRange> propagate_grid_ranges(const Program& p) {
    const GridSpec& spec = p.spec;
    const GridRange full{spec.grid_lo, spec.grid_hi};
    const auto transfer = [&](const Op& op, std::size_t,
                              const std::vector<GridRange>& range) {
        GridRange r = range[static_cast<std::size_t>(op.inputs[0])];
        switch (op.kind) {
            case OpKind::kConcat:
                for (const int in : op.inputs) {
                    r.lo = std::min(r.lo, range[static_cast<std::size_t>(in)].lo);
                    r.hi = std::max(r.hi, range[static_cast<std::size_t>(in)].hi);
                }
                return r;
            case OpKind::kRelu:
                return GridRange{std::max(r.lo, 0), std::max(r.hi, 0)};
            case OpKind::kRelu6:
                return GridRange{std::clamp(r.lo, 0, spec.six), std::clamp(r.hi, 0, spec.six)};
            case OpKind::kMaxPool:
            case OpKind::kReorder:
            case OpKind::kIdentity:
                return r;
            default:  // arithmetic ops and fp32 islands requantize onto the grid
                return full;
        }
    };
    return propagate(p.ops, GridRange{spec.in_lo, spec.in_hi}, transfer);
}

ConvProof prove_qgemm(int K, int pad, int weight_bits, std::int64_t wmax,
                      GridRange in) {
    ConvProof p;
    // With zero padding the offset value 0 must itself be encodable.
    p.zero_point = pad > 0 ? std::min(in.lo, 0) : in.lo;
    p.span = static_cast<std::int64_t>(in.hi) - p.zero_point;
    p.acc_bound = static_cast<std::int64_t>(K) * wmax * p.span;
    if (p.span > 255)
        p.reason = "input span " + std::to_string(p.span) + " exceeds u8";
    else if (weight_bits > 15)
        p.reason = "weight_bits > 15 (s16 operand bound)";
    else if (K > core::qgemm_max_k() || p.acc_bound >= (std::int64_t{1} << 31))
        p.reason = "int32 accumulator bound K * max|w| * span exceeded";
    else
        p.eligible = true;
    return p;
}

}  // namespace sky::quant
