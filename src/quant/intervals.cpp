#include "quant/intervals.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "quant/lower.hpp"

namespace sky::quant {
namespace {

// FLT_MAX without pulling <cfloat> into the interval math: intervals run in
// double so the *bound* never overflows, and crossing this line is exactly
// "fp32 execution can produce Inf here".
constexpr double kFloatMax = 3.4028234663852886e38;

/// Union over output channels of the exact per-channel extreme sums
///   lo_oc = sum_k (w > 0 ? w * in.lo : w * in.hi) + b_oc   (and mirrored)
/// — the tightest interval any single dot product of one output channel's
/// taps against values in `in` can reach.  Zero padding makes 0 a
/// reachable input value, so padded convs widen `in` to include it.
Interval conv_interval(const Op& op, Interval in) {
    const std::int64_t k_per_oc = op.weight->shape().per_item();
    if (!in.known || op.conv.out_ch <= 0 || k_per_oc <= 0) return {};
    const double ilo = op.conv.pad > 0 ? std::min(in.lo, 0.0) : in.lo;
    const double ihi = op.conv.pad > 0 ? std::max(in.hi, 0.0) : in.hi;
    const Tensor& w = *op.weight;
    Interval out{std::numeric_limits<double>::infinity(),
                 -std::numeric_limits<double>::infinity(), true};
    for (int oc = 0; oc < op.conv.out_ch; ++oc) {
        double lo = 0.0, hi = 0.0;
        const std::int64_t base = static_cast<std::int64_t>(oc) * k_per_oc;
        for (std::int64_t k = 0; k < k_per_oc; ++k) {
            const double wv = w[base + k];
            lo += wv > 0 ? wv * ilo : wv * ihi;
            hi += wv > 0 ? wv * ihi : wv * ilo;
        }
        if (op.bias != nullptr && op.bias->size() > oc) {
            const double b = (*op.bias)[oc];
            lo += b;
            hi += b;
        }
        // A NaN weight poisons the whole channel; std::min/max would silently
        // drop it and claim a finite bound for outputs that are NaN.  Return
        // the blown interval instead so A001 fires.
        if (std::isnan(lo) || std::isnan(hi))
            return {-std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity(), true};
        out.lo = std::min(out.lo, lo);
        out.hi = std::max(out.hi, hi);
    }
    return out;
}

/// Union over channels of the per-channel affine y = scale_c * x + shift_c.
Interval affine_interval(const std::vector<float>& scale,
                         const std::vector<float>& shift, Interval in) {
    if (!in.known || scale.empty()) return {};
    Interval out{std::numeric_limits<double>::infinity(),
                 -std::numeric_limits<double>::infinity(), true};
    for (std::size_t c = 0; c < scale.size(); ++c) {
        const double s = scale[c];
        const double t = c < shift.size() ? shift[c] : 0.0;
        const double a = s * in.lo + t, b = s * in.hi + t;
        if (std::isnan(a) || std::isnan(b))  // same NaN-dropping trap as conv
            return {-std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity(), true};
        out.lo = std::min(out.lo, std::min(a, b));
        out.hi = std::max(out.hi, std::max(a, b));
    }
    return out;
}

double sig(double x) { return 1.0 / (1.0 + std::exp(-x)); }

void event(std::vector<ActEvent>& events, ActEvent::Kind kind, int node,
           std::string message, std::string hint) {
    events.push_back({kind, node, std::move(message), std::move(hint)});
}

/// Activation transfer + the dead-clamp / always-saturating findings.  The
/// findings need a *bounded* known input (a blown interval already carries
/// an Inf/NaN report; an unknown one proves nothing).
Interval act_interval(const Op& op, Interval in, int node, std::vector<ActEvent>& events) {
    const std::string& where = op.name;
    const bool checkable = in.known && !interval_blown(in);
    switch (op.kind) {
        case OpKind::kRelu:
            if (checkable && in.hi <= 0.0)
                event(events, ActEvent::Kind::kSaturating, node,
                      where + " always saturates: input " + interval_str(in) +
                          " is never positive, output is constant 0",
                      "the layer erases its features; drop it or fix the "
                      "producer's bias/scale");
            else if (checkable && in.lo >= 0.0)
                event(events, ActEvent::Kind::kDeadClamp, node,
                      where + " clamp never fires: input " + interval_str(in) +
                          " is already non-negative",
                      "dead activation; remove it (it costs a full tensor pass)");
            if (!in.known) return {};
            return {std::max(in.lo, 0.0), std::max(in.hi, 0.0), true};
        case OpKind::kRelu6:
            if (checkable && in.lo >= 6.0)
                event(events, ActEvent::Kind::kSaturating, node,
                      where + " always saturates: input " + interval_str(in) +
                          " is never below the clip, output is constant 6",
                      "the layer erases its features; fix the producer's "
                      "bias/scale");
            else if (checkable && in.lo >= 0.0 && in.hi <= 6.0)
                event(events, ActEvent::Kind::kDeadClamp, node,
                      where + " clamp never fires: input " + interval_str(in) +
                          " already lies in [0, 6]",
                      "dead activation; remove it (it costs a full tensor pass)");
            if (!in.known) return {};
            return {std::clamp(in.lo, 0.0, 6.0), std::clamp(in.hi, 0.0, 6.0), true};
        case OpKind::kLeaky: {
            if (!in.known) return {};
            const double s = op.slope;
            const auto f = [s](double x) { return x > 0 ? x : s * x; };
            // Monotone for s >= 0; a negative slope needs the 0 crossing too.
            double lo = std::min(f(in.lo), f(in.hi));
            double hi = std::max(f(in.lo), f(in.hi));
            if (in.lo < 0.0 && in.hi > 0.0) {
                lo = std::min(lo, 0.0);
                hi = std::max(hi, 0.0);
            }
            return {lo, hi, true};
        }
        default:  // kSigmoid
            // Bounded even for an unknown or blown input: sigmoid maps the
            // whole extended real line into [0, 1].
            if (!in.known || interval_blown(in)) return {0.0, 1.0, true};
            return {sig(in.lo), sig(in.hi), true};
    }
}

/// Concat unions its inputs' intervals, add sums them.
Interval join_interval(const Op& op, const std::vector<Interval>& v) {
    const bool add = op.kind == OpKind::kAdd;
    const double inf = std::numeric_limits<double>::infinity();
    Interval r{add ? 0.0 : inf, add ? 0.0 : -inf, !op.inputs.empty()};
    for (const int in : op.inputs) {
        const Interval& u = v[static_cast<std::size_t>(in)];
        r.known = r.known && u.known;
        r.lo = add ? r.lo + u.lo : std::min(r.lo, u.lo);
        r.hi = add ? r.hi + u.hi : std::max(r.hi, u.hi);
    }
    return r.known ? r : Interval{};
}

/// Transfer of one op; `node` anchors activation events (ops in a block
/// body report at the block's node).
Interval op_interval(const Op& op, const std::vector<Interval>& v, int node,
                     std::vector<ActEvent>& events) {
    const Interval in =
        op.inputs.empty() ? Interval{} : v[static_cast<std::size_t>(op.inputs[0])];
    switch (op.kind) {
        case OpKind::kConcat:
        case OpKind::kAdd:
            return join_interval(op, v);
        case OpKind::kConv:
        case OpKind::kDwConv:
            return conv_interval(op, in);
        case OpKind::kAffine:
            return affine_interval(op.scale, op.shift, in);
        case OpKind::kRelu:
        case OpKind::kRelu6:
        case OpKind::kLeaky:
        case OpKind::kSigmoid:
            return act_interval(op, in, node, events);
        case OpKind::kBlock:
            return propagate(op.body, in,
                             [&](const Op& o, std::size_t, const std::vector<Interval>& bv) {
                                 return op_interval(o, bv, node, events);
                             })[static_cast<std::size_t>(op.body_output)];
        case OpKind::kMaxPool:  // data movement / selection / averaging
        case OpKind::kAvgPool:  // preserves the value set's bounds
        case OpKind::kReorder:
        case OpKind::kShuffle:
        case OpKind::kIdentity:
            return in;
        case OpKind::kInput:
        case OpKind::kOpaque:
            break;
    }
    return {};  // no transfer function: the analysis loses track, soundly
}

}  // namespace

bool interval_blown(const Interval& v) {
    return v.known &&
           (v.lo < -kFloatMax || v.hi > kFloatMax || std::isnan(v.lo) || std::isnan(v.hi));
}

std::string interval_str(const Interval& v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "[%.4g, %.4g]", v.lo, v.hi);
    return buf;
}

IntervalAnalysis propagate_value_intervals(const Program& p) {
    IntervalAnalysis a;
    const Interval entry{static_cast<double>(p.cfg.input_lo),
                         static_cast<double>(p.cfg.input_hi), true};
    a.values = propagate(p.ops, entry,
                         [&](const Op& op, std::size_t i, const std::vector<Interval>& v) {
                             return op_interval(op, v, static_cast<int>(i), a.events);
                         });
    return a;
}

}  // namespace sky::quant
