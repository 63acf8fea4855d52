#include "quant/qerror.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "quant/lower.hpp"

namespace sky::quant {
namespace {

/// One node's transfer result before the enclosure cap is applied.
struct Transfer {
    ErrBound e;               ///< known => bound holds pre-cap
    double introduced = 0.0;  ///< fresh error added at this node (sup over ch)
    double lip = 1.0;         ///< input->output gain (the E003 ranking); in a
                              ///< block body, the path gain from the block input
    std::string lost;         ///< why tracking was lost when !e.known
};

ErrBound uniform(double b) { return {true, b, {}}; }

Transfer lost(std::string why) {
    Transfer t;
    t.lost = std::move(why);
    return t;
}

bool finite(const ErrBound& e) {
    if (!std::isfinite(e.bound)) return false;
    for (const double v : e.per_ch)
        if (!std::isfinite(v)) return false;
    return true;
}

/// Collapse a per-channel refinement whose length does not match the
/// consumer's channel count (reorders / unknown producers) to its sup.
ErrBound align(const ErrBound& e, std::size_t channels) {
    if (!e.known || e.per_ch.size() == channels) return e;
    return uniform(e.bound);
}

void set_bound_from_channels(ErrBound& e) {
    e.bound = 0.0;
    for (const double v : e.per_ch) e.bound = std::max(e.bound, v);
}

/// Grid-clamp saturation of the integer side versus the fp32 enclosure: the
/// engine clamps this node's output into [clamp_lo, clamp_hi] grid units
/// while the float value roams `v` — dist(v, clamp range) bounds the extra
/// error the clamp can introduce.
double sat_term(Interval v, std::int32_t clamp_lo, std::int32_t clamp_hi, double s) {
    const double lo = clamp_lo * s, hi = clamp_hi * s;
    return std::max({0.0, v.hi - hi, lo - v.lo});
}

/// Conv transfer (conv / pwconv / dwconv / linear).  The engine computes
///   clamp(round_shift(sum_t w_hat_t * x_hat_t + b_hat))
/// exactly in integers, so versus the fp32 conv the error of an integer
/// conv decomposes per output channel into
///   sum_t |w_hat| * e_in(ic)      incoming error through quantized weights
/// + sum_t |w_hat - w| * |x|_max   exact per-weight rounding, fp32 magnitude
/// + |b_hat - b|                   bias rounding at accumulator scale
/// + s/2                           requantization round-to-nearest
/// + sat                           grid clamp versus the fp32 interval
/// (the zero-point rowsum correction is exact).  Inside an fp32 island
/// (`spec` null) the original weights run: w_hat = w and only the first
/// term remains.
Transfer conv_err(const Op& op, const ErrBound& ein_raw, Interval vin, Interval vout,
                  const GridSpec* spec) {
    if (!ein_raw.known) return lost("input error bound unknown");
    double xmax = 0.0, s = 0.0, sat = 0.0, acc_scale = 0.0;
    if (spec != nullptr) {
        if (!vin.known || !vout.known) return lost("fp32 value interval unknown");
        xmax = std::max(std::abs(vin.lo), std::abs(vin.hi));
        if (!std::isfinite(xmax)) return lost("fp32 input interval unbounded");
        s = spec->fm.step();
        sat = sat_term(vout, spec->grid_lo, spec->grid_hi, s);
        acc_scale = std::ldexp(1.0, op.wfmt.frac_bits + spec->fm.frac_bits);
    }
    const ErrBound ein = align(ein_raw, static_cast<std::size_t>(op.conv.in_ch));
    const int in_per_group = op.conv.in_ch / op.conv.groups;
    const int out_per_group = op.conv.out_ch / op.conv.groups;
    const int taps = op.conv.k * op.conv.k;
    const std::int64_t k_per_oc = static_cast<std::int64_t>(in_per_group) * taps;
    const double wstep = op.wfmt.step();

    Transfer t;
    t.e.known = true;
    t.e.per_ch.resize(static_cast<std::size_t>(op.conv.out_ch));
    t.lip = 0.0;
    double worst_fresh = 0.0;
    for (int oc = 0; oc < op.conv.out_ch; ++oc) {
        const std::int64_t base = static_cast<std::int64_t>(oc) * k_per_oc;
        const std::int64_t ic0 = static_cast<std::int64_t>(oc / out_per_group) * in_per_group;
        double carried = 0.0, rounding = 0.0, lip_oc = 0.0;
        for (std::int64_t k = 0; k < k_per_oc; ++k) {
            const double wv = (*op.weight)[base + k];
            if (!std::isfinite(wv)) return lost("non-finite weights");
            const double wq =
                spec != nullptr ? op.qweights[static_cast<std::size_t>(base + k)] * wstep : wv;
            carried += std::abs(wq) * ein.channel(static_cast<std::size_t>(ic0 + k / taps));
            rounding += std::abs(wq - wv);
            lip_oc += std::abs(wq);
        }
        double fresh = 0.0;
        if (spec != nullptr) {
            double berr = 0.0;
            if (op.bias != nullptr) {
                const double b = (*op.bias)[oc];
                if (!std::isfinite(b)) return lost("non-finite bias");
                berr = std::abs(op.qbias[static_cast<std::size_t>(oc)] / acc_scale - b);
            }
            fresh = rounding * xmax + berr + 0.5 * s + sat;
        }
        t.e.per_ch[static_cast<std::size_t>(oc)] = carried + fresh;
        worst_fresh = std::max(worst_fresh, fresh);
        t.lip = std::max(t.lip, lip_oc);
    }
    set_bound_from_channels(t.e);
    t.introduced = worst_fresh;
    if (!finite(t.e)) return lost("error bound overflowed");
    return t;
}

/// Concat stacks its inputs' per-channel vectors; add sums them channel by
/// channel plus `sat`, the integer side's grid clamp (0 inside an fp32
/// island).  A uniform or misaligned input widens the result to its sup.
Transfer join_err(const Op& op, const std::vector<Transfer>& v, double sat) {
    const bool add = op.kind == OpKind::kAdd;
    if (op.inputs.empty()) return lost("join without inputs");
    bool per_ch = true;
    std::size_t ch = 0;
    for (const int in : op.inputs) {
        const ErrBound& u = v[static_cast<std::size_t>(in)].e;
        if (!u.known) return lost("input error bound unknown");
        if (u.per_ch.empty() || (add && ch != 0 && u.per_ch.size() != ch)) per_ch = false;
        ch = add ? std::max(ch, u.per_ch.size()) : ch + u.per_ch.size();
    }
    Transfer t;
    t.e.known = true;
    if (per_ch) {
        if (add) t.e.per_ch.assign(ch, sat);
        for (const int in : op.inputs) {
            const std::vector<double>& u = v[static_cast<std::size_t>(in)].e.per_ch;
            if (!add) t.e.per_ch.insert(t.e.per_ch.end(), u.begin(), u.end());
            for (std::size_t c = 0; add && c < ch; ++c) t.e.per_ch[c] += u[c];
        }
        set_bound_from_channels(t.e);
    } else {
        t.e.bound = add ? sat : 0.0;
        for (const int in : op.inputs) {
            const double b = v[static_cast<std::size_t>(in)].e.bound;
            t.e.bound = add ? t.e.bound + b : std::max(t.e.bound, b);
        }
    }
    t.introduced = sat;
    if (!finite(t.e)) return lost("error bound overflowed");
    return t;
}

Transfer island_err(const Op& op, std::size_t, const std::vector<Transfer>& v);

/// Error gain of an op on the fp32 datapath — a top-level fp32 island or
/// an op inside a block body.  Grid values dequantize exactly and the
/// *original* float module runs, so the op's own Lipschitz behaviour is the
/// whole story: no rounding enters.
Transfer fp32_err(const Op& op, const ErrBound& ein) {
    if (op.kind == OpKind::kSigmoid) {
        // 1/4-Lipschitz, and both sides land in [0, 1] — bounded even when
        // the incoming error is unknown.
        Transfer t;
        t.e = uniform(ein.known ? std::min(0.25 * ein.bound, 1.0) : 1.0);
        t.lip = 0.25;
        return t;
    }
    if (!ein.known) return lost("input error bound unknown");
    Transfer t;
    t.e = ein;  // 1-Lipschitz: clamps, selection, averaging, exact shifts
    switch (op.kind) {
        case OpKind::kConv:
        case OpKind::kDwConv:
            return conv_err(op, ein, {}, {}, nullptr);
        case OpKind::kAffine: {
            const ErrBound in = align(ein, op.scale.size());
            t.e.per_ch.resize(op.scale.size());
            t.lip = 0.0;
            for (std::size_t c = 0; c < op.scale.size(); ++c) {
                const double sc = std::abs(op.scale[c]);
                if (!std::isfinite(sc)) return lost("non-finite BN scale");
                t.e.per_ch[c] = sc * in.channel(c);
                t.lip = std::max(t.lip, sc);
            }
            set_bound_from_channels(t.e);
            break;
        }
        case OpKind::kLeaky:
            t.lip = std::max(1.0, static_cast<double>(std::abs(op.slope)));
            for (double& x : t.e.per_ch) x *= t.lip;
            t.e.bound *= t.lip;
            break;
        case OpKind::kReorder:  // channel permutations: values move, keep the sup
        case OpKind::kShuffle:
            t.e = uniform(ein.bound);
            break;
        case OpKind::kBlock: {
            // The body's own dataflow; `lip` carries the path gain from the
            // block input (only the E003 ranking consumes it).
            Transfer in;
            in.e = ein;
            t = propagate(op.body, in, island_err)[static_cast<std::size_t>(op.body_output)];
            if (!std::isfinite(t.lip)) t.lip = 1.0;
            return t;
        }
        case OpKind::kOpaque:
            return lost("no error transfer function for module '" + op.name + "'");
        default:
            break;
    }
    if (!finite(t.e)) return lost("error bound overflowed");
    return t;
}

/// One op of a block body.  Unknown bounds carry the first failing op's
/// reason out of the block; `lip` becomes the path gain from the block
/// input — multiplied through an op, the sup over a concat's inputs, the
/// sum over an add's.
Transfer island_err(const Op& op, std::size_t, const std::vector<Transfer>& v) {
    const bool join = op.kind == OpKind::kConcat || op.kind == OpKind::kAdd;
    Transfer t =
        join ? join_err(op, v, 0.0) : fp32_err(op, v[static_cast<std::size_t>(op.inputs[0])].e);
    if (!t.e.known) {
        for (const int in : op.inputs) {
            const Transfer& u = v[static_cast<std::size_t>(in)];
            if (!u.e.known) return u;
        }
        t.lost = op.name + ": " + t.lost;
        return t;
    }
    if (join) t.lip = 0.0;
    for (const int in : op.inputs) {
        const double g = v[static_cast<std::size_t>(in)].lip;
        t.lip = op.kind == OpKind::kAdd ? t.lip + g : join ? std::max(t.lip, g) : t.lip * g;
    }
    return t;
}

/// Adds a fresh per-node error term to every channel.
Transfer add_fresh(Transfer t, double fresh) {
    for (double& v : t.e.per_ch) v += fresh;
    t.e.bound += fresh;
    t.introduced = fresh;
    if (!finite(t.e)) return lost("error bound overflowed");
    return t;
}

/// One top-level op on the engine datapath: integer ops get the exact
/// rounding model; fp32 islands (and ops the engine rejects, modelled as if
/// fp32_fallback were on) the sandwich dequantize -> module -> requantize.
Transfer engine_err(const Op& op, const std::vector<Transfer>& v, Interval vin,
                    Interval vout, const GridSpec& spec) {
    const double s = spec.fm.step();
    const auto sat = [&] { return sat_term(vout, spec.grid_lo, spec.grid_hi, s); };
    const auto no_vout = [] { return lost("fp32 value interval unknown"); };
    if (op.kind == OpKind::kConcat) return join_err(op, v, 0.0);
    if (op.kind == OpKind::kAdd)  // exact integer add, then the grid clamp
        return vout.known ? join_err(op, v, sat()) : no_vout();
    const ErrBound& ein = v[static_cast<std::size_t>(op.inputs[0])].e;
    if (op.verdict != Verdict::kInt) {
        // The module's own gain, then one requantization rounding plus the
        // grid clamp.
        Transfer t = fp32_err(op, ein);
        if (!t.e.known) return t;
        return vout.known ? add_fresh(std::move(t), 0.5 * s + sat()) : no_vout();
    }
    if (!ein.known) return lost("input error bound unknown");
    Transfer t;
    t.e = ein;
    switch (op.kind) {
        case OpKind::kConv:
        case OpKind::kDwConv:
            return conv_err(op, ein, vin, vout, &spec);
        case OpKind::kRelu:
            // clamp(x, 0, grid_hi) vs max(x, 0): 1-Lipschitz plus the top
            // clamp the float side does not have.
            if (!vout.known) return no_vout();
            return add_fresh(std::move(t), std::max(0.0, vout.hi - spec.grid_hi * s));
        case OpKind::kRelu6:
            // clamp(x, 0, six) vs clamp(x, 0, 6): the exact grid offset of
            // the quantized clip point.
            return add_fresh(std::move(t), std::abs(spec.six * s - 6.0));
        case OpKind::kReorder:  // exact integer reorder: errors move with values
            t.e = uniform(ein.bound);
            return t;
        default:  // integer max pool / identity: 1-Lipschitz, stays on the grid
            return t;
    }
}

}  // namespace

std::vector<std::pair<int, double>> ErrorAnalysis::dominant(std::size_t k) const {
    std::vector<std::pair<int, double>> top;
    for (std::size_t i = 0; i < nodes.size(); ++i)
        if (nodes[i].contribution > 0.0)
            top.emplace_back(static_cast<int>(i), nodes[i].contribution);
    std::sort(top.begin(), top.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    if (top.size() > k) top.resize(k);
    return top;
}

int min_frac_bits_for_budget(double bound, double budget, int frac_bits) {
    if (budget <= 0.0 || bound <= budget || !std::isfinite(bound)) return frac_bits;
    return frac_bits + static_cast<int>(std::ceil(std::log2(bound / budget)));
}

ErrorAnalysis certify_error(const Program& p, const IntervalAnalysis& vals,
                            const std::vector<GridRange>& grid) {
    ErrorAnalysis ea;
    const std::size_t n = p.ops.size();
    ea.nodes.resize(n);
    ea.output_node = p.output;
    if (!p.valid_scheme()) {
        ea.first_unknown_node = 0;
        ea.unknown_reason = "degenerate quantization scheme (Q005): " + p.scheme_errors.front();
        return ea;
    }
    if (n == 0 || vals.values.size() != n || grid.size() != n) {
        ea.first_unknown_node = 0;
        ea.unknown_reason = "value/grid domains unavailable";
        return ea;
    }
    const GridSpec& spec = p.spec;
    const double s = spec.fm.step();
    const std::vector<Interval>& val = vals.values;

    // The trivial two-sided enclosure: the engine value provably lies in the
    // grid range, the fp32 value in its interval — their worst-case distance
    // caps any propagated bound and stops exponential growth.
    const auto capped = [&](std::size_t i, Transfer t) {
        double cap = std::numeric_limits<double>::infinity();
        if (val[i].known) {
            const double c = std::max(0.0, std::max(grid[i].hi * s - val[i].lo,
                                                    val[i].hi - grid[i].lo * s));
            if (std::isfinite(c)) cap = c;
        }
        if (t.e.known && t.e.bound > cap) {
            for (double& x : t.e.per_ch) x = std::min(x, cap);
            t.e.bound = cap;
        } else if (!t.e.known && std::isfinite(cap)) {
            t.e = uniform(cap);  // tracking lost, but both sides enclosed
            t.introduced = cap;
        } else if (!t.e.known && ea.first_unknown_node < 0) {
            ea.first_unknown_node = static_cast<int>(i);
            ea.unknown_reason = t.lost;
        }
        if (!std::isfinite(t.lip)) t.lip = 1.0;
        return t;
    };
    // The input: llround to the grid (half a step) plus saturation where the
    // declared range spills past the representable grid.
    Transfer in;
    in.e = uniform(0.5 * s + std::max({0.0, p.cfg.input_hi - spec.grid_hi * s,
                                       spec.grid_lo * s - p.cfg.input_lo}));
    in.introduced = in.e.bound;
    const std::vector<Transfer> t = propagate(
        p.ops, capped(0, in), [&](const Op& op, std::size_t i, const std::vector<Transfer>& v) {
            const Interval vin = op.inputs.empty()
                                     ? Interval{}
                                     : val[static_cast<std::size_t>(op.inputs[0])];
            return capped(i, engine_err(op, v, vin, val[i], spec));
        });

    // Backward gain pass: how much of each node's freshly-introduced error
    // survives to the output (the E003 "dominant contributor" ranking).
    std::vector<double> gain(n, 0.0);
    const auto out = static_cast<std::size_t>(ea.output_node);
    if (out < n) {
        gain[out] = 1.0;
        for (std::size_t r = n; r-- > 0;) {
            if (gain[r] <= 0.0) continue;
            for (const int in : p.ops[r].inputs)
                gain[static_cast<std::size_t>(in)] += gain[r] * t[r].lip;
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        NodeError& ne = ea.nodes[i];
        ne.out = t[i].e;
        ne.introduced = t[i].introduced;
        ne.gain = gain[i];
        ne.contribution = ne.introduced * gain[i];
    }
    if (out < n) {
        ea.output_known = ea.nodes[out].out.known;
        ea.output_bound = ea.nodes[out].out.bound;
    }
    return ea;
}

ErrorAnalysis certify_error(const nn::Graph& g, const QuantConfig& cfg) {
    const Program p = lower(g, cfg);
    return certify_error(p, propagate_value_intervals(p), propagate_grid_ranges(p));
}

}  // namespace sky::quant
