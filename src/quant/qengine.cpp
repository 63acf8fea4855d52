#include "quant/qengine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dwconv.hpp"
#include "core/gemm.hpp"
#include "core/maxpool.hpp"
#include "core/thread_pool.hpp"
#include "quant/intervals.hpp"
#include "quant/qerror.hpp"
#include "quant/ranges.hpp"

namespace sky::quant {
namespace {

// Per-thread scratch of the conv executors, so the chunks of one pass never
// share a buffer: a band's (or an image's) u8 panels, and the words of a
// band or plane a fused pool reads.
thread_local core::QPackedB tls_panels;

template <class Word>
std::vector<Word>& tls_words(std::size_t n) {
    thread_local std::vector<Word> words;
    if (words.size() < n) words.resize(n);
    return words;
}

/// A qgemm conv's integer taps packed for the active micro-kernel tile.
void pack_weights(const Op& op, core::QPackedA& out) {
    core::qpack_a_wide(op.conv.out_ch, op.conv.in_ch * op.conv.k * op.conv.k,
                       op.qweights.data(), out);
}

}  // namespace

QEngine::QEngine(nn::Graph& graph, const QuantConfig& cfg) : QEngine(lower(graph, cfg)) {}

QEngine::QEngine(Program program)
    : program_(std::move(program)), word_bytes_(activation_word_bytes(program_.cfg.fm_bits)) {
    const Program& p = program_;
    // The lowering carries the one scheme validation and the per-op
    // verdicts verify::check_qmodel reports (Q005, Q001/Q002): the engine
    // refuses exactly the programs that report one of them as an error.
    if (!p.valid_scheme())
        throw std::invalid_argument("QEngine: degenerate quantization scheme: " +
                                    p.scheme_errors.front());
    for (const Op& op : p.ops)
        if (op.verdict == Verdict::kRejected)
            throw std::invalid_argument("QEngine: " + op.reason);
    const GridSpec& spec = p.spec;

    // ---- Output value ranges on the FM grid and the certified error
    // bounds: the domains verify::analyze runs over the same program, so
    // the analysis and this plan can never disagree.  Sound for every input
    // inside the declared [input_lo, input_hi] ------------------------------
    const std::vector<GridRange> range = propagate_grid_ranges(p);
    const ErrorAnalysis ea = certify_error(p, propagate_value_intervals(p), range);

    // ---- Engine state per op.  A conv takes the packed int8 GEMM path
    // when its inputs provably span <= 256 grid values (u8 after the
    // zero-point offset), its weights fit the native s16 operand, and the
    // int32 accumulation is provably exact for THIS layer's values:
    // K * max|w| * span < 2^31 — the shared prove_qgemm A004 reports.
    // Weights are prepacked once, here.  The fusions the lowering decided
    // tighten a producer's clamp to its fused ReLU/ReLU6's bounds ---------
    layers_.resize(p.ops.size());
    std::vector<std::string> notes(layers_.size());
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const Op& op = p.ops[i];
        QLayer& l = layers_[i];
        const bool fused = op.fused_act >= 0;
        l.clamp_lo = fused ? 0 : spec.grid_lo;
        l.clamp_hi = fused && p.ops[static_cast<std::size_t>(op.fused_act)].kind == OpKind::kRelu6
                         ? spec.six
                         : spec.grid_hi;
        if (fused) notes[static_cast<std::size_t>(op.fused_act)] = "fused into " + op.name;
        if (op.fused_pool >= 0)
            notes[static_cast<std::size_t>(op.fused_pool)] = "fused into " + op.name;
        if (op.verdict == Verdict::kFp32) {
            l.impl = QImpl::kFp32;
            continue;
        }
        const bool conv = op.kind == OpKind::kConv || op.kind == OpKind::kDwConv;
        if (conv || op.kind == OpKind::kAdd) l.impl = QImpl::kRefInt;
        if (!conv) continue;
        const int shift = op.wfmt.frac_bits;
        if (p.execution == QExecution::kReference) continue;
        if (op.kind == OpKind::kDwConv) {
            // The dwconv runs the int32 vector kernel (core/dwconv.hpp)
            // whenever the 9-tap accumulation plus the bias and the rounding
            // offset provably fits — bit-equal to the int64 loop (exact
            // integer sums), which the oracle keeps.
            const std::int64_t xmax =
                std::max<std::int64_t>(-static_cast<std::int64_t>(spec.grid_lo), spec.grid_hi);
            std::int64_t bmax = 0;
            for (const std::int64_t b : op.qbias) bmax = std::max(bmax, b < 0 ? -b : b);
            l.dw32 = shift >= 1 && shift <= 30 &&
                     9 * op.wmax * xmax + bmax + (std::int64_t{1} << (shift - 1)) <
                         (std::int64_t{1} << 31);
            continue;
        }
        const int K = op.conv.in_ch * op.conv.k * op.conv.k;
        const ConvProof proof = prove_qgemm(K, op.conv.pad, p.cfg.weight_bits, op.wmax,
                                            range[static_cast<std::size_t>(op.inputs[0])]);
        if (!proof.eligible) {
            if (p.execution == QExecution::kInt8)
                throw std::invalid_argument("QEngine: strict int8: " + op.name + ": " +
                                            proof.reason);
            notes[i] = proof.reason;
            continue;
        }
        pack_weights(op, l.apack);
        l.zero_point = proof.zero_point;
        l.bias_corr.resize(static_cast<std::size_t>(op.conv.out_ch));
        for (int oc = 0; oc < op.conv.out_ch; ++oc) {
            const auto uoc = static_cast<std::size_t>(oc);
            l.bias_corr[uoc] = (op.qbias.empty() ? 0 : op.qbias[uoc]) +
                               static_cast<std::int64_t>(proof.zero_point) *
                                   l.apack.rowsum[uoc];
        }
        l.impl = QImpl::kQGemm;
        any_qgemm_ = true;
    }

    // ---- Compilation report --------------------------------------------
    report_.config = p.cfg;
    report_.execution = p.execution;
    report_.fm_format = spec.fm;
    report_.weight_bytes = weight_bytes();
    report_.layers.reserve(layers_.size());
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const Op& op = p.ops[i];
        QLayerReport lr;
        lr.node = static_cast<int>(i);
        lr.name = op.name;
        lr.impl = layers_[i].impl;
        lr.note = notes[i];
        if (!op.qweights.empty()) {
            const GridRange& in = range[static_cast<std::size_t>(op.inputs[0])];
            lr.weight_format = op.wfmt;
            lr.has_weights = true;
            lr.in_lo = in.lo;
            lr.in_hi = in.hi;
        }
        if (op.verdict == Verdict::kInt &&
            (op.kind == OpKind::kConv || op.kind == OpKind::kDwConv)) {
            if (lr.impl == QImpl::kQGemm)
                ++report_.qgemm_layers;
            else
                ++report_.ref_layers;
        }
        if (lr.impl == QImpl::kFp32) ++report_.fp32_layers;
        // Certified |int8 - fp32| bounds (quant/qerror.hpp), computed above.
        lr.error_bound = ea.nodes[i].out.bound;
        lr.error_known = ea.nodes[i].out.known;
        report_.layers.push_back(std::move(lr));
    }
    report_.certified_error_bound = ea.output_bound;
    report_.error_bound_known = ea.output_known;
    report_.dominant_errors = ea.dominant(3);
    report_.error_budget_exceeded =
        p.cfg.error_budget > 0.0f &&
        (!ea.output_known ||
         ea.output_bound > static_cast<double>(p.cfg.error_budget));
}

template <class Word>
QView<Word> QEngine::view(std::size_t i) const {
    return {shapes_[i], reinterpret_cast<Word*>(arena_.get() + offsets_[i])};
}

template <class Word>
void QEngine::execute(std::size_t i, bool allow_qgemm) {
    const Op& op = program_.ops[i];
    const QLayer& l = layers_[i];
    const QView<Word> y = view<Word>(i);
    // An input is read from the view of the op that carries its value.
    const auto input = [this, &op](std::size_t k) {
        return view<Word>(static_cast<std::size_t>(program_.carrier(op.inputs[k])));
    };
    const QView<Word> x = input(0);
    const GridSpec& spec = program_.spec;
    const int fm_bits = spec.fm.total_bits;
    if (op.verdict == Verdict::kFp32) {
        // Dequantize -> float module -> requantize onto the FM grid, so
        // downstream integer layers see grid values as usual.
        Tensor xf(x.shape);
        const float step = static_cast<float>(spec.fm.step());
        for (std::int64_t k = 0; k < x.size(); ++k)
            xf[k] = static_cast<float>(x.data[k]) * step;
        const Tensor yf = op.module->forward(xf);
        if (!(yf.shape() == y.shape))
            throw std::logic_error("QEngine: " + op.name + " returned " + yf.shape().str() +
                                   ", planned " + y.shape.str());
        const double inv_step = 1.0 / spec.fm.step();
        for (std::int64_t k = 0; k < yf.size(); ++k)
            y.data[k] = static_cast<Word>(
                saturate(static_cast<std::int64_t>(std::llround(yf[k] * inv_step)), fm_bits));
        return;
    }
    switch (op.kind) {
        case OpKind::kConv:
        case OpKind::kDwConv:
            execute_conv(op, l, x, y, allow_qgemm);
            return;
        case OpKind::kRelu:
        case OpKind::kRelu6: {
            const std::int32_t hi = op.kind == OpKind::kRelu6 ? spec.six : spec.grid_hi;
            const Word* src = x.data;
            Word* dst = y.data;
            core::parallel_for(0, y.size(), 4096, [=](std::int64_t i0, std::int64_t i1) {
                for (std::int64_t i = i0; i < i1; ++i)
                    dst[i] = static_cast<Word>(std::clamp<std::int32_t>(src[i], 0, hi));
            });
            return;
        }
        case OpKind::kMaxPool: {
            // The vector kernel in both executions: an integer max is exact,
            // so there is no order for a reference run to check.
            const int H = x.shape.h, W = x.shape.w;
            const std::int64_t iplane = static_cast<std::int64_t>(H) * W;
            const std::int64_t oplane = static_cast<std::int64_t>(y.shape.h) * y.shape.w;
            const Word* xd = x.data;
            Word* yd = y.data;
            core::parallel_for(0, static_cast<std::int64_t>(x.shape.n) * x.shape.c, 1,
                               [=](std::int64_t p0, std::int64_t p1) {
                                   for (std::int64_t p = p0; p < p1; ++p)
                                       core::maxpool2x2(xd + p * iplane, H, W, yd + p * oplane);
                               });
            return;
        }
        case OpKind::kReorder: {
            const int b = op.block;
            const int OH = y.shape.h, OW = y.shape.w, H = x.shape.h, W = x.shape.w;
            const Word* xd = x.data;
            Word* yd = y.data;
            core::parallel_for(
                0, static_cast<std::int64_t>(x.shape.n) * x.shape.c, 1,
                [=](std::int64_t p0, std::int64_t p1) {
                    for (std::int64_t p = p0; p < p1; ++p) {
                        const Word* xp = xd + p * static_cast<std::int64_t>(H) * W;
                        Word* yp = yd + p * static_cast<std::int64_t>(b) * b * OH * OW;
                        for (int dy = 0; dy < b; ++dy)
                            for (int dx = 0; dx < b; ++dx) {
                                Word* q = yp + static_cast<std::int64_t>(dy * b + dx) * OH * OW;
                                for (int oh = 0; oh < OH; ++oh) {
                                    const Word* row =
                                        xp + static_cast<std::int64_t>(oh * b + dy) * W + dx;
                                    for (int ow = 0; ow < OW; ++ow)
                                        q[static_cast<std::int64_t>(oh) * OW + ow] =
                                            row[static_cast<std::int64_t>(ow) * b];
                                }
                            }
                    }
                });
            return;
        }
        case OpKind::kConcat: {
            const std::int64_t plane = static_cast<std::int64_t>(x.shape.h) * x.shape.w;
            for (int n = 0; n < y.shape.n; ++n) {
                Word* dst = y.data + static_cast<std::int64_t>(n) * y.shape.c * plane;
                for (std::size_t k = 0; k < op.inputs.size(); ++k) {
                    const QView<Word> part = input(k);
                    const std::int64_t count = static_cast<std::int64_t>(part.shape.c) * plane;
                    dst = std::copy_n(part.data + n * count, count, dst);
                }
            }
            return;
        }
        case OpKind::kAdd: {
            const Word* ad = x.data;
            const Word* bd = input(1).data;
            Word* yd = y.data;
            core::parallel_for(0, y.size(), 4096, [=](std::int64_t i0, std::int64_t i1) {
                for (std::int64_t i = i0; i < i1; ++i)
                    yd[i] = static_cast<Word>(
                        saturate(static_cast<std::int64_t>(ad[i]) + bd[i], fm_bits));
            });
            return;
        }
        default:
            // Inputs are quantized by run(), identities and fused ops never
            // execute, and every other kind runs only as an fp32 island.
            throw std::logic_error("QEngine: no integer executor for " + op.name);
    }
}

template <class Word>
void QEngine::execute_conv(const Op& op, const QLayer& l, const QView<Word>& x,
                           const QView<Word>& y, bool allow_qgemm) {
    // A Linear reads each item's values as one 1x1 column: the NCHW layout
    // already stores them in that order.
    const auto [in_ch, out_ch, k, stride, pad, groups, flatten] = op.conv;
    const Shape xs = flatten ? Shape{x.shape.n, in_ch, 1, 1} : x.shape;
    const int H = xs.h, W = xs.w;
    // A fused pool (pointwise convs only) leaves y at the pooled shape; the
    // conv itself computes H x W planes.
    const bool pool = op.fused_pool >= 0;
    const int OH = pool ? H : y.shape.h, OW = pool ? W : y.shape.w;
    const int shift = op.wfmt.frac_bits;
    const std::int32_t clamp_lo = l.clamp_lo, clamp_hi = l.clamp_hi;
    const Word* xd = x.data;
    const std::int32_t* wd = op.qweights.data();
    const std::int64_t* bd = op.qbias.empty() ? nullptr : op.qbias.data();
    Word* yd = y.data;
    // Every path sums exact integers into disjoint outputs (one (n, oc)
    // plane per iteration, or one qgemm tile), so results are bitwise
    // thread-count invariant.
    if (l.dw32) {
        // The depthwise vector kernel (planned: 9-tap sum, bias and rounding
        // offset provably fit int32), with the same requantization.
        core::parallel_for(
            0, static_cast<std::int64_t>(x.shape.n) * out_ch, 1,
            [=](std::int64_t i0, std::int64_t i1) {
                for (std::int64_t idx = i0; idx < i1; ++idx) {
                    const int c = static_cast<int>(idx % out_ch);
                    const core::QEpilogue rq{bd != nullptr ? bd + c : nullptr, shift, clamp_lo,
                                             clamp_hi};
                    core::dwconv3x3(xd + idx * H * W, wd + static_cast<std::int64_t>(c) * 9, H,
                                    W, rq, yd + idx * H * W);
                }
            });
        return;
    }
    const std::int64_t in_image = static_cast<std::int64_t>(in_ch) * H * W;
    if (l.impl == QImpl::kQGemm && allow_qgemm) {
        // The store-mode GEMM writes clamp(round_shift(bias' + acc, shift))
        // straight from its register tiles as Words: saturation and any
        // fused activation in the same step.
        const core::QEpilogue rq{l.bias_corr.data(), shift, clamp_lo, clamp_hi};
        const core::QPackedA* a = &l.apack;
        const std::int32_t zp = l.zero_point;
        if (k == 1 && stride == 1 && pad == 0) {
            // Pointwise: the fp32 PWConv1's band walk (core::for_each_band),
            // each band lowered in place and a fused pool read from scratch.
            const std::int64_t plane = static_cast<std::int64_t>(H) * W;
            const std::int64_t pooled = static_cast<std::int64_t>(H / 2) * (W / 2);
            core::for_each_band(H, W, pool, x.shape.n, [=](const core::Band& b) {
                const std::int64_t n = b.plane;
                core::qim2col_packed(xd + n * in_image + b.c0, in_ch, b.cols, plane, zp,
                                     tls_panels);
                if (!pool) {
                    core::qgemm_packed(*a, tls_panels, yd + n * out_ch * plane + b.c0, plane, rq);
                    return;
                }
                Word* band = tls_words<Word>(static_cast<std::size_t>(out_ch) * b.cols).data();
                core::qgemm_packed(*a, tls_panels, band, b.cols, rq);
                for (int oc = 0; oc < out_ch; ++oc)
                    core::maxpool2x2(band + static_cast<std::int64_t>(oc) * b.cols, b.rows, W,
                                     yd + (n * out_ch + oc) * pooled + b.out0);
            });
            return;
        }
        // Any other conv lowers each image into the u8 panels for one GEMM.
        const std::int64_t out_image = static_cast<std::int64_t>(out_ch) * OH * OW;
        for (int n = 0; n < x.shape.n; ++n) {
            core::qim2col_packed(xd + n * in_image, in_ch, H, W, k, stride, pad, OH, OW, zp,
                                 tls_panels);
            core::qgemm_packed(*a, tls_panels, yd + n * out_image, rq);
        }
        return;
    }
    // Reference path: direct integer convolution over each output channel's
    // group (a dwconv's holds one input channel).  Bit-true for any input
    // (no range assumptions).  A fused pool pools each plane from scratch.
    const int xc = xs.c;
    const int ipg = in_ch / groups, opg = out_ch / groups;
    const std::int64_t oplane = static_cast<std::int64_t>(OH) * OW;
    const std::int64_t yplane = static_cast<std::int64_t>(y.shape.h) * y.shape.w;
    core::parallel_for(
        0, static_cast<std::int64_t>(x.shape.n) * out_ch, 1,
        [=](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t idx = i0; idx < i1; ++idx) {
                const std::int64_t n = idx / out_ch;
                const int oc = static_cast<int>(idx % out_ch);
                const int ic0 = oc / opg * ipg;
                Word* yp = pool ? tls_words<Word>(static_cast<std::size_t>(oplane)).data()
                                : yd + idx * yplane;
                const std::int32_t* wbase = wd + static_cast<std::int64_t>(oc) * ipg * k * k;
                const std::int64_t b = bd ? bd[oc] : 0;
                for (int yy = 0; yy < OH; ++yy)
                    for (int xx = 0; xx < OW; ++xx) {
                        std::int64_t acc = b;
                        for (int ic = 0; ic < ipg; ++ic) {
                            const Word* xp =
                                xd + (n * xc + ic0 + ic) * static_cast<std::int64_t>(H) * W;
                            const std::int32_t* w =
                                wbase + static_cast<std::int64_t>(ic) * k * k;
                            for (int kh = 0; kh < k; ++kh)
                                for (int kw = 0; kw < k; ++kw) {
                                    const int ih = yy * stride - pad + kh;
                                    const int iw = xx * stride - pad + kw;
                                    if (ih < 0 || ih >= H || iw < 0 || iw >= W)
                                        continue;
                                    acc += static_cast<std::int64_t>(w[kh * k + kw]) *
                                           xp[static_cast<std::int64_t>(ih) * W + iw];
                                }
                        }
                        yp[static_cast<std::int64_t>(yy) * OW + xx] =
                            static_cast<Word>(std::clamp<std::int64_t>(
                                round_shift(acc, shift), clamp_lo, clamp_hi));
                    }
                if (pool) core::maxpool2x2(yp, OH, OW, yd + idx * yplane);
            }
        });
}

void QEngine::ensure_plan(const Shape& input) {
    if (has_plan_ && plan_shape_ == input) return;
    deploy::MemoryPlan plan = quant::plan_activations(program_, input);
    std::vector<Shape> shapes = program_.graph->infer_shapes(input);
    // A conv with a fused pool holds the pool's value, at the pool's shape.
    for (std::size_t i = 0; i < shapes.size(); ++i)
        if (const int pool = program_.ops[i].fused_pool; pool >= 0)
            shapes[i] = shapes[static_cast<std::size_t>(pool)];
    // Every slot at a cache-line offset of the one arena, which grows only
    // when this plan needs more than it holds.
    std::vector<std::int64_t> slot_offset(plan.slots.size());
    std::int64_t bytes = 0;
    for (std::size_t s = 0; s < plan.slots.size(); ++s) {
        slot_offset[s] = bytes;
        bytes += (plan.slots[s].bytes + 63) / 64 * 64;
    }
    offsets_.assign(layers_.size(), -1);
    releases_.assign(layers_.size() + 1, {});
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const deploy::TensorPlan& t = plan.tensors[i];
        if (t.slot < 0) continue;
        // The views cover exactly the planned bytes: a slot never overflows.
        if (t.bytes != shapes[i].count() * word_bytes_)
            throw std::logic_error("QEngine: the plan sizes node " + std::to_string(i) +
                                   " in another word than the engine stores");
        offsets_[i] = slot_offset[static_cast<std::size_t>(t.slot)];
        releases_[std::min<std::size_t>(static_cast<std::size_t>(t.last), layers_.size())]
            .push_back(static_cast<int>(i));
    }
    if (bytes > arena_capacity_) {
        if (arena_) ++alloc_events_;
        arena_.reset();
        arena_ = std::make_unique_for_overwrite<std::byte[]>(static_cast<std::size_t>(bytes));
        arena_capacity_ = bytes;
    }
    plan_ = std::move(plan);
    shapes_ = std::move(shapes);
    plan_shape_ = input;
    has_plan_ = true;
    report_.activation_plan = plan_;
    report_.activation_plan_shape = input;
    report_.has_activation_plan = true;
}

const deploy::MemoryPlan& QEngine::plan_activations(const Shape& input) {
    ensure_plan(input);
    return plan_;
}

Tensor QEngine::run(const Tensor& input) {
    ensure_plan(input.shape());
    // The qgemm weights were packed for the micro-kernel tile active at
    // construction.  After a core::set_simd_level to another tile they are
    // packed again, from the same taps, so every level runs the same
    // integers.
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        QLayer& l = layers_[i];
        if (l.impl == QImpl::kQGemm && l.apack.mr != core::qgemm_mr())
            pack_weights(program_.ops[i], l.apack);
    }
    return word_bytes_ == 2 ? run_words<std::int16_t>(input) : run_words<std::int32_t>(input);
}

template <class Word>
Tensor QEngine::run_words(const Tensor& input) {
    static_assert(sizeof(Word) == 2 || sizeof(Word) == 4, "an activation word");
    live_bytes_ = 0;
    measured_peak_bytes_ = 0;
    // Every view sits in its planned slot; the schedule only accounts the
    // live words, which peak where the plan says they do.
    const auto defined = [this](std::size_t node) {
        live_bytes_ += shapes_[node].count() * static_cast<std::int64_t>(sizeof(Word));
        measured_peak_bytes_ = std::max(measured_peak_bytes_, live_bytes_);
    };
    const auto release_after = [this](std::size_t step) {
        for (const int dead : releases_[step])
            live_bytes_ -= shapes_[static_cast<std::size_t>(dead)].count() *
                           static_cast<std::int64_t>(sizeof(Word));
    };

    // Quantise the input onto the FM grid (element-parallel, exact).
    const QView<Word> in = view<Word>(0);
    const double inv_step = 1.0 / program_.spec.fm.step();
    const int fm_bits = program_.spec.fm.total_bits;
    {
        const float* src = input.data();
        Word* dst = in.data;
        core::parallel_for(0, input.size(), 4096, [=](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i)
                dst[i] = static_cast<Word>(saturate(
                    static_cast<std::int64_t>(std::llround(src[i] * inv_step)), fm_bits));
        });
    }
    defined(0);
    // The int8 plan assumed inputs inside the declared range; verify that
    // at run time and fall back to the reference path for the whole pass if
    // violated — the answer stays bit-true either way.
    bool allow_qgemm = any_qgemm_;
    if (any_qgemm_) {
        const GridSpec& spec = program_.spec;
        std::int32_t mn = spec.in_hi, mx = spec.in_lo;
        for (std::int64_t k = 0; k < in.size(); ++k) {
            mn = std::min<std::int32_t>(mn, in.data[k]);
            mx = std::max<std::int32_t>(mx, in.data[k]);
        }
        if (mn < spec.in_lo || mx > spec.in_hi) {
            if (program_.execution == QExecution::kInt8)
                throw std::invalid_argument(
                    "QEngine: strict int8: input outside the declared "
                    "[input_lo, input_hi] range (widen QuantConfig::with_input_range)");
            allow_qgemm = false;
            ++reference_fallbacks_;
        }
    }
    release_after(0);

    for (std::size_t i = 1; i < layers_.size(); ++i) {
        // A skipped op has no buffer: its carrier's holds the value.
        if (!program_.ops[i].executes()) continue;
        execute<Word>(i, allow_qgemm);
        defined(i);
        release_after(i);
    }

    const QView<Word> out =
        view<Word>(static_cast<std::size_t>(program_.carrier(program_.output)));
    Tensor result(out.shape);
    const float step = static_cast<float>(program_.spec.fm.step());
    {
        const Word* src = out.data;
        float* dst = result.data();
        core::parallel_for(0, out.size(), 4096, [=](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i) dst[i] = static_cast<float>(src[i]) * step;
        });
    }
    // The output survives to the end of the pass.
    release_after(layers_.size());
    return result;
}

float calibrate_fm_abs_max(nn::Graph& graph, const Tensor& calibration) {
    graph.set_training(false);
    (void)graph.forward(calibration);
    // A carrier's tensor ends up holding the value of the last node it
    // carries, which node_output reads without a fused-over refusal.
    std::vector<int> last(graph.node_count(), -1);
    for (int i = 0; i < static_cast<int>(graph.node_count()); ++i)
        last[static_cast<std::size_t>(graph.node_carrier(i))] = i;
    float max_abs = 0.0f;
    for (const int node : last)
        if (node >= 0) max_abs = std::max(max_abs, graph.node_output(node).abs_max());
    return max_abs;
}

std::int64_t QEngine::weight_bytes() const {
    std::int64_t bits = 0;
    for (const Op& op : program_.ops)
        bits += static_cast<std::int64_t>(op.qweights.size()) * program_.cfg.weight_bits;
    return bits / 8;
}

}  // namespace sky::quant
