// Bit-true integer inference engine — the FPGA datapath of §6.4 executed in
// software with genuine integer arithmetic, not float emulation.
//
// A BN-folded Graph (see deploy::fold_graph_bn), lowered once into a typed
// op program (quant/lower.hpp), is compiled into integer
// form: every feature map lives in ONE shared fixed-point format (fm_bits
// total, fm_frac fractional — the single-buffer constraint of the IP-shared
// accelerator), every layer's weights are quantised per-layer to
// weight_bits, convolutions accumulate exactly and requantise back to the
// FM grid with round-to-nearest and saturation.  ReLU6's clip constant is
// exact on the grid.
//
// Execution planning (docs/QUANTIZATION.md): compilation propagates the
// declared input value range through the graph on the FM grid; a
// convolution whose input span provably fits 8 unsigned bits runs on the
// packed u8 x s16 GEMM engine (core/qgemm.hpp) with the zero-point
// correction folded into its bias — weights up to 15 bits are native s16
// taps, one GEMM pass whose store requantizes each register tile onto the
// grid; a pointwise one runs band-major, and a MaxPool2 the lowering folded
// into it (Op::fused_pool) pools each band from scratch, as the fp32
// PWConv1 does.  Everything else runs the scalar reference
// interpreter, which is also the correctness oracle: both paths compute the
// SAME integers (the int8 path is an exact refactoring of the reference
// accumulation, pinned by tests/test_qgemm.cpp), and a run whose input
// leaves the declared range falls back to the reference path wholesale, so
// run() is bit-true for every input.  run() executes the ops the lowering
// marks as executing: ReLU/ReLU6 nodes that directly follow a convolution
// fuse into its requantization clamp (provably equal to
// clamp-after-saturate on the grid), identities are never executed.
//
// Activations are stored as 16-bit words when fm_bits <= 16 and as int32
// words for 17-24-bit formats (quant::activation_word_bytes decides, for
// the engine and the planner alike).  Every node's output is a view into
// its planned slot of one arena allocated per plan: no op resizes or
// zero-fills a buffer.
//
// Determinism: integer arithmetic end to end — results are bitwise
// invariant to thread count, SIMD level, and batch composition, which is
// the contract sky::serve's batch coalescing relies on.
#pragma once

#include <cstddef>
#include <memory>

#include "core/qgemm.hpp"
#include "deploy/memory_plan.hpp"
#include "nn/graph.hpp"
#include "quant/fixed_point.hpp"
#include "quant/lower.hpp"
#include "quant/qconfig.hpp"
#include "quant/qreport.hpp"

namespace sky::quant {

/// One node's activation: its shape and its words in the engine's arena
/// slot.  Two members, a shape and a pointer, so a kernel body that
/// captures a view by copy copies no activation.
template <class Word>
struct QView {
    Shape shape;
    Word* data = nullptr;
    [[nodiscard]] std::int64_t size() const { return shape.count(); }
};

class QEngine {
public:
    /// Compile `graph` (BN layers must already be folded; the graph should
    /// be in eval mode — Detector::quantize guarantees both).  Throws
    /// std::invalid_argument on a degenerate scheme (Q005) or a layer the
    /// lowering rejects (Q001, or Q002 with cfg.fp32_fallback off) — exactly
    /// the errors verify::check_qmodel reports — or, under QExecution::kInt8,
    /// if any conv cannot run on the packed int8 path.  The graph is
    /// retained for fp32-fallback layers and shape inference and must
    /// outlive the engine.
    QEngine(nn::Graph& graph, const QuantConfig& cfg);
    /// Compile an already-lowered program (quant::lower of a graph the
    /// caller holds mutably).  The engine keeps the program and runs its
    /// executing ops on the program's own integer weights.
    explicit QEngine(Program program);

    /// Quantise `input` to the FM grid, run the integer pass, return the
    /// output dequantised to float (every value lies on the FM grid).
    /// Weights packed for another micro-kernel tile (a core::set_simd_level
    /// since the last run) are packed again first.
    [[nodiscard]] Tensor run(const Tensor& input);

    [[nodiscard]] const FixedPointFormat& fm_format() const { return program_.spec.fm; }
    [[nodiscard]] const QuantConfig& config() const { return program_.cfg; }
    /// Resolved execution mode (SKYNET_QENGINE env applied).
    [[nodiscard]] QExecution execution() const { return program_.execution; }
    /// Per-layer compilation plan — what Detector::quantize returns.
    [[nodiscard]] const QuantReport& report() const { return report_; }
    /// Total integer-weight bytes (the deployed model size).
    [[nodiscard]] std::int64_t weight_bytes() const;

    /// Static activation memory plan (quant::plan_activations over the
    /// program — the plan verify::analyze reports) for inputs of `input`
    /// shape.  Computed lazily and cached — run() replans only when the
    /// input shape changes — and mirrored into report().activation_plan.
    /// run() executes out of exactly this plan's arena slots; an input the
    /// program cannot run (wrong channel count, a map that collapses)
    /// throws std::invalid_argument here, before any kernel runs.
    const deploy::MemoryPlan& plan_activations(const Shape& input);
    /// Times the arena had to grow: a plan (a new input shape) that needed
    /// more bytes than the arena held.  The first allocation is provisioning,
    /// not growth, so a fixed input shape reads 0 from the first run on —
    /// the allocation-free steady state a serving replica reaches.
    [[nodiscard]] std::int64_t alloc_events() const { return alloc_events_; }
    /// Peak live activation bytes, in words of activation_word_bytes(),
    /// during the last run() — equals plan_activations(shape).peak_bytes
    /// exactly (the plan is an exact static model of run()'s define/release
    /// schedule, pinned by tests/test_verify.cpp).
    [[nodiscard]] std::int64_t measured_peak_bytes() const {
        return measured_peak_bytes_;
    }
    /// run() passes whose input left the declared [input_lo, input_hi]
    /// range and so ran every conv on the scalar reference path instead of
    /// the packed qgemm plan (the answer stays bit-true; only the speed
    /// drops).  Stays 0 for an engine with no qgemm layer.
    [[nodiscard]] std::int64_t reference_fallbacks() const { return reference_fallbacks_; }

private:
    /// Engine state of one program op; its parameters and integer weights
    /// stay in the op.
    struct QLayer {
        QImpl impl = QImpl::kMemory;
        // Requantization clamp: [grid_lo, grid_hi] by default, tightened by a
        // fused ReLU/ReLU6 (equal to activation-after-saturate on the grid).
        std::int32_t clamp_lo = 0, clamp_hi = 0;
        // Packed int8 plan (impl == kQGemm).
        core::QPackedA apack;                 // prepacked s16 weight panels
        std::vector<std::int64_t> bias_corr;  // bias + zero_point * rowsum(w)
        std::int32_t zero_point = 0;          // u8 operand stores x - zero_point
        bool dw32 = false;  // dwconv can accumulate in int32 (vector fast path)
    };

    /// The passes over the arena, one template over the stored word
    /// (int16 or int32, activation_word_bytes of the FM format).
    template <class Word>
    Tensor run_words(const Tensor& input);
    /// Run op `i` (an executing op) into its arena view; inputs are read
    /// from their carriers' views.
    template <class Word>
    void execute(std::size_t i, bool allow_qgemm);
    template <class Word>
    void execute_conv(const Op& op, const QLayer& l, const QView<Word>& x,
                      const QView<Word>& y, bool allow_qgemm);
    /// Node `i`'s view: its planned shape at its slot's offset.
    template <class Word>
    [[nodiscard]] QView<Word> view(std::size_t i) const;

    /// (Re)compute the liveness plan, the views and the release schedule
    /// when the input shape changed since the last run; grow the arena when
    /// the new plan needs more bytes than it holds.
    void ensure_plan(const Shape& input);

    Program program_;  // the ops run() executes, with their integer weights
    bool any_qgemm_ = false;
    int word_bytes_ = 4;  // activation_word_bytes(cfg.fm_bits)
    std::vector<QLayer> layers_;  // one per op
    QuantReport report_;
    // Arena execution state: one allocation holds every slot of the plan,
    // never value-initialized (every executor writes its whole output
    // before anything reads it).  A node's view points at its slot's
    // offset; the schedule below only accounts the live bytes.
    deploy::MemoryPlan plan_;
    Shape plan_shape_{};
    bool has_plan_ = false;
    std::unique_ptr<std::byte[]> arena_;
    std::int64_t arena_capacity_ = 0;
    std::vector<Shape> shapes_;               // per node, the plan's shape
    std::vector<std::int64_t> offsets_;       // per node: its slot's byte offset
    std::vector<std::vector<int>> releases_;  // nodes dying after step i
    std::int64_t alloc_events_ = 0;
    std::int64_t reference_fallbacks_ = 0;
    std::int64_t live_bytes_ = 0;
    std::int64_t measured_peak_bytes_ = 0;
};

/// The FM range a scheme's shared format must cover: the largest |value|
/// over every tensor one eval forward of `graph` (BN-folded, as QEngine
/// compiles it) materializes on `calibration` — one tensor per carrier
/// (nn::Graph::node_carrier), the input included.  Pass the result to
/// QuantConfig::with_fm_abs_max.
[[nodiscard]] float calibrate_fm_abs_max(nn::Graph& graph, const Tensor& calibration);

}  // namespace sky::quant
