// sky::Detector — the single entry point for running SkyNet detection.
//
// Before this facade existed every example and service re-assembled the
// same sequence by hand: build_skynet(...) -> (train) ->
// deploy::fold_graph_bn(...) -> quant::QEngine(...) -> net->forward(...) ->
// head.decode(...).  Detector owns that lifecycle:
//
//   Rng rng(42);
//   sky::Detector det({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.35f}, rng);
//   train::train_detector(det.net(), det.head(), dataset, cfg, train_rng);
//   det.fold_bn();                        // optional deployment pass
//   quant::QuantReport rep = det.quantize(       // optional: bit-true int8 path
//       quant::QuantConfig{}.with_bits(9, 11).with_fm_abs_max(8.0f));
//   detect::BBox box = det.detect(image); // single image
//   auto boxes = det.detect_batch(batch); // {n,3,h,w} -> n boxes
//
// detect_batch is bitwise identical to n single detect() calls at any
// SKYNET_THREADS: every kernel processes batch items independently and the
// thread pool never splits a floating-point reduction (docs/KERNELS.md), so
// the serving engine (src/serve) may coalesce requests into arbitrary
// batches without changing any result.
//
// Thread safety: forward passes mutate per-layer caches, so a Detector must
// not run inference from two threads at once.  The serve::Engine funnels
// all inference through one worker for exactly this reason.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "quant/qengine.hpp"
#include "skynet/check_model.hpp"
#include "skynet/skynet_model.hpp"

namespace sky {

/// Which deployment passes have been applied.
enum class DetectorStage { kFloat, kFolded, kQuantized };

[[nodiscard]] const char* detector_stage_name(DetectorStage s);

/// Numeric precision of the active inference datapath.  Surfaced by
/// Detector::precision() and the serve metrics registry so a fleet can tell
/// quantized replicas from float ones.
enum class Precision { kFp32, kInt8 };

[[nodiscard]] const char* precision_name(Precision p);

/// Inference-time failure of the Detector facade — e.g. the head decoder
/// produced no output for the requested image.  Distinct from
/// std::invalid_argument (caller passed a malformed tensor) so services can
/// map the two to different error responses.
class DetectorError : public std::runtime_error {
public:
    explicit DetectorError(const std::string& what) : std::runtime_error(what) {}
};

class Detector {
public:
    /// Build a fresh (untrained) SkyNet of the given configuration.  The
    /// static verifier (verify::check_model) runs on the result; a model
    /// with structural errors throws verify::VerifyError instead of being
    /// handed to inference.
    Detector(const SkyNetConfig& cfg, Rng& rng);
    /// Adopt an already-built (possibly trained) model; also verified.
    explicit Detector(SkyNetModel model);

    /// Re-run the static verifier (see src/verify) at an arbitrary input
    /// shape; quantize() additionally runs verify::check_qmodel.
    [[nodiscard]] verify::Report verify(
        const Shape& input = verify::default_input_shape()) const;

    Detector(Detector&&) = default;
    Detector& operator=(Detector&&) = default;

    // --- Deployment passes (§6.4) -------------------------------------
    /// Fold every BatchNorm into its producing conv (deploy::fold_graph_bn);
    /// returns the number of BN layers folded.  Idempotent.
    int fold_bn();
    /// Compile the bit-true integer engine (quant::QEngine) for the given
    /// scheme; folds BN first if that has not happened yet.  From then on
    /// all inference runs on the integer datapath.  Returns the compilation
    /// report (per-layer plan: qgemm / reference / fp32-fallback).  The
    /// legacy positional spelling `quantize({9, 11, 8.0f})` still compiles:
    /// QuantConfig's leading fields keep that order.
    quant::QuantReport quantize(const quant::QuantConfig& qcfg);
    [[nodiscard]] DetectorStage stage() const { return stage_; }
    /// Datapath the next forward() will use: kInt8 once quantize() has run.
    [[nodiscard]] Precision precision() const {
        return qengine_ ? Precision::kInt8 : Precision::kFp32;
    }
    /// Arena bytes of the static activation plan — what the quantized
    /// datapath reserves for feature maps (serve exports this as the
    /// serve.activation_plan_bytes capacity gauge).  0 before quantize().
    [[nodiscard]] std::int64_t activation_plan_bytes() const {
        return qengine_ && qengine_->report().has_activation_plan
                   ? qengine_->report().activation_plan.arena_bytes
                   : 0;
    }
    /// Certified |int8 - fp32| bound at the graph output (the shared error
    /// domain quant::certify_error, carried by the QuantReport).  0.0 on
    /// the fp32 datapath (exact by definition), -1.0 when quantized but the
    /// bound could not be established (E002 territory).
    [[nodiscard]] double certified_error_bound() const {
        if (!qengine_) return 0.0;
        const quant::QuantReport& r = qengine_->report();
        return r.error_bound_known ? r.certified_error_bound : -1.0;
    }
    /// The compiled integer engine, nullptr before quantize().  Read-only:
    /// plan figures, alloc_events() and measured_peak_bytes() for tests and
    /// benches.
    [[nodiscard]] const quant::QEngine* qengine() const { return qengine_.get(); }

    // --- Inference -----------------------------------------------------
    /// Raw head map {n, 5*anchors, gh, gw} for {n,3,h,w} input.  Forces
    /// eval mode (nn::Module::set_training(false)), which also repacks conv
    /// weights rewritten since the last forward, e.g. by a checkpoint load
    /// into net().
    [[nodiscard]] Tensor forward(const Tensor& images);
    /// Best box of a single image ({1,3,h,w}).
    [[nodiscard]] detect::BBox detect(const Tensor& image);
    /// Best box per batch item; bitwise equal to n detect() calls.
    [[nodiscard]] std::vector<detect::BBox> detect_batch(const Tensor& images);
    /// Multi-object mode: all boxes above `conf_threshold`, NMS-suppressed.
    [[nodiscard]] std::vector<std::vector<detect::Detection>> detect_all(
        const Tensor& images, float conf_threshold = 0.5f, float nms_iou = 0.45f);

    // --- Access for training / passes ----------------------------------
    [[nodiscard]] nn::Graph& net() { return *model_.net; }
    [[nodiscard]] const nn::Graph& net() const { return *model_.net; }
    [[nodiscard]] const detect::YoloHead& head() const { return model_.head; }
    [[nodiscard]] const SkyNetConfig& config() const { return model_.config; }
    [[nodiscard]] SkyNetModel& model() { return model_; }
    [[nodiscard]] const SkyNetModel& model() const { return model_; }

    [[nodiscard]] std::int64_t param_count() const { return model_.param_count(); }
    [[nodiscard]] double param_mb() const { return model_.param_mb(); }

private:
    SkyNetModel model_;
    std::unique_ptr<quant::QEngine> qengine_;
    DetectorStage stage_ = DetectorStage::kFloat;
};

}  // namespace sky
