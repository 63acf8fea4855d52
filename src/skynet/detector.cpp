#include "skynet/detector.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "deploy/fold_bn.hpp"
#include "quant/lower.hpp"
#include "skynet/check_model.hpp"
#include "verify/check_qmodel.hpp"

namespace sky {

const char* precision_name(Precision p) {
    switch (p) {
        case Precision::kFp32: return "fp32";
        case Precision::kInt8: return "int8";
    }
    return "?";
}

const char* detector_stage_name(DetectorStage s) {
    switch (s) {
        case DetectorStage::kFloat: return "float32";
        case DetectorStage::kFolded: return "bn-folded";
        case DetectorStage::kQuantized: return "quantized";
    }
    return "?";
}

Detector::Detector(const SkyNetConfig& cfg, Rng& rng) : model_(build_skynet(cfg, rng)) {
    verify::enforce(verify());
    model_.net->set_training(false);  // packs every conv's weights
}

Detector::Detector(SkyNetModel model) : model_(std::move(model)) {
    if (!model_.net) throw std::invalid_argument("Detector: model has no network");
    verify::enforce(verify());
    model_.net->set_training(false);
}

verify::Report Detector::verify(const Shape& input) const {
    return verify::check_model(model_, input);
}

int Detector::fold_bn() {
    if (stage_ != DetectorStage::kFloat) return 0;
    const int folded = deploy::fold_graph_bn(*model_.net);
    stage_ = DetectorStage::kFolded;
    model_.net->set_training(false);  // repacks the weights folding rewrote
    return folded;
}

quant::QuantReport Detector::quantize(const quant::QuantConfig& qcfg) {
    if (stage_ == DetectorStage::kQuantized)
        throw std::logic_error("Detector: already quantized");
    fold_bn();  // QEngine requires a BN-free graph
    model_.net->set_training(false);
    // Lower once: the checker reads the program's verdicts, the engine
    // compiles the same program (and takes its integer weights).
    quant::Program program = quant::lower(*model_.net, qcfg);
    verify::enforce(verify::check_qmodel(program));
    // The engine runs these convs on the program's own taps, so their fp32
    // weight packs are never read again.  fp32 islands (kFp32 ops, kBlock
    // bodies) run their modules and keep their packs.
    std::vector<nn::ConvLayer*> integer_convs;
    for (const quant::Op& op : program.ops)
        if (op.verdict == quant::Verdict::kInt && op.kind == quant::OpKind::kConv)
            if (auto* conv = dynamic_cast<nn::ConvLayer*>(op.module)) integer_convs.push_back(conv);
    qengine_ = std::make_unique<quant::QEngine>(std::move(program));
    // Certified error budget, strict mode: reject the scheme before it can
    // serve a single image (the report carries the same verdict either way).
    if (qcfg.strict_error_budget && qcfg.error_budget > 0.0f &&
        qengine_->report().error_budget_exceeded) {
        const quant::QuantReport& rep = qengine_->report();
        verify::Report r;
        r.error("E001", rep.layers.empty() ? 0 : rep.layers.back().node,
                rep.error_bound_known
                    ? "certified |int8 - fp32| bound " +
                          std::to_string(rep.certified_error_bound) +
                          " exceeds the error budget " +
                          std::to_string(qcfg.error_budget)
                    : std::string("certified error bound could not be established "
                                  "(error tracking lost)"),
                "add fractional bits, shrink fm_abs_max, relax the budget, or "
                "drop strict_error_budget");
        qengine_.reset();
        throw verify::VerifyError(std::move(r));
    }
    // Static activation plan at the canonical input shape so the report
    // (and serve's capacity gauge) carries the arena figures up front;
    // run() replans only if fed a different shape.
    qengine_->plan_activations(verify::default_input_shape());
    stage_ = DetectorStage::kQuantized;
    for (nn::ConvLayer* conv : integer_convs) conv->drop_weight_pack();
    return qengine_->report();
}

Tensor Detector::forward(const Tensor& images) {
    const Shape& s = images.shape();
    if (s.c != 3)
        throw std::invalid_argument("Detector::forward: expected {n,3,h,w}, got " +
                                    s.str());
    if (qengine_) return qengine_->run(images);
    model_.net->set_training(false);
    return model_.net->forward(images);
}

detect::BBox Detector::detect(const Tensor& image) {
    if (image.shape().n != 1)
        throw std::invalid_argument("Detector::detect: expected a single image, got " +
                                    image.shape().str() + " (use detect_batch)");
    const Tensor map = forward(image);
    const std::vector<detect::BBox> boxes = model_.head.decode(map);
    if (boxes.empty())
        throw DetectorError(
            "Detector::detect: head decoder returned no box for a 1-image batch "
            "(head map " + map.shape().str() + ")");
    return boxes[0];
}

std::vector<detect::BBox> Detector::detect_batch(const Tensor& images) {
    return model_.head.decode(forward(images));
}

std::vector<std::vector<detect::Detection>> Detector::detect_all(const Tensor& images,
                                                                 float conf_threshold,
                                                                 float nms_iou) {
    return model_.head.decode_all(forward(images), conf_threshold, nms_iou);
}

}  // namespace sky
