// Deployment scheme selection (§6.4.1): "Since accuracy has higher weight
// in the total score calculation (Eq. 5), we pick scheme 1 as the
// quantization design for SkyNet."
//
// This module automates that decision: for every candidate quantisation
// scheme it measures the IoU of the bit-true integer engine (quant::QEngine)
// on a validation set, estimates FPS / power on the target FPGA, projects
// the contest total score against a reference field of competitor entries,
// and returns the ranking.  It is the glue between the quant, hwsim and
// scoring subsystems — exactly the loop a DAC-SDC team runs the night
// before the deadline.
#pragma once

#include "dacsdc/scoring.hpp"
#include "data/synth_detection.hpp"
#include "detect/yolo_head.hpp"
#include "hwsim/fpga_model.hpp"
#include "nn/graph.hpp"

namespace sky::dacsdc {

/// One FPGA deployment scheme of Table 7.
struct QuantScheme {
    int id;
    int fm_bits;      ///< 0 = float32
    int weight_bits;  ///< 0 = float32
};
/// The five schemes of Table 7; scheme 0 is the float baseline.
[[nodiscard]] std::vector<QuantScheme> table7_schemes();

struct SchemeEvaluation {
    QuantScheme scheme;
    double iou = 0.0;
    double fps = 0.0;
    double power_w = 0.0;
    double total_score = 0.0;  ///< projected TS against the reference field
};

struct SchemeSelectConfig {
    /// The trained model evaluated at small scale; the hardware estimate
    /// uses this full-scale twin (nullptr: use the same net for both).
    nn::Module* full_scale_net = nullptr;
    Shape hw_input{1, 3, 160, 320};
    int batch_tile = 4;
    /// Reference competitor entries for the score projection (paper
    /// Table 6 values by default, set in scheme_select.cpp).
    std::vector<Entry> reference_field;
    TrackConfig track{2.0, 50000};  ///< FPGA track scoring
    float fm_abs_max = 0.0f;        ///< 0: calibrate from the validation set
};

/// Evaluate all Table 7 schemes on the BN-folded `net` and return them
/// ranked by projected total score (best first).  Scheme 0 scores the fp32
/// forward; every other scheme scores QEngine(net, QuantConfig{}.with_bits(
/// fm, w).with_fm_abs_max(range)) — what Detector::quantize deploys.  `net`
/// is left in eval mode with its float parameters untouched.
[[nodiscard]] std::vector<SchemeEvaluation> select_scheme(
    nn::Graph& net, const detect::YoloHead& head, const data::DetectionBatch& val,
    const hwsim::FpgaModel& fpga, SchemeSelectConfig cfg = SchemeSelectConfig{});

}  // namespace sky::dacsdc
