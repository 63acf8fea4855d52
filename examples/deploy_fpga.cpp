// FPGA deployment study (§6.4): fold a trained SkyNet's BNs, calibrate one
// shared FM range, score the Table 7 schemes on the bit-true integer engine,
// report accuracy vs resources vs throughput on the Ultra96 model, show the
// tiling+batch (Fig. 9) and double-pumped-DSP effects, and finally deploy
// the winning scheme through the Detector facade's quantize pass at that
// same range — so the deployed IoU is the one the ranking scored.
//
//   ./build/examples/deploy_fpga [train_steps]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "data/synth_detection.hpp"
#include "detect/metrics.hpp"
#include "hwsim/fpga_model.hpp"
#include "dacsdc/scheme_select.hpp"
#include "quant/qengine.hpp"
#include "skynet/detector.hpp"
#include "train/trainer.hpp"

int main(int argc, char** argv) {
    using namespace sky;
    const int steps = argc > 1 ? std::atoi(argv[1]) : 200;

    data::DetectionDataset dataset({80, 160, 2, true, 13});
    Rng rng(4);
    Detector det({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.3f}, rng);
    train::DetectTrainConfig tc;
    tc.steps = steps;
    tc.batch = 8;
    Rng train_rng(5);
    const double float_iou =
        train::train_detector(det.net(), det.head(), dataset, tc, train_rng).val_iou;
    std::printf("float32 validation IoU: %.3f\n\n", float_iou);

    const data::DetectionBatch val = dataset.validation(64);
    hwsim::FpgaModel u96(hwsim::ultra96());
    const Shape in{1, 3, 160, 320};

    Rng full_rng(6);
    SkyNetModel full = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 1.0f},
                                    full_rng);

    // Fold once and calibrate one shared FM range: every scheme below, the
    // ranking and the deployed engine use it.
    const int folded = det.fold_bn();
    const float fm_range = quant::calibrate_fm_abs_max(det.net(), val.images);
    std::printf("folded %d BN layers; calibrated FM range +-%.2f\n\n", folded, fm_range);

    // Automated scheme selection (the paper's §6.4.1 decision) scores every
    // scheme on the integer engine; the table lists its scores by scheme.
    dacsdc::SchemeSelectConfig sel;
    sel.full_scale_net = full.net.get();
    sel.fm_abs_max = fm_range;
    const auto ranked = dacsdc::select_scheme(det.net(), det.head(), val, u96, sel);
    std::vector<dacsdc::SchemeEvaluation> by_id = ranked;
    std::sort(by_id.begin(), by_id.end(), [](const auto& a, const auto& b) {
        return a.scheme.id < b.scheme.id;
    });

    std::printf("scheme  FM bits  W bits   IoU    DSP  BRAM18K   FPS\n");
    for (const dacsdc::SchemeEvaluation& ev : by_id) {
        const dacsdc::QuantScheme& s = ev.scheme;
        const hwsim::FpgaEstimate est = u96.estimate(
            *full.net, in, {s.weight_bits, s.fm_bits, false, 4, 1.0});
        std::printf("  %d     %5s   %5s   %.3f  %4d  %6d  %6.2f\n", s.id,
                    s.fm_bits ? std::to_string(s.fm_bits).c_str() : "fp32",
                    s.weight_bits ? std::to_string(s.weight_bits).c_str() : "fp32", ev.iou,
                    est.resources.dsp, est.resources.bram18k, est.fps);
    }

    std::printf("\nFig. 9 tiling+batch: batch_tile 1 vs 4 on scheme 1\n");
    for (int tile : {1, 4}) {
        const hwsim::FpgaEstimate est =
            u96.estimate(*full.net, in, {11, 9, false, tile, 1.0});
        std::printf("  tile %d: %.2f ms, %.2f FPS, BRAM %d\n", tile, est.latency_ms,
                    est.fps, est.resources.bram18k);
    }

    std::printf("\nautomated scheme selection (projected total score, Eq. 5):\n");
    for (const auto& ev : ranked)
        std::printf("  scheme %d (FM%s/W%s): IoU %.3f, %.1f FPS, %.2f W -> score %.3f%s\n",
                    ev.scheme.id,
                    ev.scheme.fm_bits ? std::to_string(ev.scheme.fm_bits).c_str() : "fp",
                    ev.scheme.weight_bits ? std::to_string(ev.scheme.weight_bits).c_str()
                                          : "fp",
                    ev.iou, ev.fps, ev.power_w, ev.total_score,
                    &ev == &ranked.front() ? "   <-- deploy this" : "");

    std::printf("\ndouble-pumped DSP (Table 1, opt. 6):\n");
    for (bool dp : {false, true}) {
        const hwsim::FpgaEstimate est = u96.estimate(*full.net, in, {11, 9, dp, 4, 1.0});
        std::printf("  double_pump=%d: P=%d, DSP %d, %.2f FPS\n", dp, est.parallelism,
                    est.resources.dsp, est.fps);
    }

    // --- Deploy the winner through the Detector facade: compile the
    // bit-true integer engine for the selected scheme at the calibrated
    // range.  From here on det.detect() runs the integer datapath.
    const dacsdc::QuantScheme& win = ranked.front().scheme;
    std::printf("\ndeploying scheme %d via sky::Detector", win.id);
    if (win.fm_bits > 0 && win.weight_bits > 0) {
        const quant::QuantReport qrep =
            det.quantize(quant::QuantConfig{}
                             .with_bits(win.fm_bits, win.weight_bits)
                             .with_fm_abs_max(fm_range)
                             .with_input_range(0.0f, 1.0f));
        std::printf(": compiled QEngine FM%d/W%d\n%s\n", win.fm_bits, win.weight_bits,
                    qrep.summary().c_str());
    } else {
        std::printf(": staying on the float path (winner is fp32)\n");
    }
    std::printf("deployed detector (stage: %s): validation IoU %.3f\n",
                detector_stage_name(det.stage()),
                detect::mean_iou(det.detect_batch(val.images), val.boxes));
    return 0;
}
