// Figure 2: the motivation studies behind the bottom-up flow.
//
// (a) AlexNet accuracy under parameter vs feature-map quantisation.  The
//     paper compresses parameters 22x (237.9 MB -> 10.8 MB) and FMs 16x
//     (15.7 MB -> 0.98 MB) and finds accuracy more sensitive to FM
//     precision.  We train the width-scaled AlexNet proxy on the synthetic
//     classification task, fold its BNs, sweep both axes at equal
//     bit-widths on the bit-true integer engine (quant::QEngine), and also
//     report the *full-size* AlexNet storage at each width (computed from
//     the exact architecture).  The engine has no float axis: the axis not
//     being swept stays at 16 bits, a stand-in for float.
// (b) FPGA BRAM usage vs input resize factor for FM12..FM16 quantisation.
// (c) DSP count vs (weight bits, FM bits) for a 128-MAC accelerator IP.
#include "backbones/registry.hpp"
#include "bench/harness.hpp"
#include "deploy/fold_bn.hpp"
#include "hwsim/fpga_model.hpp"
#include "quant/qengine.hpp"
#include "skynet/skynet_model.hpp"
#include "train/trainer.hpp"

int main(int argc, char** argv) {
    using namespace sky;
    const int train_steps = bench::steps(260);

    // ---------- (a) parameter vs FM quantisation on AlexNet ----------
    std::printf("=== Fig. 2a: AlexNet under parameter vs FM quantisation ===\n\n");
    const std::int64_t ref_params = backbones::alexnet_reference_params();
    std::printf("full AlexNet storage: float32 %.1f MB", ref_params * 4.0 / 1e6);
    std::printf("  (paper: 237.9 MB; FC layers hold %.0f%% of parameters)\n\n",
                100.0 * backbones::alexnet_reference_params(true) / ref_params);

    Rng rng(3);
    std::unique_ptr<nn::Graph> net = backbones::build_alexnet_classifier(10, 32, 0.25f, rng);
    data::ClassificationDataset ds({32, 10, 0.25f, 0.18f, 11});
    train::ClassifyTrainConfig cfg;
    cfg.steps = train_steps;
    cfg.batch = 16;
    cfg.val_images = 256;
    const double float_acc = train::train_classifier(*net, ds, cfg).val_accuracy;
    std::printf("float32 validation accuracy: %.3f\n\n", float_acc);
    bench::record("fig2a.float_accuracy", float_acc, "acc", bench::Direction::kHigherIsBetter);

    const data::ClassificationBatch val = ds.validation(256);
    deploy::fold_graph_bn(*net);
    // Offline calibration: the IP-shared FPGA design uses one FM format for
    // the whole network, so the range must cover the worst-case activation.
    const float fm_range = quant::calibrate_fm_abs_max(*net, val.images);
    const auto accuracy = [&](int fm_bits, int weight_bits) {
        quant::QEngine engine(*net, quant::QuantConfig{}
                                        .with_bits(fm_bits, weight_bits)
                                        .with_fm_abs_max(fm_range));
        return train::argmax_accuracy(engine.run(val.images), val.labels);
    };
    std::printf("calibrated FM range: +-%.1f (single shared format); the axis not\n"
                "swept stays at 16 bits\n\n",
                fm_range);
    std::printf("%6s | %-26s | %-26s\n", "", "parameter quantisation", "feature-map quantisation");
    std::printf("%6s | %9s %14s | %9s %14s\n", "bits", "accuracy", "model size MB",
                "accuracy", "FM size ratio");
    bench::rule();
    for (int bits : {12, 8, 6, 5, 4, 3}) {
        const double acc_w = accuracy(16, bits);
        const double acc_f = accuracy(bits, 16);
        std::printf("%6d | %9.3f %13.1f | %9.3f %13.1fx\n", bits, acc_w,
                    ref_params * bits / 8.0 / 1e6, acc_f, 32.0 / bits);
        bench::record("fig2a.acc_param_q" + std::to_string(bits), acc_w, "acc",
                      bench::Direction::kHigherIsBetter);
        bench::record("fig2a.acc_fm_q" + std::to_string(bits), acc_f, "acc",
                      bench::Direction::kHigherIsBetter);
    }
    std::printf("\nshape check: accuracy degrades faster along the FM axis than the\n"
                "parameter axis at matching bit-widths (the paper's Fig. 2a message).\n\n");

    // ---------- (b) BRAM vs resize factor ----------
    std::printf("=== Fig. 2b: BRAM usage vs input resize factor (SkyNet on Ultra96) ===\n\n");
    hwsim::FpgaModel u96(hwsim::ultra96());
    Rng mrng(4);
    SkyNetModel full = build_skynet({SkyNetVariant::kA, nn::Act::kReLU6, 2, 1.0f}, mrng);
    std::vector<nn::LayerInfo> layers;
    full.net->enumerate({1, 3, 160, 320}, layers);

    std::printf("%8s", "resize");
    for (int fm = 12; fm <= 16; ++fm) std::printf("   FM%-4d", fm);
    std::printf("\n");
    bench::rule();
    for (double r : {1.00, 0.95, 0.90, 0.85, 0.82, 0.78}) {
        std::printf("%8.2f", r);
        for (int fm = 12; fm <= 16; ++fm) {
            hwsim::FpgaBuildConfig cfg2;
            cfg2.fm_bits = fm;
            cfg2.weight_bits = 11;
            cfg2.resize_factor = r;
            cfg2.batch_tile = 1;
            cfg2.allow_fm_tiling = false;  // report the raw buffer need
            std::printf("   %6d",
                        u96.estimate_layers(layers, cfg2).resources.bram18k);
        }
        std::printf("\n");
    }
    std::printf("\nshape check: BRAM rises with FM bit-width and falls with the resize\n"
                "factor; the drop below ~0.9 halves the feature-map buffer (paper 2b).\n\n");

    // ---------- (c) DSP vs quantisation ----------
    std::printf("=== Fig. 2c: DSP count of a 128-MAC IP vs (W, FM) bit-widths ===\n\n");
    std::printf("%8s", "");
    for (int fm = 12; fm <= 18; fm += 2) std::printf("  FM%-4d", fm);
    std::printf("\n");
    bench::rule(' ', 0);
    for (int w = 18; w >= 10; w -= 1) {
        std::printf("W%-7d", w);
        for (int fm = 12; fm <= 18; fm += 2)
            std::printf("  %6d", hwsim::FpgaModel::dsp_count(128, w, fm));
        std::printf("\n");
    }
    std::printf("\nshape check: W15/FM16 needs 128 DSPs, W14/FM16 needs 64 (two products\n"
                "pack into one DSP once w+fm <= 30), matching the paper's example.\n");
    bench::record("fig2c.dsp_w15_fm16", hwsim::FpgaModel::dsp_count(128, 15, 16), "count");
    bench::record("fig2c.dsp_w14_fm16", hwsim::FpgaModel::dsp_count(128, 14, 16), "count");
    return bench::finish(argc, argv);
}
