// Table 4: the SkyNet ablation — models A/B/C, each with ReLU and ReLU6.
//
// Paper (validation IoU on DAC-SDC, float32):
//   A-ReLU 0.653  A-ReLU6 0.673  B-ReLU 0.685  B-ReLU6 0.703
//   C-ReLU 0.713  C-ReLU6 0.741       (params 1.27 / 1.57 / 1.82 MB)
//
// We train the same six configurations on the synthetic workload (identical
// schedule/seed per model) and report float IoU plus the IoU of the bit-true
// integer engine under coarse 5-bit feature maps — the deployment regime
// where ReLU6's bounded range pays off.  Parameter sizes are computed at
// full width and must match the paper.
#include "bench/harness.hpp"
#include "data/synth_detection.hpp"
#include "deploy/fold_bn.hpp"
#include "detect/metrics.hpp"
#include "quant/qengine.hpp"
#include "skynet/skynet_model.hpp"
#include "train/trainer.hpp"

int main(int argc, char** argv) {
    using namespace sky;
    const int train_steps = bench::steps(220);
    const float width = 0.25f;

    struct Row {
        SkyNetVariant v;
        nn::Act act;
        double paper_iou;
        double paper_mb;
    };
    const Row rows[6] = {
        {SkyNetVariant::kA, nn::Act::kReLU, 0.653, 1.27},
        {SkyNetVariant::kA, nn::Act::kReLU6, 0.673, 1.27},
        {SkyNetVariant::kB, nn::Act::kReLU, 0.685, 1.57},
        {SkyNetVariant::kB, nn::Act::kReLU6, 0.703, 1.57},
        {SkyNetVariant::kC, nn::Act::kReLU, 0.713, 1.82},
        {SkyNetVariant::kC, nn::Act::kReLU6, 0.741, 1.82},
    };

    std::printf("=== Table 4: SkyNet ablation (%d train steps, width %.2f) ===\n\n",
                train_steps, width);
    std::printf("%-18s %10s %10s | %9s %9s %9s\n", "model", "paper MB", "ours MB",
                "paper IoU", "IoU fp32", "IoU q5");
    bench::rule();

    for (const Row& r : rows) {
        // Full-width twin for the parameter size column.
        Rng size_rng(1);
        const SkyNetModel full = build_skynet({r.v, r.act, 2, 1.0f}, size_rng);

        // Identical init/data/training streams for every configuration.
        Rng rng(42);
        SkyNetModel model = build_skynet({r.v, r.act, 2, width}, rng);
        data::DetectionDataset ds({48, 96, 2, true, 7});
        train::DetectTrainConfig cfg;
        cfg.steps = train_steps;
        cfg.batch = 8;
        cfg.val_images = 96;
        Rng train_rng(9);
        const double iou =
            train::train_detector(*model.net, model.head, ds, cfg, train_rng).val_iou;
        const data::DetectionBatch val = ds.validation(96);
        // Deployment-style quantised evaluation on the folded graph: a single
        // coarse 5-bit FM format with range +-8 shared by the whole network,
        // input image included; ReLU6 activations always fit, unbounded
        // ReLU activations clip and lose resolution.
        deploy::fold_graph_bn(*model.net);
        quant::QEngine q5(*model.net,
                          quant::QuantConfig{}.with_bits(5, 11).with_fm_abs_max(8.0f));
        const double iou_q =
            detect::mean_iou(model.head.decode(q5.run(val.images)), val.boxes);
        std::printf("%-18s %10.2f %10.2f | %9.3f %9.3f %9.3f\n",
                    model.config.name().c_str(), r.paper_mb, full.param_mb(), r.paper_iou,
                    iou, iou_q);
        bench::record("table4." + model.config.name() + ".param_mb", full.param_mb(), "MB",
                      bench::Direction::kLowerIsBetter);
        bench::record("table4." + model.config.name() + ".iou", iou, "iou",
                      bench::Direction::kHigherIsBetter);
        bench::record("table4." + model.config.name() + ".iou_q5", iou_q, "iou",
                      bench::Direction::kHigherIsBetter);
    }
    std::printf(
        "\nexpected shapes (stable at SKYNET_BENCH_SCALE >= 1): the bypass models\n"
        "(B/C) overtake A once training is adequate — at short budgets the extra\n"
        "parameters of the bypass head lag the plain chain; ReLU6 >= ReLU under\n"
        "the coarse quantised-FM column (bounded dynamic range).  Parameter\n"
        "sizes are budget-independent and must match the paper (1.27/1.57/1.82 MB).\n");
    return bench::finish(argc, argv);
}
