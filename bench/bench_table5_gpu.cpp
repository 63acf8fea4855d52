// Table 5: DAC-SDC GPU-track final results (TX2, hidden test set).
//
// Paper rows (IoU / FPS / W / score): SkyNet 0.731/67.33/13.50/1.504,
// Thinker 0.713/28.79/8.55/1.442, DeepZS 0.723/26.37/15.12/1.422,
// ICT-CAS 0.698/24.55/12.58/1.373, DeepZ 0.691/25.30/13.27/1.359,
// SDU-Legend 0.685/23.64/10.31/1.358.
//
// We rebuild each entry's reference architecture (Table 1), estimate FPS
// and power on the calibrated TX2 model (with each team's published
// optimisations: fp16/TensorRT, batching, system pipelining), and rescore
// the whole track with Eq. 2-5.  Hidden-set IoU values are quoted from the
// paper (competitors' trained weights are unobtainable); the regenerated
// columns are FPS, power, energy score and total score.
#include "backbones/registry.hpp"
#include "bench/harness.hpp"
#include "nn/pwconv.hpp"
#include "dacsdc/scoring.hpp"
#include "hwsim/energy.hpp"
#include "hwsim/gpu_model.hpp"
#include "hwsim/pipeline.hpp"
#include "skynet/skynet_model.hpp"

int main(int argc, char** argv) {
    using namespace sky;
    hwsim::GpuModel tx2(hwsim::tx2());
    const Shape in{1, 3, 160, 320};

    struct EntrySpec {
        const char* team;
        const char* backbone;  // registry name or "skynet"
        const char* head;      // "yolo" (1x1) or "retina" (conv tower)
        float width;  // < 1.0 models the entry's published pruning/resizing
        bool fp16;
        int batch;
        bool pipelined;  // overlapped system stages (Fig. 10)
        double paper_iou, paper_fps, paper_w, paper_score;
    };
    const EntrySpec specs[6] = {
        {"SkyNet (ours)", "skynet", "yolo", 1.0f, false, 4, true,
         0.731, 67.33, 13.50, 1.504},
        {"Thinker", "shufflenet", "retina", 0.8f, true, 2, true,
         0.713, 28.79, 8.55, 1.442},
        {"DeepZS", "tinyyolo", "yolo", 0.7f, false, 2, true,
         0.723, 26.37, 15.12, 1.422},
        {"ICT-CAS", "tinyyolo", "yolo", 0.7f, true, 1, false,
         0.698, 24.55, 12.58, 1.373},
        {"DeepZ", "tinyyolo", "yolo", 0.7f, false, 2, false,
         0.691, 25.30, 13.27, 1.359},
        {"SDU-Legend", "tinyyolo", "yolo", 0.9f, false, 1, false,
         0.685, 23.64, 10.31, 1.358},
    };

    std::vector<dacsdc::Entry> entries;
    std::printf("=== Table 5: DAC-SDC GPU track on the TX2 model ===\n\n");
    std::printf("%-14s | %6s %6s %6s | %7s %7s | %6s %6s\n", "team", "GMACs", "inf ms",
                "spdup", "ppr FPS", "our FPS", "ppr W", "our W");
    bench::rule(' ', 0);
    bench::rule();
    for (const EntrySpec& s : specs) {
        Rng rng(1);
        nn::ModulePtr net;
        if (std::string(s.backbone) == "skynet") {
            net = std::move(
                build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, s.width}, rng).net);
        } else {
            backbones::Backbone bb = backbones::build_by_name(s.backbone, s.width, rng);
            if (std::string(s.head) == "retina") {
                // RetinaNet-style head: a 4-deep 3x3 conv tower at 256
                // channels before the box predictor — this is most of
                // Thinker's compute.
                auto g = std::make_unique<nn::Graph>();
                const int feat = bb.out_channels;
                g->add(std::move(bb.net));
                backbones::conv_bn_act(*g, feat, 256, 3, 1, 1, nn::Act::kReLU, rng);
                for (int t = 0; t < 3; ++t)
                    backbones::conv_bn_act(*g, 256, 256, 3, 1, 1, nn::Act::kReLU, rng);
                g->emplace<nn::PWConv1>(256, 10, /*bias=*/true, rng);
                net = std::move(g);
            } else {
                net = backbones::make_detector(std::move(bb), 2, rng);
            }
        }
        const hwsim::GpuEstimate est = tx2.estimate(*net, in, {s.batch, s.fp16});
        // Serial-stage costs profiled per batch (L4T profiler in the paper);
        // the CPU-side stages parallelise over the TX2's four big cores once
        // the pipeline is multithreaded.
        std::vector<hwsim::PipelineStage> stages = {
            {"fetch", 9.0 * s.batch},
            {"pre-process", 11.5 * s.batch},
            {"inference", est.latency_ms},
            {"post-process", 8.5 * s.batch}};
        double fps, speedup;
        if (s.pipelined) {
            double serial = 0.0;
            for (const auto& st : stages) serial += st.latency_ms;
            stages = hwsim::merge_stages(stages, 0, 2);
            stages[0].latency_ms /= 4.0;  // multithreaded fetch+pre-process
            stages[2].latency_ms /= 4.0;  // multithreaded post-process
            const hwsim::PipelineReport rep = hwsim::simulate_pipeline(stages, s.batch, 400);
            fps = rep.pipelined_fps;
            speedup = serial / rep.pipelined_ms_per_batch;
        } else {
            double total = 0.0;
            for (const auto& st : stages) total += st.latency_ms;
            fps = 1e3 * s.batch / total;
            speedup = 1.0;
        }
        const hwsim::EnergyEstimate en =
            hwsim::estimate_energy(tx2.profile(), est.utilization, fps);
        entries.push_back({s.team, s.paper_iou, fps, en.power_w});
        std::printf("%-14s | %6.2f %6.1f %6.2f | %7.2f %7.1f | %6.2f %6.2f\n", s.team,
                    net->macs(in) / 1e9, est.latency_ms, speedup, s.paper_fps, fps,
                    s.paper_w, en.power_w);
    }

    std::printf("\n--- regenerated leaderboard (Eq. 2-5, x = 10, 50k images) ---\n");
    std::printf("%-14s %6s %8s %7s %7s %8s | %11s\n", "team", "IoU", "FPS", "W", "ES",
                "total", "paper total");
    bench::rule();
    const auto scored = dacsdc::score_track(entries, {10.0, 50000});
    for (const auto& sc : scored) {
        double paper_total = 0.0;
        for (const EntrySpec& s : specs)
            if (sc.entry.team == s.team) paper_total = s.paper_score;
        std::printf("%-14s %6.3f %8.2f %7.2f %7.3f %8.3f | %11.3f\n",
                    sc.entry.team.c_str(), sc.entry.iou, sc.entry.fps, sc.entry.power_w,
                    sc.energy_score, sc.total_score, paper_total);
        bench::record("table5." + sc.entry.team + ".fps", sc.entry.fps, "fps");
        bench::record("table5." + sc.entry.team + ".total_score", sc.total_score, "score",
                      bench::Direction::kHigherIsBetter);
    }
    std::printf("\nshape check: SkyNet has the highest FPS (its bundle does ~10x less\n"
                "work) and the best total score; the 2019 pipelined entries beat 2018.\n");
    return bench::finish(argc, argv);
}
