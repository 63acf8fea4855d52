#include "search/bundle_search.hpp"

#include "detect/yolo_head.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "train/trainer.hpp"

namespace sky::search {

nn::ModulePtr build_sketch(const BundleSpec& spec, const BundleEvalConfig& cfg, Rng& rng) {
    auto net = std::make_unique<nn::Graph>();
    int in_ch = 3;
    for (int s = 0; s < cfg.sketch_stacks; ++s) {
        const int out_ch = cfg.base_channels * (s + 1);
        net->add(instantiate(spec, in_ch, out_ch, nn::Act::kReLU, rng));
        net->emplace<nn::MaxPool2>();
        in_ch = out_ch;
    }
    net->emplace<nn::PWConv1>(in_ch, 10, /*bias=*/true, rng);  // fixed bbox back-end
    return net;
}

std::vector<BundleEval> evaluate_bundles(const std::vector<BundleSpec>& candidates,
                                         data::DetectionDataset& dataset,
                                         const hwsim::FpgaModel& fpga,
                                         const BundleEvalConfig& cfg) {
    std::vector<BundleEval> evals;
    evals.reserve(candidates.size());
    const detect::YoloHead head;
    for (const BundleSpec& spec : candidates) {
        Rng rng(cfg.seed);  // same init stream for every candidate: fair sketches
        BundleEval ev;
        ev.spec = spec;

        // Hardware probe: one bundle instance at representative width/shape.
        Rng probe_rng(cfg.seed ^ 0xB0B);
        nn::ModulePtr probe = instantiate(spec, cfg.probe_channels, cfg.probe_channels,
                                          nn::Act::kReLU6, probe_rng);
        const hwsim::FpgaEstimate est =
            fpga.estimate(*probe, {1, cfg.probe_channels, cfg.probe_h, cfg.probe_w},
                          cfg.fpga);
        ev.latency_us = est.latency_ms * 1e3;
        ev.dsp = est.resources.dsp;
        ev.bram18k = est.resources.bram18k;

        // Software probe: fast-train the sketch.
        nn::ModulePtr sketch = build_sketch(spec, cfg, rng);
        train::DetectTrainConfig tc;
        tc.steps = cfg.train_steps;
        tc.batch = cfg.train_batch;
        tc.multi_scale = false;
        tc.val_images = 32;
        Rng train_rng(cfg.seed ^ 0x7141);
        ev.sketch_iou = train_detector(*sketch, head, dataset, tc, train_rng).val_iou;
        evals.push_back(std::move(ev));
    }
    for (std::size_t i : pareto_front(evals)) evals[i].pareto = true;
    return evals;
}

std::vector<std::size_t> pareto_front(const std::vector<BundleEval>& evals) {
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < evals.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < evals.size() && !dominated; ++j) {
            if (i == j) continue;
            const bool no_worse = evals[j].sketch_iou >= evals[i].sketch_iou &&
                                  evals[j].latency_us <= evals[i].latency_us;
            const bool better = evals[j].sketch_iou > evals[i].sketch_iou ||
                                evals[j].latency_us < evals[i].latency_us;
            dominated = no_worse && better;
        }
        if (!dominated) front.push_back(i);
    }
    return front;
}

}  // namespace sky::search
