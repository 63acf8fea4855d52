#include "train/trainer.hpp"

#include <chrono>

#include "core/thread_pool.hpp"
#include "data/augment.hpp"
#include "detect/metrics.hpp"
#include "io/serialize.hpp"
#include "obs/trace.hpp"

namespace sky::train {

DetectTrainResult train_detector(nn::Module& net, const detect::YoloHead& head,
                                 data::DetectionDataset& dataset,
                                 const DetectTrainConfig& cfg, Rng& rng) {
    std::vector<nn::ParamRef> params;
    net.collect_params(params);
    nn::SGD opt(params, {cfg.lr_start, cfg.momentum, cfg.weight_decay, cfg.grad_clip});
    nn::ExpSchedule sched(cfg.lr_start, cfg.lr_end, cfg.steps);

    obs::Logger& log = obs::resolve(cfg.log, cfg.verbose);
    if (cfg.metrics)
        cfg.metrics->set("train.threads", core::ThreadPool::global().size());
    DetectTrainResult result;
    net.set_training(true);
    const int base_h = dataset.config().height;
    const int base_w = dataset.config().width;
    const float scales[3] = {0.75f, 1.0f, 1.25f};
    using Clock = std::chrono::steady_clock;
    for (int step = 0; step < cfg.steps; ++step) {
        obs::Span span("train/step", "train");
        const Clock::time_point t0 = cfg.metrics ? Clock::now() : Clock::time_point{};
        opt.set_lr(sched.at(step));
        data::DetectionBatch b = dataset.batch(cfg.batch);
        Tensor input = std::move(b.images);
        if (cfg.multi_scale) {
            const float s = scales[rng.uniform_int(0, 2)];
            if (s != 1.0f) {
                // Keep dims multiples of 8 so three poolings stay clean.
                const int h = std::max(16, static_cast<int>(base_h * s) / 8 * 8);
                const int w = std::max(16, static_cast<int>(base_w * s) / 8 * 8);
                input = data::resize_bilinear(input, h, w);
            }
        }
        Tensor raw = net.forward(input);
        Tensor grad;
        const float loss = head.loss(raw, b.boxes, grad);
        result.loss_curve.push_back(loss);
        opt.zero_grad();
        net.backward(grad);
        opt.step();
        if (cfg.metrics) {
            cfg.metrics->add("train.detect.steps");
            cfg.metrics->set("train.detect.loss", loss);
            cfg.metrics->set("train.detect.lr", opt.lr());
            cfg.metrics->observe(
                "train.detect.step_ms",
                std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
        }
        if (step % 50 == 0)
            log.infof("  step %4d  loss %.4f  lr %.4g", step, loss, opt.lr());
        if (!cfg.checkpoint_path.empty() && cfg.checkpoint_every > 0 &&
            (step + 1) % cfg.checkpoint_every == 0)
            io::save_weights(net, cfg.checkpoint_path);
    }
    result.final_loss = result.loss_curve.empty() ? 0.0f : result.loss_curve.back();
    if (!cfg.checkpoint_path.empty()) io::save_weights(net, cfg.checkpoint_path);

    net.set_training(false);
    {
        obs::Span span("train/validate", "train");
        result.val_iou = evaluate_detector(net, head, dataset.validation(cfg.val_images));
    }
    if (cfg.metrics) {
        cfg.metrics->set("train.detect.final_loss", result.final_loss);
        cfg.metrics->set("train.detect.val_iou", result.val_iou);
    }
    log.infof("  done: val IoU %.3f  final loss %.4f", result.val_iou, result.final_loss);
    return result;
}

double evaluate_detector(nn::Module& net, const detect::YoloHead& head,
                         const data::DetectionBatch& val) {
    const Tensor raw = net.forward(val.images);
    return detect::mean_iou(head.decode(raw), val.boxes);
}

ClassifyTrainResult train_classifier(nn::Module& net, data::ClassificationDataset& dataset,
                                     const ClassifyTrainConfig& cfg) {
    std::vector<nn::ParamRef> params;
    net.collect_params(params);
    nn::SGD opt(params, {cfg.lr_start, cfg.momentum, cfg.weight_decay, cfg.grad_clip});
    nn::ExpSchedule sched(cfg.lr_start, cfg.lr_end, cfg.steps);

    obs::Logger& log = obs::resolve(cfg.log, cfg.verbose);
    ClassifyTrainResult result;
    net.set_training(true);
    using Clock = std::chrono::steady_clock;
    for (int step = 0; step < cfg.steps; ++step) {
        obs::Span span("train/step", "train");
        const Clock::time_point t0 = cfg.metrics ? Clock::now() : Clock::time_point{};
        opt.set_lr(sched.at(step));
        data::ClassificationBatch b = dataset.batch(cfg.batch);
        Tensor logits = net.forward(b.images);
        Tensor grad;
        const data::CeResult ce = data::softmax_xent(logits, b.labels, grad);
        result.final_loss = ce.loss;
        opt.zero_grad();
        net.backward(grad);
        opt.step();
        if (cfg.metrics) {
            cfg.metrics->add("train.classify.steps");
            cfg.metrics->set("train.classify.loss", ce.loss);
            cfg.metrics->set("train.classify.batch_accuracy", ce.accuracy);
            cfg.metrics->observe(
                "train.classify.step_ms",
                std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
        }
        if (step % 50 == 0)
            log.infof("  step %4d  loss %.4f  acc %.3f", step, ce.loss, ce.accuracy);
    }
    net.set_training(false);
    result.val_accuracy = evaluate_classifier(net, dataset.validation(cfg.val_images));
    if (cfg.metrics) cfg.metrics->set("train.classify.val_accuracy", result.val_accuracy);
    return result;
}

double evaluate_classifier(nn::Module& net, const data::ClassificationBatch& val) {
    return argmax_accuracy(net.forward(val.images), val.labels);
}

double argmax_accuracy(const Tensor& logits, const std::vector<int>& labels) {
    int correct = 0;
    const Shape s = logits.shape();
    for (int n = 0; n < s.n; ++n) {
        const float* lp = logits.plane(n, 0);
        int arg = 0;
        for (int k = 1; k < s.c; ++k)
            if (lp[k] > lp[arg]) arg = k;
        if (arg == labels[static_cast<std::size_t>(n)]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(s.n);
}

}  // namespace sky::train
