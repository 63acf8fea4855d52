// Training loops: single-object detection (the DAC-SDC task) and image
// classification (backbone studies).  Mirrors the paper's §6.1 recipe at
// reduced scale: SGD, exponential LR decay, multi-scale inputs and the
// augmentation pipeline from data/augment.hpp.
#pragma once

#include "data/synth_classification.hpp"
#include "data/synth_detection.hpp"
#include "detect/yolo_head.hpp"
#include "nn/module.hpp"
#include <string>

#include "nn/optimizer.hpp"
#include "obs/logger.hpp"
#include "obs/registry.hpp"

namespace sky::train {

struct DetectTrainConfig {
    int steps = 300;
    int batch = 8;
    float lr_start = 0.05f;
    float lr_end = 0.005f;
    float momentum = 0.9f;
    float weight_decay = 1e-4f;
    float grad_clip = 5.0f;
    bool multi_scale = true;  ///< randomly rescale each batch by {0.75, 1, 1.25}
    int val_images = 64;
    bool verbose = false;  ///< with no explicit `log`, selects the stdout sink
    /// Progress sink; nullptr falls back to `verbose` (obs::resolve).
    obs::Logger* log = nullptr;
    /// When set, receives step timing (`train.step_ms` histogram), loss and
    /// validation metrics; nullptr records nothing.
    obs::Registry* metrics = nullptr;
    /// When non-empty, save the weights to this path every
    /// `checkpoint_every` steps (and once more after training).
    std::string checkpoint_path;
    int checkpoint_every = 100;
};

struct DetectTrainResult {
    double val_iou = 0.0;
    float final_loss = 0.0f;
    std::vector<float> loss_curve;
};

/// Train `net` (whose output feeds `head`) on `dataset`; returns validation
/// mean IoU.  The net is left in eval mode.
DetectTrainResult train_detector(nn::Module& net, const detect::YoloHead& head,
                                 data::DetectionDataset& dataset,
                                 const DetectTrainConfig& cfg, Rng& rng);

/// Mean IoU of `net`+`head` on a fixed validation batch (net must be in the
/// desired mode already; this does not flip training state).
[[nodiscard]] double evaluate_detector(nn::Module& net, const detect::YoloHead& head,
                                       const data::DetectionBatch& val);

struct ClassifyTrainConfig {
    int steps = 300;
    int batch = 16;
    float lr_start = 0.05f;
    float lr_end = 0.005f;
    float momentum = 0.9f;
    float weight_decay = 1e-4f;
    float grad_clip = 5.0f;
    int val_images = 128;
    bool verbose = false;  ///< with no explicit `log`, selects the stdout sink
    obs::Logger* log = nullptr;
    obs::Registry* metrics = nullptr;
};

struct ClassifyTrainResult {
    double val_accuracy = 0.0;
    float final_loss = 0.0f;
};

ClassifyTrainResult train_classifier(nn::Module& net, data::ClassificationDataset& dataset,
                                     const ClassifyTrainConfig& cfg);

/// Accuracy of a classifier on a fixed validation batch.
[[nodiscard]] double evaluate_classifier(nn::Module& net,
                                         const data::ClassificationBatch& val);

/// Fraction of items whose largest logit ({n, classes, 1, 1}) is the label:
/// evaluate_classifier's score for logits from any datapath (the Fig. 2a
/// bench scores quant::QEngine outputs with it).
[[nodiscard]] double argmax_accuracy(const Tensor& logits, const std::vector<int>& labels);

}  // namespace sky::train
