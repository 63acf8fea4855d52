// Siamese feature extraction and depthwise cross-correlation — the common
// machinery of SiamRPN++ and SiamMask (§7).
//
// Both trackers embed an exemplar crop and a search crop with the *same*
// backbone and correlate them per-channel; the response map feeds a head
// (RPN or mask).  To train the shared backbone with our single-instance
// modules, exemplar and search crops are stacked into one batch of
// identical spatial size; the exemplar "kernel" is the centre crop of its
// feature map.  depthwise_xcorr has an explicit backward so gradients flow
// into both towers.
#pragma once

#include <memory>

#include "nn/graph.hpp"

namespace sky::tracking {

/// Depthwise cross-correlation: for each (n, c), correlate search[n, c] with
/// kernel[n, c] (valid mode).  search {N,C,Hs,Ws} x kernel {N,C,Hk,Wk} ->
/// {N,C,Hs-Hk+1,Ws-Wk+1}.
[[nodiscard]] Tensor depthwise_xcorr(const Tensor& search, const Tensor& kernel);

/// Gradients of depthwise_xcorr w.r.t. both inputs.
void depthwise_xcorr_backward(const Tensor& search, const Tensor& kernel,
                              const Tensor& grad_resp, Tensor& grad_search,
                              Tensor& grad_kernel);

/// Centre crop of a feature map to (kh, kw); scatter_center_grad is its
/// adjoint (writes into a zeroed tensor of the original size).
[[nodiscard]] Tensor center_crop(const Tensor& feat, int kh, int kw);
void scatter_center_grad(const Tensor& grad_crop, Tensor& grad_feat);

/// The Siamese embedding tower: backbone (any stride-8 feature extractor)
/// plus a 1x1 "neck" to a fixed embedding width, as one chain nn::Graph
/// whose node 1 is the backbone.
class SiameseEmbed {
public:
    /// `feature_channels` is the backbone's output width —
    /// SkyNetModel::feature_channels() for the SkyNet extractors.
    SiameseEmbed(nn::ModulePtr backbone, int feature_channels, int embed_dim, Rng& rng);

    /// Embed a batch of crops {N,3,S,S} -> {N,D,S/8,S/8}.
    [[nodiscard]] Tensor forward(const Tensor& crops);
    /// Backward through neck + backbone.
    Tensor backward(const Tensor& grad);

    void collect_params(std::vector<nn::ParamRef>& out);
    void set_training(bool training);
    [[nodiscard]] std::int64_t param_count() const;
    [[nodiscard]] int embed_dim() const { return embed_dim_; }
    [[nodiscard]] const nn::Graph& net() const { return *net_; }
    [[nodiscard]] nn::Graph& net() { return *net_; }

private:
    std::unique_ptr<nn::Graph> net_;  // backbone -> neck conv -> neck BN
    int embed_dim_;
};

}  // namespace sky::tracking
