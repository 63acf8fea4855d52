// Model summary and roofline reporting.
//
// summarize() walks a network's leaf layers at a given input shape and
// returns per-layer rows (shape, MACs, params, arithmetic intensity);
// print_summary() renders the familiar model-summary table.  The roofline
// columns tell a deployment engineer which layers are compute- vs
// memory-bound on a given device — the same reasoning the paper's Bundle
// evaluation performs.  A Graph summarizes through the Module overload; the
// activation memory plan is the integer engine's (quant::plan_activations,
// carried by quant::QuantReport and reported by skyanalyze).
#pragma once

#include <cstdio>
#include <vector>

#include "hwsim/device.hpp"
#include "nn/module.hpp"

namespace sky::deploy {

struct LayerRow {
    nn::LayerInfo info;
    double intensity = 0.0;      ///< MACs per byte moved (fp32 traffic)
    bool compute_bound = false;  ///< vs the given device's roofline knee
};

struct ModelSummary {
    std::vector<LayerRow> rows;
    std::int64_t total_macs = 0;
    std::int64_t total_params = 0;

    [[nodiscard]] double gmacs() const { return static_cast<double>(total_macs) / 1e9; }
    [[nodiscard]] double param_mb() const {
        return static_cast<double>(total_params) * 4.0 / 1e6;
    }
};

[[nodiscard]] ModelSummary summarize(const nn::Module& net, const Shape& input,
                                     const hwsim::DeviceProfile& device);

/// Print the summary table to `out` (defaults to stdout).
void print_summary(const ModelSummary& summary, const char* title,
                   std::FILE* out = stdout);

}  // namespace sky::deploy
