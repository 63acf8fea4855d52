// Per-layer profiler for Graph networks.
//
// GraphProfiler wraps every module node of a Graph in a timing shim (via
// Graph::replace_module) that records forward/backward wall time and the
// MAC count at the observed input shape — the per-layer cost data behind
// the paper's Bundle latency models and roofline analyses, measured instead
// of estimated.  The shim reads no output value, so a profiled layer costs
// what an unprofiled one does.  In an eval forward a fused epilogue node
// (nn/graph.hpp) does not run: its shim records no call, its time is part
// of its producer's, and LayerProfile::fused_into names that producer (a
// folded MaxPool2's time is in its PWConv1's).  While a trace session is
// installed each layer forward also emits a span, so a profiled inference
// shows up in chrome://tracing as a per-layer timeline.  The shims delegate
// everything else (params, state, training mode, shapes, enumerate), so a
// profiled network trains, checkpoints and estimates identically; detach()
// restores the original modules.
//
// A pass that dispatches on layer type sees the shims instead of the
// layers: with a profiler attached, deploy::fold_graph_bn folds no BN and
// quant::lower finds no conv.  Run the deployment passes (Detector::fold_bn,
// quantize) first and attach the profiler after them.
#pragma once

#include <memory>

#include "nn/graph.hpp"

namespace sky::obs {

class Logger;
class Registry;

struct LayerProfile {
    int node = 0;  ///< graph node id
    std::string name;
    std::string kind;
    Shape in, out;              ///< shapes seen by the last forward
    std::int64_t macs = 0;      ///< at the last forward's input shape
    std::int64_t params = 0;
    int fwd_calls = 0;
    int bwd_calls = 0;
    double fwd_ms = 0.0;  ///< accumulated
    double bwd_ms = 0.0;
    int threads = 0;  ///< kernel-engine thread count during the last forward
    /// The producer node this node was aliased or fused into in the last
    /// forward (its time is in that node's), or -1 when it ran.
    int fused_into = -1;

    [[nodiscard]] double fwd_ms_avg() const {
        return fwd_calls ? fwd_ms / fwd_calls : 0.0;
    }
    /// Effective forward GFLOP/s (2 FLOPs per MAC) over the accumulated runs.
    [[nodiscard]] double fwd_gflops() const {
        return fwd_ms > 0.0
                   ? 2.0 * static_cast<double>(macs) * fwd_calls / (fwd_ms * 1e6)
                   : 0.0;
    }
};

class GraphProfiler {
public:
    /// Wraps every kModule node of `graph`; the graph must outlive the
    /// profiler (or detach() must be called first).
    explicit GraphProfiler(nn::Graph& graph);
    ~GraphProfiler();
    GraphProfiler(const GraphProfiler&) = delete;
    GraphProfiler& operator=(const GraphProfiler&) = delete;

    /// Restore the original modules (idempotent; called by the destructor).
    void detach();
    /// Zero all accumulated timings and call counts.
    void reset();

    /// Number of profiled (module) nodes.
    [[nodiscard]] std::size_t layer_count() const { return slots_.size(); }
    [[nodiscard]] std::vector<LayerProfile> profiles() const;
    [[nodiscard]] double total_forward_ms() const;
    [[nodiscard]] double total_backward_ms() const;

    /// {"layers": [...], "total_fwd_ms": ..., "total_bwd_ms": ...}
    [[nodiscard]] std::string to_json() const;
    bool save_json(const std::string& path) const;
    /// Export per-layer gauges (`<prefix>.<node>.<kind>.fwd_ms` / `.gflops` /
    /// `.threads`) plus totals into a metrics registry.
    void export_metrics(Registry& registry, const std::string& prefix) const;
    /// Fixed-width per-layer table (name, kind, out shape, MACs, time, %).
    void print_table(Logger& log) const;

private:
    /// A slot with fused_into read from the graph's last forward (while
    /// attached; detach() freezes it).
    [[nodiscard]] LayerProfile read(const LayerProfile& slot) const;

    nn::Graph* graph_;
    // Heap slots so the shim modules hold stable LayerProfile pointers.
    std::vector<std::unique_ptr<LayerProfile>> slots_;
    bool attached_ = false;
};

}  // namespace sky::obs
