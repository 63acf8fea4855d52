// Shared pieces of the bench_e2e benchmark (see README.md in this directory).
//
// bench_e2e drives the SkyNet stack only through its public API — Detector,
// serve::Engine, data::resize_area, YoloHead::decode, SiamTracker::track,
// SiameseEmbed::forward, the core GEMMs and parallel_for — and reports what a
// user of each workload sees (end-to-end metrics) plus, in a traced run, what
// each layer of the stack contributed (per-layer metrics).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "skynet/skynet_model.hpp"

namespace sky::obs {
class TraceSession;
}

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linearly interpolated quantile (q in [0, 1]) of `v`; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Input size of every SkyNet detector in the benchmark (DAC-SDC, §6).
inline constexpr int kModelH = 160;
inline constexpr int kModelW = 320;

/// Every SkyNet detector in the benchmark: SkyNet-C x1.0 with two anchors.
[[nodiscard]] inline sky::SkyNetConfig skynet_c() {
    return {sky::SkyNetVariant::kC, sky::nn::Act::kReLU6, 2, 1.0f};
}

/// SiamRPN tracker geometry (§7), shared by track_siam and the tracking probes.
inline constexpr int kTrackCrop = 128;
inline constexpr int kTrackKernelCells = 4;
inline constexpr int kTrackEmbedDim = 24;

/// One reported number.  `contract` marks the metrics BENCHMARK.json lists
/// for the run's mode; only those go into the final JSON result line.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    bool contract = true;
};

/// Prints every metric as `name value unit` the moment it is known, records
/// it into the sky::bench report (so --json writes a sky.bench.v1 document
/// benchdiff reads) and keeps the list for the result line.
class Metrics {
public:
    void add(const std::string& name, double value, const std::string& unit,
             sky::bench::Direction direction, bool contract = true);
    [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

private:
    std::vector<Metric> metrics_;
};

/// Operation counts of one run.  `failed` counts failed and rejected
/// requests and every output an oracle check found wrong.
struct Tally {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::string> problems;  ///< one line per failed check

    void fail(const std::string& what, std::int64_t count = 1);
};

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;  ///< measured traffic; a traced run splits it in two halves
    /// Non-null: traced run.  The workload runs untraced, then again with
    /// this session installed and ServeConfig::metrics on.
    sky::obs::TraceSession* session = nullptr;
    int constructions = 7;  ///< back-to-back setups; setup_s is their median
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds, runs and checks one workload; reports its metrics into `out`.
void run_workload(const RunConfig& cfg, Metrics& out, Tally& tally);

/// Median wall time of `fn` in ms (calibrated warm-up, then `repeats`
/// samples), each call inside a probe span named `name`.
[[nodiscard]] double time_ms(const char* name, int repeats, const std::function<void()>& fn);

/// The isolated layer probes of a traced run: skynet/nn, quant, core,
/// detect and tracking.  `repeats` timed samples per probe.
void run_probes(std::uint64_t seed, int repeats, Metrics& out);

/// Host peak of the instructions the GEMM micro-kernels issue, measured on
/// `threads` threads: fp32 FMA GFLOP/s and int16 multiply-add GOP/s.
[[nodiscard]] double peak_fp32_gflops(int threads);
[[nodiscard]] double peak_int16_gops(int threads);

/// `bench_e2e --summarize a.json b.json ...`: per bench and metric, the
/// median, quartiles and spread over the given sky.bench.v1 documents.
int summarize(const std::vector<std::string>& paths);

/// Records a benchmark-side span into the installed trace session on its own
/// lane, named `what #index` so one request's submit/get pair can be picked
/// out in chrome://tracing.  Costs one atomic load when tracing is off.
class BenchSpan {
public:
    BenchSpan(const char* what, std::int64_t index, int lane);
    ~BenchSpan();
    BenchSpan(const BenchSpan&) = delete;
    BenchSpan& operator=(const BenchSpan&) = delete;

private:
    sky::obs::TraceSession* session_;
    const char* what_;
    std::int64_t index_;
    int lane_;
    Clock::time_point start_;
};

/// Trace lanes of the benchmark's own spans (engine stages use 0..).
inline constexpr int kLaneGenerator = 100;
inline constexpr int kLaneProbe = 101;

}  // namespace e2e
