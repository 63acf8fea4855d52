// The BENCH document: a versioned, self-describing benchmark report.
//
// Schema "sky.bench.v1":
//
//   {
//     "schema": "sky.bench.v1",
//     "bench": "bench_table7_quant",
//     "fingerprint": { git_sha, compiler, flags, build_type,
//                      skynet_threads, bench_scale, cpu_cores },
//     "metrics": {
//       "<name>": { "value": <median>, "unit": "ms",
//                   "direction": "lower_is_better",
//                   "repeats": 5, "median": m, "mad": d,
//                   "min": a, "max": b, "mean": u, "samples": [...] }
//     },
//     "registry": { "counters": {...}, "gauges": {...},
//                   "histograms": { "<name>": { count, sum, min, max,
//                                               p50, p95, p99 } } }
//   }
//
// Every metric carries its unit and its improvement direction, so a reader
// (`bench_e2e --summarize`, a dashboard) needs no out-of-band table to know
// that `fwd_ms` going up is bad and `gflops` going up is good.  The
// "registry" section holds folded obs::Registry content — serve-engine
// latency histograms, per-layer GraphProfiler gauges — as supporting detail
// beside "metrics".
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench/fingerprint.hpp"
#include "bench/stats.hpp"
#include "obs/registry.hpp"

namespace sky::bench {

/// The schema identifier emitted in (and required of) BENCH documents.
inline constexpr const char* kSchema = "sky.bench.v1";

/// Which way "better" points for a metric.  kInfo metrics are recorded for
/// display and have no better direction.
enum class Direction { kInfo, kLowerIsBetter, kHigherIsBetter };

[[nodiscard]] const char* to_string(Direction d);

struct MetricRecord {
    std::string unit;  ///< "ms", "fps", "GFLOP/s", "x", "iou", ...
    Direction direction = Direction::kInfo;
    RepeatStats stats;
};

/// Accumulates one bench binary's results and serialises the document.
/// Single-threaded by design: benches record from main() only.
class Report {
public:
    void set_name(std::string name) { name_ = std::move(name); }
    [[nodiscard]] const std::string& name() const { return name_; }

    /// Record a metric with full repeat statistics; re-recording a name
    /// replaces it.
    void record(const std::string& name, RepeatStats stats, std::string unit,
                Direction direction);
    /// Record a single-sample metric (repeats = 1, mad = 0).
    void record(const std::string& name, double value, std::string unit,
                Direction direction);

    /// Fold a metrics registry snapshot into the document's "registry"
    /// section, prefixing every folded name with `prefix`.
    void merge_registry(const obs::Registry& registry, const std::string& prefix = "");

    [[nodiscard]] const MetricRecord* find(const std::string& name) const;
    [[nodiscard]] std::size_t metric_count() const { return metrics_.size(); }

    [[nodiscard]] std::string to_json(const Fingerprint& fp) const;
    bool save_json(const std::string& path, const Fingerprint& fp) const;

    void clear();

private:
    std::string name_;
    std::map<std::string, MetricRecord> metrics_;
    // Folded registry content, keyed by (possibly prefixed) metric name.
    std::map<std::string, double> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, obs::HistogramSnapshot> histograms_;
};

}  // namespace sky::bench
