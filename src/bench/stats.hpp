// Outlier-robust repeat statistics for the measurement harness.
//
// A benchmark that reports one number is reporting noise: cold caches, a
// background daemon, a CPU frequency ramp.  The harness therefore times every
// measured region N times and summarises the samples with order statistics —
// median as the representative value, MAD (median absolute deviation from the
// median) as the noise scale — which a single outlier run cannot drag the way
// it drags a mean.
#pragma once

#include <vector>

namespace sky::bench {

/// Median of `v` (average of the two middle elements for even sizes);
/// 0 for an empty vector.  Takes a copy: callers keep their sample order.
[[nodiscard]] double median(std::vector<double> v);

/// Summary of N repeated measurements of the same quantity.
struct RepeatStats {
    std::vector<double> samples;  ///< in measurement order
    double median = 0.0;          ///< representative value
    double mad = 0.0;   ///< median absolute deviation from the median
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;

    [[nodiscard]] int repeats() const { return static_cast<int>(samples.size()); }

    /// Build the summary from raw samples (empty input -> all zeros).
    [[nodiscard]] static RepeatStats from_samples(std::vector<double> samples);

    /// A single already-summarised value (repeats = 1, mad = 0).
    [[nodiscard]] static RepeatStats from_value(double value);
};

}  // namespace sky::bench
