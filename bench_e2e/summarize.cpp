// bench_e2e --summarize: the repeat statistics that set BENCHMARK.json's
// bounds.  Over the given sky.bench.v1 documents (one per bench_e2e process,
// written with --json), for every bench name and metric: the run count, the
// median, the first and third quartile — as Python's
// statistics.quantiles(values, n=4) computes them — and the spread
// (q3 - q1) / median.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench/json.hpp"
#include "bench/report.hpp"
#include "bench/stats.hpp"
#include "e2e.hpp"

namespace e2e {
namespace {

namespace json = sky::bench::json;

struct Series {
    std::string unit;
    std::vector<double> values;
};

/// statistics.quantiles(values, n=4) ('exclusive' method); one value is its
/// own quartiles.
void quartiles(std::vector<double> v, double& q1, double& q3) {
    std::sort(v.begin(), v.end());
    const auto n = static_cast<long>(v.size());
    if (n < 2) {
        q1 = q3 = v.empty() ? 0.0 : v[0];
        return;
    }
    const long m = n + 1;
    const auto cut = [&](long i) {
        const long j = std::clamp(i * m / 4, 1L, n - 1);
        const auto delta = static_cast<double>(i * m - j * 4);
        return (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
                v[static_cast<std::size_t>(j)] * delta) /
               4.0;
    };
    q1 = cut(1);
    q3 = cut(3);
}

}  // namespace

int summarize(const std::vector<std::string>& paths) {
    if (paths.empty()) {
        std::fprintf(stderr, "bench_e2e: --summarize needs at least one sky.bench.v1 file\n");
        return 2;
    }
    std::map<std::string, std::map<std::string, Series>> benches;  // bench -> metric
    std::map<std::string, int> runs;
    for (const std::string& path : paths) {
        json::Value doc;
        std::string err;
        if (!json::parse_file(path, doc, err)) {
            std::fprintf(stderr, "bench_e2e: %s: %s\n", path.c_str(), err.c_str());
            return 2;
        }
        const json::Value* metrics = doc.get("metrics");
        if (doc.str_or("schema", "") != sky::bench::kSchema || metrics == nullptr ||
            !metrics->is_object()) {
            std::fprintf(stderr, "bench_e2e: %s: not a %s document\n", path.c_str(),
                         sky::bench::kSchema);
            return 2;
        }
        const std::string bench = doc.str_or("bench", "?");
        ++runs[bench];
        for (const auto& [name, m] : metrics->object) {
            Series& s = benches[bench][name];
            s.unit = m.str_or("unit", "");
            s.values.push_back(m.num_or("value", std::numeric_limits<double>::quiet_NaN()));
        }
    }
    for (const auto& [bench, metrics] : benches) {
        std::printf("%s: %d runs\n", bench.c_str(), runs[bench]);
        std::printf("  %-32s %4s %12s %12s %12s %8s  %s\n", "metric", "n", "median", "q1",
                    "q3", "spread", "unit");
        for (const auto& [name, s] : metrics) {
            double q1 = 0.0, q3 = 0.0;
            quartiles(s.values, q1, q3);
            const double med = sky::bench::median(s.values);
            const double spread = med != 0.0 ? (q3 - q1) / std::fabs(med) : 0.0;
            std::printf("  %-32s %4zu %12.6g %12.6g %12.6g %8.4f  %s\n", name.c_str(),
                        s.values.size(), med, q1, q3, spread, s.unit.c_str());
        }
    }
    return 0;
}

}  // namespace e2e
