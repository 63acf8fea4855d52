// bench_e2e — the repo's end-to-end benchmark: image -> box serving and
// Siamese tracking on three workloads (README.md in this directory).
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--trace trace.json]
//             [--json out.json]
//   bench_e2e --smoke
//   bench_e2e --summarize a.json b.json ...
//
// A run builds the stack through public APIs, sends the workload's traffic
// for S seconds, checks every output against an oracle and prints every
// metric as `name value unit`.  Without --trace the metrics are the
// end-to-end ones.  With --trace the traffic is split into an untraced and a
// traced half, the isolated layer probes follow, the metrics are the
// per-layer ones and the Chrome trace is written to the given path.  --json
// writes the metrics as a sky.bench.v1 document, which benchdiff and
// --summarize read.  The last line of standard output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// Exit status: 0 when every check passed, 1 when one failed or the run broke
// off, 2 on a usage error.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "bench/json.hpp"
#include "core/simd.hpp"
#include "core/thread_pool.hpp"
#include "e2e.hpp"
#include "obs/trace.hpp"

namespace e2e {

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void Metrics::add(const std::string& name, double value, const std::string& unit,
                  sky::bench::Direction direction, bool contract) {
    std::printf("%s %.6g %s\n", name.c_str(), value, unit.c_str());
    sky::bench::record(name, value, unit, direction);
    metrics_.push_back({name, value, unit, contract});
}

void Tally::fail(const std::string& what, std::int64_t count) {
    failed += count;
    problems.push_back(what);
}

BenchSpan::BenchSpan(const char* what, std::int64_t index, int lane)
    : session_(sky::obs::trace_session()), what_(what), index_(index), lane_(lane) {
    if (session_ != nullptr) start_ = Clock::now();
}

BenchSpan::~BenchSpan() {
    if (session_ == nullptr) return;
    const Clock::time_point end = Clock::now();
    const auto us = [](Clock::duration d) {
        return std::chrono::duration<double, std::micro>(d).count();
    };
    session_->record(std::string(what_) + " #" + std::to_string(index_), "bench",
                     us(start_ - session_->origin()), us(end - start_), lane_);
}

}  // namespace e2e

namespace {

constexpr const char* kUsage =
    "usage: bench_e2e --workload <name> [--seed N] [--seconds S] [--trace trace.json]\n"
    "                 [--json out.json]\n"
    "       bench_e2e --smoke\n"
    "       bench_e2e --summarize a.json b.json ...\n";

void print_usage(std::FILE* to) {
    std::fprintf(to, "%sworkloads:", kUsage);
    for (const std::string& name : e2e::workload_names()) std::fprintf(to, " %s", name.c_str());
    std::fprintf(to, "\n");
}

int usage_error(const std::string& msg) {
    std::fprintf(stderr, "bench_e2e: %s\n", msg.c_str());
    print_usage(stderr);
    return 2;
}

std::string result_line(const e2e::Metrics& metrics, const e2e::Tally& tally) {
    namespace json = sky::bench::json;
    std::string s = std::string("{\"correct\": ") +
                    (tally.problems.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(tally.attempted) +
                    ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
    bool first = true;
    for (const e2e::Metric& m : metrics.all()) {
        if (!m.contract) continue;
        s += (first ? "\"" : ", \"") + json::escape(m.name) + "\": {\"value\": " +
             json::num(m.value) + ", \"unit\": \"" + json::escape(m.unit) + "\"}";
        first = false;
    }
    return s + "}}";
}

/// Every workload for a quarter second with all checks and the traced pass
/// on, then the layer probes once: a fast end-to-end test of the benchmark.
int smoke() {
    bool ok = true;
    for (const std::string& name : e2e::workload_names()) {
        sky::obs::TraceSession session;
        e2e::RunConfig cfg;
        cfg.workload = name;
        cfg.seconds = 0.25;
        cfg.session = &session;
        cfg.constructions = 1;
        e2e::Metrics metrics;
        e2e::Tally tally;
        e2e::run_workload(cfg, metrics, tally);
        for (const std::string& p : tally.problems)
            std::fprintf(stderr, "CHECK FAILED (%s): %s\n", name.c_str(), p.c_str());
        const bool passed =
            tally.problems.empty() && tally.failed == 0 && tally.attempted > 0;
        std::printf("smoke %s: %s (%lld attempted, %lld failed, %zu spans)\n", name.c_str(),
                    passed ? "ok" : "FAILED", static_cast<long long>(tally.attempted),
                    static_cast<long long>(tally.failed), session.size());
        ok = ok && passed;
    }
    e2e::Metrics metrics;
    e2e::run_probes(1, 1, metrics);
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace sky;
    e2e::RunConfig cfg;
    std::string trace_path;
    bool run_smoke = false;
    std::vector<std::string> summarize_paths;
    bool summarize = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--summarize") {
            summarize = true;
            while (i + 1 < argc) summarize_paths.emplace_back(argv[++i]);
        } else if (arg == "--smoke") {
            run_smoke = true;
        } else if (arg == "--help") {
            print_usage(stdout);
            return 0;
        } else if (!has_value) {
            return usage_error(arg + " needs a value");
        } else if (arg == "--workload") {
            cfg.workload = argv[++i];
        } else if (arg == "--trace") {
            trace_path = argv[++i];
        } else if (arg == "--json") {
            ++i;  // written by bench::finish
        } else if (arg == "--seed") {
            char* end = nullptr;
            errno = 0;
            cfg.seed = std::strtoull(argv[++i], &end, 10);
            if (errno != 0 || end == argv[i] || *end != '\0')
                return usage_error("bad --seed '" + std::string(argv[i]) + "'");
        } else if (arg == "--seconds") {
            char* end = nullptr;
            cfg.seconds = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' ||
                !(cfg.seconds > 0.0 && cfg.seconds <= 600.0))
                return usage_error("--seconds must be in (0, 600]");
        } else {
            return usage_error("unknown argument '" + arg + "'");
        }
    }
    if (summarize) return e2e::summarize(summarize_paths);

    // The kernel pool is pinned so runs on bigger hosts stay comparable, and
    // to half the cores so that it, the engine's stage threads and the load
    // generator (this thread) never outnumber them: on a shared host, more
    // runnable threads than cores times the scheduler, not the stack.
    const int threads =
        std::clamp(static_cast<int>(std::thread::hardware_concurrency()) / 2, 1, 2);
    core::ThreadPool::set_global_threads(threads);
    try {
        if (run_smoke) return smoke();
        const std::vector<std::string>& names = e2e::workload_names();
        if (std::find(names.begin(), names.end(), cfg.workload) == names.end())
            return usage_error(cfg.workload.empty()
                                   ? "--workload is required"
                                   : "unknown workload '" + cfg.workload + "'");
        std::printf("bench_e2e workload=%s seed=%llu seconds=%g threads=%d simd=%s%s\n",
                    cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                    cfg.seconds, threads, core::simd_level_name(core::active_simd_level()),
                    trace_path.empty() ? "" : " traced");

        obs::TraceSession session;
        cfg.session = trace_path.empty() ? nullptr : &session;
        e2e::Metrics metrics;
        e2e::Tally tally;
        e2e::run_workload(cfg, metrics, tally);
        if (cfg.session != nullptr) {
            {
                obs::TraceGuard guard(session);
                e2e::run_probes(cfg.seed, 5, metrics);
            }
            if (!session.save(trace_path)) {
                std::fprintf(stderr, "bench_e2e: cannot write trace to %s\n",
                             trace_path.c_str());
                return 1;
            }
        }
        for (const std::string& p : tally.problems)
            std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
        bench::report().set_name("bench_e2e." + cfg.workload);
        const int rc = bench::finish(argc, argv);
        std::printf("%s\n", result_line(metrics, tally).c_str());
        return tally.problems.empty() ? rc : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 1;
    }
}
