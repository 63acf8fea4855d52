// The sky::bench measurement harness.
//
// Every bench/bench_*.cpp binary is a thin script over this library:
//
//   int main(int argc, char** argv) {
//       bench::RepeatStats t = bench::run("kernels.conv3x3.fwd_ms", "ms",
//                                         bench::Direction::kLowerIsBetter,
//                                         [&] { conv.forward(x); });
//       bench::record("kernels.conv3x3.gflops", flops / (t.median * 1e6),
//                     "GFLOP/s", bench::Direction::kHigherIsBetter);
//       return bench::finish(argc, argv);       // honours --json <path>
//   }
//
// run() performs a calibrated warmup (repeats until two consecutive timings
// agree, so the first measured sample is not a cold-cache outlier), then N
// timed repeats summarised as median/MAD/min.  finish() writes the
// versioned BENCH document (schema, environment fingerprint, per-metric
// units and repeat stats; see bench/report.hpp) when the binary is invoked
// with `--json <path>`.
#pragma once

#include <functional>
#include <string>

#include "bench/report.hpp"
#include "bench/stats.hpp"

namespace sky::bench {

/// Scaled step budget: `base` times the SKYNET_BENCH_SCALE env var (e.g. 0.1
/// for a smoke run, 4 for a long run), rounded to nearest and clamped to >= 1
/// so SKYNET_BENCH_SCALE=1 is exactly the default budget.
[[nodiscard]] int steps(int base);

/// Print a horizontal rule of `n` copies of `c`.
void rule(char c = '-', int n = 72);

/// The process-wide report finish() serialises.  Benches normally go through
/// run()/record(); tests reach in to inspect or clear it.
[[nodiscard]] Report& report();

/// Record one result.  `unit` names the measurement unit ("ms", "fps",
/// "iou", ...); `direction` tells a reader of the document which way is
/// better.
void record(const std::string& name, double value, const std::string& unit,
            Direction direction = Direction::kInfo);
/// Record a fully repeat-measured result.
void record(const std::string& name, const RepeatStats& stats, const std::string& unit,
            Direction direction = Direction::kInfo);

struct RunOptions {
    int repeats = 5;      ///< timed samples (clamped to >= 1)
    int min_warmup = 1;   ///< warmup runs always performed
    int max_warmup = 4;   ///< warmup cap when timings refuse to settle
    double warmup_tolerance = 0.25;  ///< consecutive-run agreement to stop early
};

/// Calibrated warmup + `opts.repeats` timed runs of `fn`; returns the wall
/// time statistics in milliseconds without recording anything.
[[nodiscard]] RepeatStats run_timed(const std::function<void()>& fn,
                                    const RunOptions& opts = {});

/// run_timed + record: times `fn` and records the stats under `name`.
RepeatStats run(const std::string& name, const std::string& unit, Direction direction,
                const std::function<void()>& fn, const RunOptions& opts = {});

/// Fold an obs::Registry (serve-engine metrics, GraphProfiler exports) into
/// the report's "registry" section under `prefix`.
void merge_registry(const obs::Registry& registry, const std::string& prefix = "");

/// Call as the bench's return statement.  Handles `--json <path>` by writing
/// the BENCH document (bench name taken from argv[0]); a `--json` with no
/// path argument is a usage error (exit 2).  Unknown arguments are left for
/// the bench itself.  Returns the process exit code.
int finish(int argc, char** argv);

}  // namespace sky::bench
