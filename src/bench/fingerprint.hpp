// Environment fingerprint for BENCH documents.
//
// A throughput number is meaningless without the configuration that produced
// it: the same binary at SKYNET_THREADS=1 vs =8, or -O0 vs -O2, differs by an
// order of magnitude.  Every BENCH document therefore embeds a fingerprint
// block — git revision, compiler and flags, build type, resolved thread
// count, bench scale, and host core count — so a reader comparing two
// documents can see when they describe different configurations.
#pragma once

#include <string>

namespace sky::bench {

struct Fingerprint {
    std::string git_sha;     ///< the sha at configure time
    std::string compiler;    ///< compiler id + version string
    std::string flags;       ///< CMAKE_CXX_FLAGS + per-config flags at build time
    std::string build_type;  ///< CMAKE_BUILD_TYPE
    int threads = 0;         ///< resolved SKYNET_THREADS (pool size benches run at)
    double bench_scale = 1.0;  ///< SKYNET_BENCH_SCALE (step-budget multiplier)
    unsigned cpu_cores = 0;    ///< std::thread::hardware_concurrency()
};

/// Fingerprint of the current process/build.
[[nodiscard]] Fingerprint local_fingerprint();

/// The fingerprint as one JSON object (no trailing newline), indented with
/// `indent` spaces per line for embedding in a larger document.
[[nodiscard]] std::string to_json(const Fingerprint& fp, int indent);

}  // namespace sky::bench
