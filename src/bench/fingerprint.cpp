#include "bench/fingerprint.hpp"

#include <cstdlib>
#include <sstream>
#include <thread>

#include "bench/json.hpp"
#include "core/thread_pool.hpp"

// Build metadata injected by src/CMakeLists.txt on this translation unit
// only, so a new commit rebuilds one file, not the library.
#ifndef SKYNET_GIT_SHA
#define SKYNET_GIT_SHA "unknown"
#endif
#ifndef SKYNET_CXX_FLAGS
#define SKYNET_CXX_FLAGS ""
#endif
#ifndef SKYNET_BUILD_TYPE
#define SKYNET_BUILD_TYPE ""
#endif

namespace sky::bench {
namespace {

std::string compiler_id() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

}  // namespace

Fingerprint local_fingerprint() {
    Fingerprint fp;
    fp.git_sha = SKYNET_GIT_SHA;
    fp.compiler = compiler_id();
    fp.flags = SKYNET_CXX_FLAGS;
    fp.build_type = SKYNET_BUILD_TYPE;
    fp.threads = core::ThreadPool::env_threads();
    if (const char* scale = std::getenv("SKYNET_BENCH_SCALE")) {
        const double s = std::atof(scale);
        if (s > 0.0) fp.bench_scale = s;
    }
    fp.cpu_cores = std::thread::hardware_concurrency();
    return fp;
}

std::string to_json(const Fingerprint& fp, int indent) {
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    std::ostringstream os;
    os << "{\n";
    os << pad << "  \"git_sha\": \"" << json::escape(fp.git_sha) << "\",\n";
    os << pad << "  \"compiler\": \"" << json::escape(fp.compiler) << "\",\n";
    os << pad << "  \"flags\": \"" << json::escape(fp.flags) << "\",\n";
    os << pad << "  \"build_type\": \"" << json::escape(fp.build_type) << "\",\n";
    os << pad << "  \"skynet_threads\": " << fp.threads << ",\n";
    os << pad << "  \"bench_scale\": " << json::num(fp.bench_scale) << ",\n";
    os << pad << "  \"cpu_cores\": " << fp.cpu_cores << "\n";
    os << pad << "}";
    return os.str();
}

}  // namespace sky::bench
