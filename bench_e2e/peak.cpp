// Host peak probe: the rate of the instructions the GEMM micro-kernels issue,
// measured with register-only loops on this host — vfmadd231ps for the fp32
// kernels, vpmaddwd for the int8 (u8 x s16) kernels.  There is no memory
// traffic, so the result bounds core.sgemm_gflops / core.qgemm_gops from
// above and is the denominator of skynet.pct_peak.b4 / quant.pct_peak.b4.
// When the AVX2 kernels are not the active ones (another CPU, or
// SKYNET_SIMD=0), the loops use the compiler's baseline vectors, like the
// "generic" kernels do.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/simd.hpp"
#include "e2e.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define E2E_X86 1
#endif

namespace e2e {
namespace {

// Independent dependency chains per thread: enough to cover latency x
// issue width of FMA (4 x 2) and vpmaddwd (5 x 2) on current x86 cores.
constexpr int kChains = 12;
constexpr std::int64_t kIters = 1 << 23;

using v4f = float __attribute__((vector_size(16)));
using v4u = std::uint32_t __attribute__((vector_size(16)));

#ifdef E2E_X86
__attribute__((target("avx2,fma"))) float fma_avx2(std::int64_t iters) {
    __m256 acc[kChains];
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_ps(0.001f * static_cast<float>(c));
    const __m256 a = _mm256_set1_ps(0.999f), b = _mm256_set1_ps(0.0001f);
    for (std::int64_t i = 0; i < iters; ++i)
#pragma GCC unroll 12
        for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_ps(acc[c], a, b);
    __m256 sum = acc[0];
    for (int c = 1; c < kChains; ++c) sum = _mm256_add_ps(sum, acc[c]);
    return _mm256_cvtss_f32(sum);
}

__attribute__((target("avx2"))) std::int32_t madd_avx2(std::int64_t iters) {
    __m256i acc[kChains];
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_epi16(static_cast<short>(c + 1));
    const __m256i b = _mm256_set1_epi16(3);
    // Each result feeds the next multiply (int32 lanes read as int16 pairs),
    // so nothing can be hoisted out of the loop.
    for (std::int64_t i = 0; i < iters; ++i)
#pragma GCC unroll 12
        for (int c = 0; c < kChains; ++c) acc[c] = _mm256_madd_epi16(acc[c], b);
    __m256i sum = acc[0];
    for (int c = 1; c < kChains; ++c) sum = _mm256_add_epi32(sum, acc[c]);
    return _mm256_cvtsi256_si32(sum);
}
#endif

float fma_generic(std::int64_t iters) {
    v4f acc[kChains];
    for (int c = 0; c < kChains; ++c) acc[c] = v4f{} + 0.001f * static_cast<float>(c);
    const v4f a = v4f{} + 0.999f, b = v4f{} + 0.0001f;
    for (std::int64_t i = 0; i < iters; ++i)
#pragma GCC unroll 12
        for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * a + b;
    float sum = 0.0f;
    for (int c = 0; c < kChains; ++c) sum += acc[c][0];
    return sum;
}

std::uint32_t madd_generic(std::int64_t iters) {
    v4u acc[kChains];
    for (int c = 0; c < kChains; ++c) acc[c] = v4u{} + static_cast<std::uint32_t>(c + 1);
    const v4u b = v4u{} + 3u;
    for (std::int64_t i = 0; i < iters; ++i)
#pragma GCC unroll 12
        for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * b + 1u;
    std::uint32_t sum = 0;
    for (int c = 0; c < kChains; ++c) sum += acc[c][0];
    return sum;
}

bool avx2_active() {
    return sky::core::active_simd_level() == sky::core::SimdLevel::kAvx2;
}

/// Runs `loop` on `threads` threads at once; best of three, in units of
/// `ops_per_iter` operations per loop iteration per thread, returned in G/s.
template <typename Loop>
double peak_rate(int threads, double ops_per_iter, Loop loop) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<double> sink(static_cast<std::size_t>(threads));
        std::vector<std::jthread> pool;  // joined on every way out, before sink dies
        const Clock::time_point t0 = Clock::now();
        for (int t = 0; t < threads; ++t)
            pool.emplace_back([&, t] { sink[static_cast<std::size_t>(t)] = loop(kIters); });
        pool.clear();
        const double s = ms_between(t0, Clock::now()) / 1e3;
        best = std::max(best, ops_per_iter * static_cast<double>(kIters) * threads / s / 1e9);
    }
    return best;
}

}  // namespace

double peak_fp32_gflops(int threads) {
#ifdef E2E_X86
    if (avx2_active())  // 8 lanes x 2 flops per FMA
        return peak_rate(threads, kChains * 8 * 2.0, fma_avx2);
#endif
    return peak_rate(threads, kChains * 4 * 2.0, fma_generic);
}

double peak_int16_gops(int threads) {
#ifdef E2E_X86
    if (avx2_active())  // 16 int16 products, each a multiply and an add
        return peak_rate(threads, kChains * 16 * 2.0, madd_avx2);
#endif
    return peak_rate(threads, kChains * 4 * 2.0, madd_generic);
}

}  // namespace e2e
