// The 2x2 max-pool kernel (core/maxpool.hpp) against the sequential scan it
// replaced, written out below, at every SIMD level and at 1, 2 and 4
// threads (the kernel runs inside parallel_for chunks, one plane per call):
//   * fp32 bit for bit on planes full of NaN (with a payload and a sign),
//     +-Inf, +-0 and ties, for every EpilogueAct;
//   * int32 words reaching both ends of a 24-bit grid and int16 words
//     reaching -32768 and 32767;
// over output widths 1 .. 2 * 16 + 3 (past two vectors plus a tail at
// every level's lane count), odd and even input widths, odd heights, and
// planes under two rows or columns, which write nothing.  Each output is
// written into a stale buffer with guard cells, which must come back
// untouched.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/maxpool.hpp"
#include "core/simd.hpp"
#include "core/thread_pool.hpp"
#include "nn/epilogue.hpp"
#include "simd_levels.hpp"
#include "tensor/rng.hpp"

namespace sky {
namespace {

/// Restores the dispatch level and the global pool when a test exits.
struct SimdGuard {
    core::SimdLevel saved = core::active_simd_level();
    ~SimdGuard() {
        core::set_simd_level(saved);
        core::ThreadPool::set_global_threads(0);
    }
};

constexpr int kMaxOutWidth = 2 * 16 + 3;  // 16: the widest vector, AVX2 int16
constexpr int kHeights[] = {2, 3, 5};
constexpr int kPlanes = 5;
constexpr int kGuard = 16;  // stale cells before and after the output planes

std::uint32_t bits(float v) {
    std::uint32_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

/// The sequential scan: each window starts at x00 and takes x01, x10, x11
/// in turn only when strictly greater.
template <class T>
void reference_plane(const T* x, int H, int W, T* y) {
    const int OH = H / 2, OW = W / 2;
    for (int oh = 0; oh < OH; ++oh)
        for (int ow = 0; ow < OW; ++ow) {
            const T* p = x + static_cast<std::int64_t>(2 * oh) * W + 2 * ow;
            T bv = p[0];
            for (const T c : {p[1], p[W], p[W + 1]})
                if (c > bv) bv = c;
            y[static_cast<std::int64_t>(oh) * OW + ow] = bv;
        }
}

/// Pools `planes` H x W planes of x at every level and 1/2/4 threads into a
/// stale buffer and hands each result to check(got, level/thread label).
template <class T, class Pool, class Check>
void run_everywhere(const std::vector<T>& x, int H, int W, T stale, const Pool& pool,
                    const Check& check) {
    const std::int64_t iplane = static_cast<std::int64_t>(H) * W;
    const std::int64_t oplane = static_cast<std::int64_t>(H / 2) * (W / 2);
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        for (int threads : {1, 2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            std::vector<T> buf(static_cast<std::size_t>(kPlanes * oplane + 2 * kGuard), stale);
            T* y = buf.data() + kGuard;
            core::parallel_for(0, kPlanes, 1, [&](std::int64_t p0, std::int64_t p1) {
                for (std::int64_t p = p0; p < p1; ++p)
                    pool(x.data() + p * iplane, y + p * oplane);
            });
            const std::string at = std::to_string(H) + "x" + std::to_string(W) + " @" +
                                   core::simd_level_name(lvl) + "/" +
                                   std::to_string(threads) + "t";
            check(y, at);
            for (int g = 0; g < kGuard; ++g) {
                ASSERT_EQ(std::memcmp(&buf[static_cast<std::size_t>(g)], &stale, sizeof(T)), 0)
                    << at << ": wrote before the planes";
                ASSERT_EQ(std::memcmp(&buf[buf.size() - 1 - static_cast<std::size_t>(g)],
                                      &stale, sizeof(T)),
                          0)
                    << at << ": wrote after the planes";
            }
        }
    }
}

/// Every input width that pools to `ow` outputs: even, and odd with the
/// trailing column dropped.
std::vector<int> widths_for(int ow) { return {2 * ow, 2 * ow + 1}; }

// ------------------------------------------------------------------ fp32 --

/// About half special values (a signed NaN with a payload, +-Inf, +-0) or
/// members of a small set, so NaN windows, +-0 ties and equal maxima are
/// common; the rest uniform in [-2, 2].
std::vector<float> floats(std::size_t n, Rng& rng) {
    float payload_nan = 0.0f;
    const std::uint32_t nan_bits = 0xFFC0BEEFu;  // -NaN, payload 0xBEEF
    std::memcpy(&payload_nan, &nan_bits, sizeof payload_nan);
    const float cases[] = {std::numeric_limits<float>::quiet_NaN(),
                           payload_nan,
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           0.0f,
                           -0.0f,
                           1.0f,
                           -1.0f};
    std::vector<float> v(n);
    for (float& e : v)
        e = rng.chance(0.5) ? cases[rng.uniform_int(0, 7)]
                            : static_cast<float>(rng.uniform(-2.0, 2.0));
    return v;
}

TEST(MaxPoolKernel, Fp32EqualsTheSequentialScanBitwiseAtEveryLevel) {
    SimdGuard guard;
    Rng rng(31);
    const nn::EpilogueAct acts[] = {nn::EpilogueAct::kNone, nn::EpilogueAct::kReLU,
                                    nn::EpilogueAct::kReLU6, nn::EpilogueAct::kLeaky,
                                    nn::EpilogueAct::kSigmoid};
    const float stale = -std::numeric_limits<float>::quiet_NaN();
    for (int ow = 1; ow <= kMaxOutWidth; ++ow)
        for (int W : widths_for(ow))
            for (int H : kHeights) {
                const std::int64_t iplane = static_cast<std::int64_t>(H) * W;
                const std::int64_t oplane = static_cast<std::int64_t>(H / 2) * ow;
                const std::vector<float> x = floats(static_cast<std::size_t>(kPlanes * iplane), rng);
                for (nn::EpilogueAct act : acts) {
                    // The scan, then the activation as its own pass.
                    std::vector<float> want(static_cast<std::size_t>(kPlanes * oplane));
                    for (int p = 0; p < kPlanes; ++p)
                        reference_plane(x.data() + p * iplane, H, W, want.data() + p * oplane);
                    nn::apply_epilogue(nn::Epilogue{act, 0.1f}, want.data(),
                                       static_cast<std::int64_t>(want.size()));
                    run_everywhere(
                        x, H, W, stale,
                        [&](const float* xp, float* yp) {
                            core::maxpool2x2(xp, H, W, act, 0.1f, yp);
                        },
                        [&](const float* y, const std::string& at) {
                            for (std::size_t i = 0; i < want.size(); ++i) {
                                // The pool copies its winner, so even a NaN
                                // keeps its bits; an activation's arithmetic
                                // may quiet a NaN's payload, which is not
                                // part of the contract.
                                if (act != nn::EpilogueAct::kNone && std::isnan(want[i]) &&
                                    std::isnan(y[i]))
                                    continue;
                                ASSERT_EQ(bits(y[i]), bits(want[i]))
                                    << at << " act " << static_cast<int>(act) << " idx " << i
                                    << ": " << y[i] << " vs " << want[i];
                            }
                        });
                }
            }
}

// ------------------------------------------------------------------- int --

/// Words in [lo, hi], a fifth of them at each end, so both ends and ties
/// are common.
template <class Word>
std::vector<Word> words(std::size_t n, Rng& rng, int lo, int hi) {
    std::vector<Word> v(n);
    for (Word& e : v) {
        const double u = rng.uniform();
        e = static_cast<Word>(u < 0.2 ? lo : u < 0.4 ? hi : rng.uniform_int(lo, hi));
    }
    return v;
}

template <class Word>
void expect_int_matches(int lo, int hi, std::uint64_t seed) {
    Rng rng(seed);
    const Word stale = static_cast<Word>(0x5A5A5A5A);
    for (int ow = 1; ow <= kMaxOutWidth; ++ow)
        for (int W : widths_for(ow))
            for (int H : kHeights) {
                const std::int64_t iplane = static_cast<std::int64_t>(H) * W;
                const std::int64_t oplane = static_cast<std::int64_t>(H / 2) * ow;
                const std::vector<Word> x =
                    words<Word>(static_cast<std::size_t>(kPlanes * iplane), rng, lo, hi);
                std::vector<Word> want(static_cast<std::size_t>(kPlanes * oplane));
                for (int p = 0; p < kPlanes; ++p)
                    reference_plane(x.data() + p * iplane, H, W, want.data() + p * oplane);
                run_everywhere(
                    x, H, W, stale,
                    [&](const Word* xp, Word* yp) { core::maxpool2x2(xp, H, W, yp); },
                    [&](const Word* y, const std::string& at) {
                        for (std::size_t i = 0; i < want.size(); ++i)
                            ASSERT_EQ(y[i], want[i]) << at << " idx " << i;
                    });
            }
}

TEST(MaxPoolKernel, Int32WordsEqualTheSequentialScanAtEveryLevel) {
    SimdGuard guard;
    expect_int_matches<std::int32_t>(-(1 << 23), (1 << 23) - 1, 32);  // a 24-bit grid
}

TEST(MaxPoolKernel, Int16WordsEqualTheSequentialScanAtEveryLevel) {
    SimdGuard guard;
    expect_int_matches<std::int16_t>(-32768, 32767, 33);
}

TEST(MaxPoolKernel, PlanesUnderTwoRowsOrColumnsWriteNothing) {
    SimdGuard guard;
    const std::vector<float> xf(64, 1.0f);
    const std::vector<std::int32_t> x32(64, 7);
    const std::vector<std::int16_t> x16(64, 7);
    const int shapes[][2] = {{0, 8}, {1, 8}, {1, 40}, {8, 0}, {8, 1}, {1, 1}, {0, 0}};
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        for (const auto& hw : shapes) {
            float yf = -1.0f;
            std::int32_t y32 = -1;
            std::int16_t y16 = -1;
            core::maxpool2x2(xf.data(), hw[0], hw[1], nn::EpilogueAct::kReLU, 0.0f, &yf);
            core::maxpool2x2(x32.data(), hw[0], hw[1], &y32);
            core::maxpool2x2(x16.data(), hw[0], hw[1], &y16);
            EXPECT_EQ(yf, -1.0f) << hw[0] << "x" << hw[1] << " @" << core::simd_level_name(lvl);
            EXPECT_EQ(y32, -1) << hw[0] << "x" << hw[1];
            EXPECT_EQ(y16, -1) << hw[0] << "x" << hw[1];
        }
    }
}

}  // namespace
}  // namespace sky
