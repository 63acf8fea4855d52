// Packed u8 x s8 GEMM engine (core/qgemm.hpp) and the int8 execution plan of
// quant::QEngine: kernel parity against an int64 reference, the store-mode
// requantization and its edge cases, bitwise invariance to thread count and SIMD level, and the
// auto-vs-reference oracle on whole networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "backbones/backbone.hpp"
#include "backbones/registry.hpp"
#include "core/gemm.hpp"
#include "core/qgemm.hpp"
#include "core/simd.hpp"
#include "core/thread_pool.hpp"
#include "deploy/fold_bn.hpp"
#include "detect/bbox.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dwconv.hpp"
#include "nn/graph.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "nn/shuffle.hpp"
#include "quant/lower.hpp"
#include "quant/qengine.hpp"
#include "simd_levels.hpp"
#include "skynet/detector.hpp"
#include "skynet/skynet_model.hpp"

namespace sky {
namespace {

struct SimdGuard {
    core::SimdLevel saved = core::active_simd_level();
    ~SimdGuard() { core::set_simd_level(saved); }
};

struct ThreadGuard {
    ~ThreadGuard() { core::ThreadPool::set_global_threads(0); }
};

/// Deterministic "random" s8 / u8 operands (no libc rand in tests).
std::vector<std::int8_t> make_a(int M, int K, std::uint32_t seed) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(M) * K);
    std::uint32_t s = seed * 2654435761u + 1u;
    for (auto& v : a) {
        s = s * 1664525u + 1013904223u;
        v = static_cast<std::int8_t>(s >> 24);  // full [-128, 127]
    }
    return a;
}

std::vector<std::uint8_t> make_b(int K, int N, std::uint32_t seed) {
    std::vector<std::uint8_t> b(static_cast<std::size_t>(K) * N);
    std::uint32_t s = seed * 2246822519u + 3u;
    for (auto& v : b) {
        s = s * 1664525u + 1013904223u;
        v = static_cast<std::uint8_t>(s >> 24);  // full [0, 255]
    }
    return b;
}

/// int64 reference product, C = A * B.
std::vector<std::int64_t> ref_gemm(int M, int K, int N,
                                   const std::vector<std::int8_t>& a,
                                   const std::vector<std::uint8_t>& b) {
    std::vector<std::int64_t> c(static_cast<std::size_t>(M) * N, 0);
    for (int m = 0; m < M; ++m)
        for (int k = 0; k < K; ++k)
            for (int n = 0; n < N; ++n)
                c[static_cast<std::size_t>(m) * N + n] +=
                    static_cast<std::int64_t>(a[static_cast<std::size_t>(m) * K + k]) *
                    b[static_cast<std::size_t>(k) * N + n];
    return c;
}

std::vector<std::int32_t> packed_gemm(int M, int K, int N,
                                      const std::vector<std::int8_t>& a,
                                      const std::vector<std::uint8_t>& b) {
    core::QPackedA pa;
    core::QPackedB pb;
    core::qpack_a(M, K, a.data(), pa);
    core::qpack_b(K, N, b.data(), pb);
    std::vector<std::int32_t> c(static_cast<std::size_t>(M) * N, 0);
    core::qgemm_packed(pa, pb, c.data());
    return c;
}

// ------------------------------------------------------------ micro-kernel --

TEST(QGemm, PackedParityVsInt64Reference) {
    // Odd/even K, sub-tile and multi-tile M/N, including exact tile multiples
    // and one row and column either side of the tile (for the 10 x 32 tile
    // at every level: M = 9/11, N = 31/33).
    const int mr = core::qgemm_mr(), nr = core::qgemm_nr();
    const int shapes[][3] = {{1, 1, 1},          {3, 5, 7},         {mr, 2, nr},
                             {2 * mr, 8, 3 * nr}, {13, 33, 29},      {17, 64, 40},
                             {mr - 1, 9, nr - 1}, {mr + 1, 10, nr + 1}, {9, 13, 31},
                             {11, 6, 33}};
    for (const auto& s : shapes) {
        const int M = s[0], K = s[1], N = s[2];
        const auto a = make_a(M, K, static_cast<std::uint32_t>(M * 131 + K));
        const auto b = make_b(K, N, static_cast<std::uint32_t>(N * 17 + K));
        const auto ref = ref_gemm(M, K, N, a, b);
        const auto got = packed_gemm(M, K, N, a, b);
        for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_GE(ref[i], std::numeric_limits<std::int32_t>::min());
            ASSERT_LE(ref[i], std::numeric_limits<std::int32_t>::max());
            ASSERT_EQ(got[i], static_cast<std::int32_t>(ref[i]))
                << M << "x" << K << "x" << N << " @" << i << " ("
                << core::qgemm_kernel_name() << ")";
        }
    }
}

TEST(QGemm, AccumulatesIntoC) {
    const auto a = make_a(4, 6, 1);
    const auto b = make_b(6, 9, 2);
    core::QPackedA pa;
    core::QPackedB pb;
    core::qpack_a(4, 6, a.data(), pa);
    core::qpack_b(6, 9, b.data(), pb);
    std::vector<std::int32_t> c(36, 100);  // += semantics over a warm C
    core::qgemm_packed(pa, pb, c.data());
    const auto ref = ref_gemm(4, 6, 9, a, b);
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(c[i], static_cast<std::int32_t>(ref[i]) + 100);
}

TEST(QGemm, StoreModeRequantizeIsAccumulateThenRequantize) {
    // clamp(round_shift(bias + A*B, shift), lo, hi) written from the register
    // tile must be bitwise the accumulating kernel followed by an int64
    // requantize pass.  Every row but the big-bias one passes the int32
    // proof (255 * rowabs <= 255 * 64 * 128 is far below 2^31), so the vector
    // levels run both the register path and the int64 spill.
    SimdGuard sguard;
    ThreadGuard tguard;
    struct Clamp {
        std::int32_t lo, hi;
    };
    // A 9-bit grid at 5 fractional bits: saturation, a fused ReLU, a fused ReLU6.
    const Clamp clamps[] = {{-256, 255}, {0, 255}, {0, 192}};
    std::int64_t negative = 0, negative_ties = 0, positive_ties = 0, wide = 0;
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        ASSERT_EQ(core::set_simd_level(lvl), lvl);
        const int mr = core::qgemm_mr(), nr = core::qgemm_nr();
        // PackedParityVsInt64Reference's shapes, plus K = 0.
        const int shapes[][3] = {{1, 1, 1},          {3, 5, 7},           {mr, 2, nr},
                                 {2 * mr, 8, 3 * nr}, {13, 33, 29},        {17, 64, 40},
                                 {mr - 1, 9, nr - 1}, {mr + 1, 10, nr + 1}, {9, 13, 31},
                                 {11, 6, 33},         {5, 0, 3}};
        for (int threads : {1, 2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            for (const auto& s : shapes) {
                const int M = s[0], K = s[1], N = s[2];
                const auto a = make_a(M, K, static_cast<std::uint32_t>(M * 131 + K));
                const auto b = make_b(K, N, static_cast<std::uint32_t>(N * 17 + K));
                core::QPackedA pa;
                core::QPackedB pb;
                core::qpack_a(M, K, a.data(), pa);
                core::qpack_b(K, N, b.data(), pb);
                std::vector<std::int32_t> acc(static_cast<std::size_t>(M) * N, 0);
                core::qgemm_packed(pa, pb, acc.data());
                for (const int shift : {1, 6, 11}) {
                    // Zero, positive and negative rows; the last row's biased
                    // accumulator lies past int32.
                    std::vector<std::int64_t> bias(static_cast<std::size_t>(M));
                    for (int m = 0; m < M; ++m)
                        bias[static_cast<std::size_t>(m)] =
                            m % 3 == 0 ? 0 : ((m * 37) % 23 - 11) * (std::int64_t{1} << shift);
                    if (M > 1) bias.back() = -(std::int64_t{3} << 31);
                    for (const Clamp& c : clamps) {
                        for (const bool with_bias : {true, false}) {
                            const core::QEpilogue rq{with_bias ? bias.data() : nullptr, shift,
                                                     c.lo, c.hi};
                            // Store mode never reads C: start from garbage.
                            std::vector<std::int32_t> got(acc.size(), 0x5a5a5a5a);
                            core::qgemm_packed(pa, pb, got.data(), rq);
                            for (int m = 0; m < M; ++m)
                                for (int n = 0; n < N; ++n) {
                                    const auto i = static_cast<std::size_t>(m) * N + n;
                                    const std::int64_t v =
                                        (with_bias ? bias[static_cast<std::size_t>(m)] : 0) +
                                        acc[i];
                                    const std::int64_t r = quant::round_shift(v, shift);
                                    ASSERT_EQ(got[i], std::clamp<std::int64_t>(r, c.lo, c.hi))
                                        << M << "x" << K << "x" << N << " @" << i << " shift "
                                        << shift << " clamp [" << c.lo << ", " << c.hi
                                        << "] bias " << with_bias << " ("
                                        << core::qgemm_kernel_name() << ", " << threads
                                        << " threads)";
                                    // What the data covered, inside the clamp.
                                    const bool tie = (v & ((std::int64_t{1} << shift) - 1)) ==
                                                     (std::int64_t{1} << (shift - 1));
                                    const bool inside = r > c.lo && r < c.hi;
                                    negative += v < 0;
                                    negative_ties += tie && v < 0 && inside;
                                    positive_ties += tie && v > 0 && inside;
                                    wide += v <= std::numeric_limits<std::int32_t>::min();
                                }
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(negative, 0);
    EXPECT_GT(negative_ties, 0);
    EXPECT_GT(positive_ties, 0);
    EXPECT_GT(wide, 0);
}

TEST(QGemm, Int16StoreEqualsTheInt32StoreBitwise) {
    // The int16 store writes each value the int32 store writes from the
    // same register tile, narrowed: full and partial tiles, K = 0, the int32
    // register path and the int64 spill (the last row's bias), with values
    // clamped at both ends of the 16-bit word.  Nothing lands outside C.
    SimdGuard sguard;
    ThreadGuard tguard;
    struct Clamp {
        std::int32_t lo, hi;
    };
    // A 16-bit grid, a 9-bit grid and a fused ReLU6 on it.
    const Clamp clamps[] = {{-32768, 32767}, {-256, 255}, {0, 192}};
    constexpr int kGuard = 16;
    constexpr std::int16_t kStale = 0x5A5A;
    std::int64_t word_lo = 0, word_hi = 0;
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        ASSERT_EQ(core::set_simd_level(lvl), lvl);
        const int mr = core::qgemm_mr(), nr = core::qgemm_nr();
        const int shapes[][3] = {{1, 1, 1},          {3, 5, 7},            {mr, 2, nr},
                                 {2 * mr, 8, 3 * nr}, {13, 33, 29},         {17, 64, 40},
                                 {mr + 1, 31, nr + 3}, {mr - 1, 9, nr - 1}, {9, 13, 31},
                                 {11, 6, 33},         {5, 0, 3}};
        for (int threads : {1, 2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            for (const auto& s : shapes) {
                const int M = s[0], K = s[1], N = s[2];
                const auto a = make_a(M, K, static_cast<std::uint32_t>(M * 71 + K));
                const auto b = make_b(K, N, static_cast<std::uint32_t>(N * 13 + K));
                core::QPackedA pa;
                core::QPackedB pb;
                core::qpack_a(M, K, a.data(), pa);
                core::qpack_b(K, N, b.data(), pb);
                const std::size_t count = static_cast<std::size_t>(M) * N;
                for (const int shift : {1, 6}) {
                    std::vector<std::int64_t> bias(static_cast<std::size_t>(M));
                    for (int m = 0; m < M; ++m)
                        bias[static_cast<std::size_t>(m)] =
                            ((m * 29) % 17 - 8) * (std::int64_t{1} << (shift + 4));
                    if (M > 1) bias.back() = std::int64_t{3} << 31;
                    for (const Clamp& c : clamps) {
                        const core::QEpilogue rq{bias.data(), shift, c.lo, c.hi};
                        std::vector<std::int32_t> want(count, 0x5a5a5a5a);
                        core::qgemm_packed(pa, pb, want.data(), rq);
                        std::vector<std::int16_t> buf(count + 2 * kGuard, kStale);
                        core::qgemm_packed(pa, pb, buf.data() + kGuard, rq);
                        const std::string at = std::to_string(M) + "x" + std::to_string(K) +
                                               "x" + std::to_string(N) + " shift " +
                                               std::to_string(shift) + " clamp [" +
                                               std::to_string(c.lo) + ", " +
                                               std::to_string(c.hi) + "] (" +
                                               core::qgemm_kernel_name() + ", " +
                                               std::to_string(threads) + " threads)";
                        for (std::size_t i = 0; i < count; ++i) {
                            ASSERT_EQ(buf[kGuard + i], want[i]) << at << " @" << i;
                            word_lo += want[i] == -32768;
                            word_hi += want[i] == 32767;
                        }
                        for (int g = 0; g < kGuard; ++g) {
                            ASSERT_EQ(buf[static_cast<std::size_t>(g)], kStale) << at;
                            ASSERT_EQ(buf[buf.size() - 1 - static_cast<std::size_t>(g)], kStale)
                                << at;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(word_lo, 0);
    EXPECT_GT(word_hi, 0);
    // A clamp the word cannot hold is refused before anything is written.
    const auto a = make_a(2, 3, 1);
    const auto b = make_b(3, 2, 2);
    core::QPackedA pa;
    core::QPackedB pb;
    core::qpack_a(2, 3, a.data(), pa);
    core::qpack_b(3, 2, b.data(), pb);
    std::vector<std::int16_t> c(4, kStale);
    EXPECT_THROW(core::qgemm_packed(pa, pb, c.data(), core::QEpilogue{nullptr, 1, -32769, 0}),
                 std::invalid_argument);
    EXPECT_THROW(core::qgemm_packed(pa, pb, c.data(), core::QEpilogue{nullptr, 1, 0, 32768}),
                 std::invalid_argument);
    EXPECT_EQ(c, std::vector<std::int16_t>(4, kStale));
}

TEST(QGemm, RowsumRecordsRealTaps) {
    const int M = 5, K = 7;  // odd K: the phantom tap must not leak in
    const auto a = make_a(M, K, 9);
    core::QPackedA pa;
    core::qpack_a(M, K, a.data(), pa);
    ASSERT_EQ(pa.rowsum.size(), static_cast<std::size_t>(M));
    for (int m = 0; m < M; ++m) {
        std::int32_t want = 0;
        for (int k = 0; k < K; ++k) want += a[static_cast<std::size_t>(m) * K + k];
        EXPECT_EQ(pa.rowsum[static_cast<std::size_t>(m)], want) << m;
    }
}

TEST(QGemm, BitwiseInvariantAcrossSimdLevels) {
    SimdGuard guard;
    // Partial and whole tiles of every geometry (4x4, 4x8, 6x16, 10x32).
    const int shapes[][3] = {{19, 31, 37}, {21, 16, 33}, {9, 7, 31}, {11, 8, 32}};
    for (const auto& s : shapes) {
        const int M = s[0], K = s[1], N = s[2];
        const auto a = make_a(M, K, static_cast<std::uint32_t>(5 + M));
        const auto b = make_b(K, N, static_cast<std::uint32_t>(6 + N));
        std::vector<std::int32_t> baseline;
        for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
            ASSERT_EQ(core::set_simd_level(lvl), lvl);
            const auto c = packed_gemm(M, K, N, a, b);  // re-packs per geometry
            if (baseline.empty())
                baseline = c;
            else
                EXPECT_EQ(c, baseline) << core::simd_level_name(lvl) << " " << M << "x" << K
                                       << "x" << N;
        }
    }
}

TEST(QGemm, TilesAsWideAsTheFp32KernelsAtEveryLevel) {
    // core::for_each_band rounds a pointwise conv's bands to the fp32 tile
    // width, so both datapaths' bands end in whole panels only if the
    // integer tile is as wide at every level.
    SimdGuard guard;
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        ASSERT_EQ(core::set_simd_level(lvl), lvl);
        EXPECT_EQ(core::qgemm_nr(), core::gemm_nr()) << core::simd_level_name(lvl);
        EXPECT_STREQ(core::qgemm_kernel_name(), core::simd_level_name(lvl));
    }
}

TEST(QGemm, BitwiseInvariantAcrossThreadCounts) {
    ThreadGuard guard;
    const int M = 33, K = 21, N = 65;
    const auto a = make_a(M, K, 7);
    const auto b = make_b(K, N, 8);
    std::vector<std::int32_t> baseline;
    for (int threads : {1, 2, 4}) {
        core::ThreadPool::set_global_threads(threads);
        const auto c = packed_gemm(M, K, N, a, b);
        if (baseline.empty())
            baseline = c;
        else
            EXPECT_EQ(c, baseline) << threads << " threads";
    }
}

/// The column matrix of one CHW image as row-major u8 (x - lo per tap, and
/// 0 - lo for a padded tap): what qim2col_packed lowers before packing.
std::vector<std::uint8_t> lowered_u8(const std::vector<std::int32_t>& img, int C, int H, int W,
                                     int k, int stride, int pad, int OH, int OW,
                                     std::int32_t lo) {
    std::vector<std::uint8_t> cols(static_cast<std::size_t>(C) * k * k * OH * OW, 0);
    for (int c = 0; c < C; ++c)
        for (int kh = 0; kh < k; ++kh)
            for (int kw = 0; kw < k; ++kw) {
                const int row = (c * k + kh) * k + kw;
                for (int oh = 0; oh < OH; ++oh)
                    for (int ow = 0; ow < OW; ++ow) {
                        const int ih = oh * stride - pad + kh;
                        const int iw = ow * stride - pad + kw;
                        const std::int32_t x =
                            (ih < 0 || ih >= H || iw < 0 || iw >= W)
                                ? 0
                                : img[static_cast<std::size_t>(c * H + ih) * W + iw];
                        cols[static_cast<std::size_t>(row) * OH * OW + oh * OW + ow] =
                            static_cast<std::uint8_t>(x - lo);
                    }
            }
    return cols;
}

TEST(QGemm, Im2colPackedMatchesManualLowering) {
    // 2-channel 5x4 image, 3x3 kernel, stride 1, pad 1, zero-point -3.
    const int C = 2, H = 5, W = 4, k = 3, stride = 1, pad = 1;
    const int OH = 5, OW = 4, K = C * k * k;
    std::vector<std::int32_t> img(static_cast<std::size_t>(C) * H * W);
    for (std::size_t i = 0; i < img.size(); ++i)
        img[i] = static_cast<std::int32_t>(i * 7 % 250) - 3;  // in [lo, lo+255]
    const std::int32_t lo = -3;
    // Manual im2col to row-major u8, then qpack_b.
    const std::vector<std::uint8_t> cols = lowered_u8(img, C, H, W, k, stride, pad, OH, OW, lo);
    core::QPackedB want, got, got16;
    core::qpack_b(K, OH * OW, cols.data(), want);
    core::qim2col_packed(img.data(), C, H, W, k, stride, pad, OH, OW, lo, got);
    EXPECT_EQ(got.K, want.K);
    EXPECT_EQ(got.N, want.N);
    EXPECT_EQ(got.data, want.data);
    // The same image stored as int16 words lowers to the same panel.
    const std::vector<std::int16_t> img16(img.begin(), img.end());
    core::qim2col_packed(img16.data(), C, H, W, k, stride, pad, OH, OW, lo, got16);
    EXPECT_EQ(got16.K, want.K);
    EXPECT_EQ(got16.N, want.N);
    EXPECT_EQ(got16.data, want.data);
}

TEST(QGemm, WindowLoweringAndStridedStoresEqualTheirDenseCopies) {
    // The int8 band of a pointwise conv: N columns at offset c0 of C channel
    // rows `ld` words apart, lowered in place and stored into the same
    // columns of M output rows, in int16 and int32 words, against the
    // generic k = 1 lowering of a dense copy of those columns.
    SimdGuard guard;
    const int M = 9, C = 5, ld = 203;
    const std::int32_t lo = -20;
    std::vector<std::int32_t> img(static_cast<std::size_t>(C) * ld);
    for (std::size_t i = 0; i < img.size(); ++i)
        img[i] = lo + static_cast<std::int32_t>((i * 37 + 11) % 256);
    const std::vector<std::int16_t> img16(img.begin(), img.end());
    std::vector<std::int32_t> w(static_cast<std::size_t>(M) * C);
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<std::int32_t>(i % 23) - 11;
    const std::vector<std::int64_t> bias(M, 300);
    const core::QEpilogue rq{bias.data(), 4, -200, 900};
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        ASSERT_EQ(core::set_simd_level(lvl), lvl);
        core::QPackedA pa;
        core::qpack_a_wide(M, C, w.data(), pa);
        for (const auto& [c0, N] : {std::pair{0, 200}, std::pair{100, 45}, std::pair{7, 1}}) {
            SCOPED_TRACE(std::string(core::simd_level_name(lvl)) + " c0 " + std::to_string(c0));
            std::vector<std::int32_t> copy(static_cast<std::size_t>(C) * N);
            for (int c = 0; c < C; ++c)
                std::copy_n(img.data() + static_cast<std::size_t>(c) * ld + c0, N,
                            copy.data() + static_cast<std::size_t>(c) * N);
            core::QPackedB dense, window, window16;
            core::qim2col_packed(copy.data(), C, 1, N, 1, 1, 0, 1, N, lo, dense);
            core::qim2col_packed(img.data() + c0, C, N, ld, lo, window);
            core::qim2col_packed(img16.data() + c0, C, N, ld, lo, window16);
            EXPECT_EQ(window.data, dense.data);
            EXPECT_EQ(window16.data, dense.data);
            std::vector<std::int32_t> want(static_cast<std::size_t>(M) * N);
            core::qgemm_packed(pa, dense, want.data(), rq);
            std::vector<std::int32_t> got(static_cast<std::size_t>(M) * ld, -7);
            std::vector<std::int16_t> got16(static_cast<std::size_t>(M) * ld, -7);
            core::qgemm_packed(pa, window, got.data() + c0, ld, rq);
            core::qgemm_packed(pa, window, got16.data() + c0, ld, rq);
            for (int m = 0; m < M; ++m)
                for (int n = 0; n < ld; ++n) {
                    const std::size_t i = static_cast<std::size_t>(m) * ld + n;
                    const std::int32_t v = n < c0 || n >= c0 + N
                                               ? -7
                                               : want[static_cast<std::size_t>(m) * N + n - c0];
                    ASSERT_EQ(got[i], v) << m << ", " << n;
                    ASSERT_EQ(got16[i], v) << m << ", " << n;
                }
        }
    }
}

TEST(QGemm, Im2colPackedOverALargerStalePackEqualsQPackB) {
    // qim2col_packed writes every byte of its panels, zeros included only in
    // the padding (the odd-K phantom lane, the last panel's columns past N),
    // so a QPackedB a larger conv filled last, then poisoned, must come back
    // byte for byte qpack_b's.  Odd K and an N no level's nr divides, through
    // the generic lowering and, for the 1x1 cases, the pointwise window
    // lowering over the whole plane, over both words, at every level and
    // 1/2/4 threads.
    SimdGuard simd;
    ThreadGuard threads_guard;
    struct Case {
        int C, H, W, k, stride, pad;
    };
    const Case cases[] = {{5, 7, 9, 1, 1, 0},   // pointwise: K 5, N 63
                          {4, 5, 11, 1, 1, 0},  // pointwise, even K: N 55
                          {3, 5, 7, 3, 1, 1},   // generic: K 27, N 35
                          {3, 6, 5, 3, 2, 1}};  // generic, stride 2: N 9
    const std::int32_t lo = -3;
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        for (int threads : {1, 2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            for (const Case& c : cases) {
                const int OH = (c.H + 2 * c.pad - c.k) / c.stride + 1;
                const int OW = (c.W + 2 * c.pad - c.k) / c.stride + 1;
                const int K = c.C * c.k * c.k;
                std::vector<std::int32_t> img(static_cast<std::size_t>(c.C) * c.H * c.W);
                for (std::size_t i = 0; i < img.size(); ++i)
                    img[i] = static_cast<std::int32_t>((i * 37 + 11) % 256) + lo;
                core::QPackedB want;
                const std::vector<std::uint8_t> cols =
                    lowered_u8(img, c.C, c.H, c.W, c.k, c.stride, c.pad, OH, OW, lo);
                core::qpack_b(K, OH * OW, cols.data(), want);
                // A larger conv of the same kind fills the panel last.
                const int BC = c.C + 3, BH = c.H + 4, BW = c.W + 6;
                const int BOH = (BH + 2 * c.pad - c.k) / c.stride + 1;
                const int BOW = (BW + 2 * c.pad - c.k) / c.stride + 1;
                const std::vector<std::int32_t> big(static_cast<std::size_t>(BC) * BH * BW, 0);
                const std::vector<std::int16_t> big16(big.begin(), big.end());
                const std::vector<std::int16_t> img16(img.begin(), img.end());
                const std::string at = std::string(core::simd_level_name(lvl)) + "/" +
                                       std::to_string(threads) + "t K " + std::to_string(K) +
                                       " N " + std::to_string(OH * OW);
                core::QPackedB got;
                core::qim2col_packed(big.data(), BC, BH, BW, c.k, c.stride, c.pad, BOH, BOW, lo,
                                     got);
                ASSERT_GT(got.data.size(), want.data.size()) << at;
                std::fill(got.data.begin(), got.data.end(), std::uint8_t{0xA5});
                core::qim2col_packed(img.data(), c.C, c.H, c.W, c.k, c.stride, c.pad, OH, OW, lo,
                                     got);
                EXPECT_EQ(got.data, want.data) << "int32 words " << at;
                core::qim2col_packed(big16.data(), BC, BH, BW, c.k, c.stride, c.pad, BOH, BOW,
                                     lo, got);
                std::fill(got.data.begin(), got.data.end(), std::uint8_t{0xA5});
                core::qim2col_packed(img16.data(), c.C, c.H, c.W, c.k, c.stride, c.pad, OH, OW,
                                     lo, got);
                EXPECT_EQ(got.data, want.data) << "int16 words " << at;
                if (c.k != 1) continue;
                const int plane = c.H * c.W;
                core::qim2col_packed(big.data(), BC, BH * BW, BH * BW, lo, got);
                std::fill(got.data.begin(), got.data.end(), std::uint8_t{0xA5});
                core::qim2col_packed(img.data(), c.C, plane, plane, lo, got);
                EXPECT_EQ(got.data, want.data) << "int32 window " << at;
                core::qim2col_packed(big16.data(), BC, BH * BW, BH * BW, lo, got);
                std::fill(got.data.begin(), got.data.end(), std::uint8_t{0xA5});
                core::qim2col_packed(img16.data(), c.C, plane, plane, lo, got);
                EXPECT_EQ(got.data, want.data) << "int16 window " << at;
            }
        }
    }
}

TEST(QGemm, RejectsMismatchedAndOversizedOperands) {
    const auto a = make_a(2, 4, 1);
    const auto b = make_b(6, 3, 2);
    core::QPackedA pa;
    core::QPackedB pb;
    core::qpack_a(2, 4, a.data(), pa);
    core::qpack_b(6, 3, b.data(), pb);
    std::vector<std::int32_t> c(6, 0);
    EXPECT_THROW(core::qgemm_packed(pa, pb, c.data()), std::invalid_argument);
    core::QPackedA stale = pa;
    stale.mr = pa.mr + 1;  // packed for a different kernel geometry
    core::QPackedB pb4;
    core::qpack_b(4, 3, b.data(), pb4);
    EXPECT_THROW(core::qgemm_packed(stale, pb4, c.data()), std::logic_error);
    EXPECT_GT(core::qgemm_max_k(), 0);
}

// ----------------------------------------------- requantization primitives --

TEST(Requantize, RoundShiftTiesAwayFromZero) {
    using quant::round_shift;
    EXPECT_EQ(round_shift(5, 1), 3);    // 2.5 -> 3
    EXPECT_EQ(round_shift(-5, 1), -3);  // -2.5 -> -3
    EXPECT_EQ(round_shift(4, 1), 2);
    EXPECT_EQ(round_shift(-4, 1), -2);
    EXPECT_EQ(round_shift(3, 2), 1);   // 0.75 -> 1
    EXPECT_EQ(round_shift(-3, 2), -1);
    EXPECT_EQ(round_shift(1, 2), 0);   // 0.25 -> 0
    EXPECT_EQ(round_shift(7, 0), 7);   // no-op
    EXPECT_EQ(round_shift(7, -2), 28);  // negative shift is exact scaling
}

TEST(Requantize, SaturateClampsToWordWidth) {
    using quant::saturate;
    EXPECT_EQ(saturate(130, 8), 127);
    EXPECT_EQ(saturate(-129, 8), -128);
    EXPECT_EQ(saturate(-128, 8), -128);
    EXPECT_EQ(saturate(std::numeric_limits<std::int64_t>::max(), 32),
              std::numeric_limits<std::int32_t>::max());
    EXPECT_EQ(saturate(std::numeric_limits<std::int64_t>::min(), 32),
              std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(saturate(1, 2), 1);
    EXPECT_EQ(saturate(2, 2), 1);
    EXPECT_EQ(saturate(-3, 2), -2);
}

// ------------------------------------------------------ engine-level oracle --

quant::QuantConfig scheme(int fm, int w, quant::QExecution e) {
    return quant::QuantConfig{}.with_bits(fm, w).with_fm_abs_max(8.0f).with_execution(
        e);
}

SkyNetModel folded_model(SkyNetVariant v, std::uint64_t seed, float width = 0.2f) {
    Rng rng(seed);
    SkyNetModel m = build_skynet({v, nn::Act::kReLU6, 2, width}, rng);
    m.net->set_training(true);
    Rng wr(77);
    for (int i = 0; i < 3; ++i) {
        Tensor x({2, 3, 32, 64});
        x.rand_uniform(wr, 0.0f, 1.0f);
        (void)m.net->forward(x);
    }
    m.net->set_training(false);
    deploy::fold_graph_bn(*m.net);
    return m;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
    ASSERT_EQ(a.shape(), b.shape());
    for (std::int64_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << what << " @" << i;
}

TEST(QEngineOracle, AutoIsBitTrueToReferenceOnSkyNet) {
    for (SkyNetVariant v : {SkyNetVariant::kA, SkyNetVariant::kC}) {
        SkyNetModel m = folded_model(v, 21);
        quant::QEngine fast(*m.net, scheme(9, 11, quant::QExecution::kAuto));
        quant::QEngine oracle(*m.net, scheme(9, 11, quant::QExecution::kReference));
        ASSERT_GT(fast.report().qgemm_layers, 0) << "plan never took the int8 path";
        EXPECT_EQ(oracle.report().qgemm_layers, 0);
        Tensor x({2, 3, 32, 64});
        Rng xr(22);
        x.rand_uniform(xr, 0.0f, 1.0f);
        expect_bitwise_equal(fast.run(x), oracle.run(x), "skynet auto-vs-ref");
    }
}

TEST(QEngineOracle, NarrowAndWideWeightFormatsStayExact) {
    SkyNetModel m = folded_model(SkyNetVariant::kA, 31);
    for (int wbits : {6, 8, 11, 15}) {
        quant::QEngine fast(*m.net,
                            scheme(9, wbits, quant::QExecution::kAuto));
        quant::QEngine oracle(*m.net,
                              scheme(9, wbits, quant::QExecution::kReference));
        Tensor x({1, 3, 32, 64});
        Rng xr(static_cast<std::uint64_t>(wbits));
        x.rand_uniform(xr, 0.0f, 1.0f);
        expect_bitwise_equal(fast.run(x), oracle.run(x), "wide weights");
    }
}

TEST(QEngineOracle, WidestSchemeTracksFp32) {
    // 24-bit words are the widest scheme the engine accepts: every int64
    // product its proofs and reference accumulators form stays exact there.
    Rng rng(81);
    SkyNetModel m = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    m.net->set_training(false);
    deploy::fold_graph_bn(*m.net);
    Tensor x({1, 3, 32, 64});
    Rng xr(82);
    x.rand_uniform(xr, 0.0f, 1.0f);
    const Tensor ref = m.net->forward(x);
    for (const quant::QExecution e : {quant::QExecution::kAuto, quant::QExecution::kReference}) {
        quant::QEngine engine(*m.net, scheme(24, 24, e));
        const Tensor y = engine.run(x);
        ASSERT_EQ(y.shape(), ref.shape());
        double dev = 0.0;
        for (std::int64_t i = 0; i < y.size(); ++i)
            dev = std::max(dev, std::abs(static_cast<double>(y[i]) - ref[i]));
        EXPECT_LT(dev, 1e-4) << quant::qexecution_name(e);
    }
}

TEST(QEngineOracle, AutoIsBitTrueToReferenceOnTheAlexNetClassifier) {
    // The Fig. 2a proxy: five convs and three Linear layers, which lower to
    // integer 1x1 convs over the flattened input.
    Rng rng(3);
    std::unique_ptr<nn::Graph> g = backbones::build_alexnet_classifier(10, 32, 0.25f, rng);
    g->set_training(false);
    deploy::fold_graph_bn(*g);
    quant::QEngine fast(*g, scheme(9, 11, quant::QExecution::kAuto));
    quant::QEngine oracle(*g, scheme(9, 11, quant::QExecution::kReference));
    EXPECT_EQ(fast.report().qgemm_layers, 8) << fast.report().summary();
    EXPECT_EQ(fast.report().ref_layers, 0);
    Tensor x({4, 3, 32, 32});
    Rng xr(4);
    x.rand_uniform(xr, 0.0f, 1.0f);
    const Tensor y = fast.run(x);
    EXPECT_EQ(y.shape(), (Shape{4, 10, 1, 1}));
    expect_bitwise_equal(y, oracle.run(x), "alexnet classifier auto-vs-ref");
    for (quant::QEngine* e : {&fast, &oracle})
        EXPECT_EQ(e->measured_peak_bytes(), e->plan_activations(x.shape()).peak_bytes);
}

TEST(QEngineOracle, CustomGraphWithAddRunsBitTrue) {
    // conv(pad) -> relu feeds both an add and the output: exercises the
    // negative zero-point (inputs span [-1, 1]), the consumer-count guard on
    // activation fusion, and the full-range conv after an add.
    Rng rng(3);
    nn::Graph g;
    const int c1 = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, true, rng), 0);
    const int r1 = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), c1);
    const int c2 = g.add(std::make_unique<nn::Conv2d>(8, 8, 3, 1, 1, false, rng), r1);
    const int a = g.add_add(r1, c2);
    const int c3 = g.add(std::make_unique<nn::Conv2d>(8, 4, 1, 1, 0, true, rng), a);
    g.set_output(c3);
    const quant::QuantConfig base =
        quant::QuantConfig{}.with_bits(9, 11).with_fm_abs_max(8.0f).with_input_range(
            -1.0f, 1.0f);
    quant::QEngine fast(g, base.with_execution(quant::QExecution::kAuto));
    quant::QEngine oracle(g, base.with_execution(quant::QExecution::kReference));
    EXPECT_GT(fast.report().qgemm_layers, 0);
    EXPECT_GT(fast.report().ref_layers, 0);  // conv after add: span too wide
    Tensor x({2, 3, 16, 16});
    Rng xr(4);
    x.rand_uniform(xr, -1.0f, 1.0f);
    expect_bitwise_equal(fast.run(x), oracle.run(x), "custom graph");
}

TEST(QEngineOracle, DwConvBiasCountsInItsInt32Proof) {
    // A folded BN's shift is the dwconv's bias at accumulator scale.  Where
    // the bias, not the taps, breaks 9 * max|w| * max|x| + max|b| +
    // 2^(shift-1) < 2^31, the int32 kernel must not run; the engine stays
    // bit-true either way.
    Rng rng(13);
    for (const float shift : {0.5f, 5000.0f}) {
        SCOPED_TRACE(shift);
        nn::Graph g;
        auto dw = std::make_unique<nn::DWConv3>(2, rng);
        dw->enable_bias();
        dw->bias()[0] = shift;
        dw->bias()[1] = -shift;
        g.add(std::move(dw), 0);
        const quant::QuantConfig base =
            quant::QuantConfig{}.with_bits(16, 11).with_fm_abs_max(8.0f).with_input_range(
                -1.0f, 1.0f);
        const quant::Program p = quant::lower(g, base);
        const quant::Op& op = p.ops[1];
        ASSERT_EQ(op.qbias.size(), 2u);
        const std::int64_t taps = 9 * op.wmax * -static_cast<std::int64_t>(p.spec.grid_lo) +
                                  (std::int64_t{1} << (op.wfmt.frac_bits - 1));
        ASSERT_LT(taps, std::int64_t{1} << 31);
        EXPECT_EQ(taps + std::abs(op.qbias[0]) < (std::int64_t{1} << 31), shift < 1.0f);
        quant::QEngine fast(g, base.with_execution(quant::QExecution::kAuto));
        quant::QEngine oracle(g, base.with_execution(quant::QExecution::kReference));
        Tensor x({2, 2, 9, 11});
        Rng xr(14);
        x.rand_uniform(xr, -1.0f, 1.0f);
        expect_bitwise_equal(fast.run(x), oracle.run(x), "biased dwconv");
    }
}

TEST(QEngineOracle, OutOfDeclaredRangeInputFallsBackBitTrue) {
    SkyNetModel m = folded_model(SkyNetVariant::kA, 41);
    quant::QEngine fast(*m.net, scheme(9, 11, quant::QExecution::kAuto));
    quant::QEngine oracle(*m.net, scheme(9, 11, quant::QExecution::kReference));
    Tensor in_range({1, 3, 32, 64});
    Rng ir(43);
    in_range.rand_uniform(ir, 0.0f, 1.0f);
    (void)fast.run(in_range);
    EXPECT_EQ(fast.reference_fallbacks(), 0);
    Tensor x({1, 3, 32, 64});
    Rng xr(42);
    x.rand_uniform(xr, -2.0f, 2.0f);  // declared range is [0, 1]
    expect_bitwise_equal(fast.run(x), oracle.run(x), "out-of-range fallback");
    EXPECT_EQ(fast.reference_fallbacks(), 1);
    EXPECT_EQ(oracle.reference_fallbacks(), 0);  // no qgemm plan to leave
}

TEST(QEngineOracle, EngineIsBitwiseInvariantToThreadsAndSimd) {
    SimdGuard sguard;
    ThreadGuard tguard;
    SkyNetModel m = folded_model(SkyNetVariant::kC, 51);
    Tensor x({2, 3, 32, 64});
    Rng xr(52);
    x.rand_uniform(xr, 0.0f, 1.0f);
    Tensor baseline;
    bool have_baseline = false;
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        ASSERT_EQ(core::set_simd_level(lvl), lvl);
        // Engine weights prepack against the level active at construction.
        quant::QEngine engine(*m.net, scheme(9, 11, quant::QExecution::kAuto));
        for (int threads : {1, 2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            Tensor y = engine.run(x);
            if (!have_baseline) {
                baseline = y;
                have_baseline = true;
            } else {
                expect_bitwise_equal(y, baseline, core::simd_level_name(lvl));
            }
        }
    }
}

TEST(QEngine, StrictInt8ThrowsWhereThePlanCannotHold) {
    SkyNetModel m = folded_model(SkyNetVariant::kA, 61);
    // 16-bit weights exceed the s16 operand bound: strict mode must refuse.
    EXPECT_THROW(
        quant::QEngine(*m.net, scheme(9, 16, quant::QExecution::kInt8)),
        std::invalid_argument);
    // A compilable strict engine still rejects out-of-range inputs at run().
    quant::QEngine strict(*m.net, scheme(9, 11, quant::QExecution::kInt8));
    Tensor bad({1, 3, 32, 64});
    bad.fill(-2.0f);
    EXPECT_THROW((void)strict.run(bad), std::invalid_argument);
    Tensor ok({1, 3, 32, 64});
    ok.fill(0.5f);
    EXPECT_GT(strict.run(ok).size(), 0);
}

TEST(QEngine, Fp32FallbackRunsUnsupportedLayers) {
    Rng rng(5);
    nn::Graph g;
    const int c1 = g.add(std::make_unique<nn::Conv2d>(3, 8, 1, 1, 0, true, rng), 0);
    const int sh = g.add(std::make_unique<nn::ChannelShuffle>(2), c1);
    const int c2 = g.add(std::make_unique<nn::Conv2d>(8, 4, 1, 1, 0, true, rng), sh);
    g.set_output(c2);
    EXPECT_THROW(
        quant::QEngine(g, quant::QuantConfig{}.with_bits(9, 11)),
        std::invalid_argument);
    quant::QEngine engine(
        g, quant::QuantConfig{}.with_bits(9, 11).with_fp32_fallback());
    EXPECT_EQ(engine.report().fp32_layers, 1);
    Tensor x({1, 3, 8, 8});
    Rng xr(6);
    x.rand_uniform(xr, 0.0f, 1.0f);
    const Tensor y = engine.run(x);
    EXPECT_EQ(y.shape().c, 4);
    // Outputs still live on the FM grid (the island requantizes on exit).
    const double step = engine.fm_format().step();
    for (std::int64_t i = 0; i < y.size(); ++i) {
        const double ratio = y[i] / step;
        EXPECT_NEAR(ratio, std::nearbyint(ratio), 1e-3);
    }
}

/// Sets an environment variable for one scope, then restores what was there.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) saved_ = old;
        EXPECT_EQ(setenv(name, value, 1), 0);
    }
    ~ScopedEnv() {
        if (saved_)
            setenv(name_, saved_->c_str(), 1);
        else
            unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    const char* name_;
    std::optional<std::string> saved_;
};

TEST(QEngine, EnvVarOverridesTheConfiguredExecution) {
    // SKYNET_QENGINE, the rollback lever, overrides QuantConfig::execution
    // when an engine is built: that engine then reports the pinned mode and
    // runs bitwise like one configured with it.
    const char* before = std::getenv("SKYNET_QENGINE");
    const std::optional<std::string> outer = before ? std::optional<std::string>(before)
                                                    : std::nullopt;
    SkyNetModel m = folded_model(SkyNetVariant::kA, 71);
    Tensor x({2, 3, 32, 64});
    Rng xr(72);
    x.rand_uniform(xr, 0.0f, 1.0f);
    struct Case {
        const char* value;
        quant::QExecution want;
    };
    for (const Case& c : {Case{"ref", quant::QExecution::kReference},
                          Case{"int8", quant::QExecution::kInt8}}) {
        SCOPED_TRACE(c.value);
        std::unique_ptr<quant::QEngine> pinned;
        {
            const ScopedEnv env("SKYNET_QENGINE", c.value);
            pinned = std::make_unique<quant::QEngine>(*m.net,
                                                      scheme(9, 11, quant::QExecution::kAuto));
        }
        EXPECT_EQ(pinned->execution(), c.want);
        EXPECT_EQ(pinned->report().execution, c.want);
        EXPECT_EQ(pinned->report().qgemm_layers == 0, c.want == quant::QExecution::kReference);
        quant::QEngine configured(*m.net, scheme(9, 11, c.want));
        expect_bitwise_equal(pinned->run(x), configured.run(x), c.value);
    }
    const char* after = std::getenv("SKYNET_QENGINE");
    EXPECT_EQ(after ? std::optional<std::string>(after) : std::nullopt, outer);
}

TEST(QEngine, RunRefusesInputsTheProgramCannotRun) {
    // A wrong channel count used to read past the input (kAuto) or into its
    // arena slot's spare capacity (kReference); now the plan refuses it
    // before any kernel runs, and the engine still serves good inputs.
    Rng rng(9);
    nn::Graph g;
    const int c = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, true, rng), 0);
    g.set_output(g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), c));
    // Branches that agree at 8x8 but not at 7x7, where the add would read
    // past the smaller one.
    nn::Graph j;
    const int s2 = j.add(std::make_unique<nn::Conv2d>(3, 4, 3, 2, 1, true, rng), 0);
    const int mp = j.add(std::make_unique<nn::MaxPool2>(), 0);
    const int pw = j.add(std::make_unique<nn::Conv2d>(3, 4, 1, 1, 0, true, rng), mp);
    j.set_output(j.add_add(s2, pw));
    SkyNetModel m = folded_model(SkyNetVariant::kA, 91);
    for (const quant::QExecution e : {quant::QExecution::kAuto, quant::QExecution::kReference}) {
        SCOPED_TRACE(quant::qexecution_name(e));
        quant::QEngine engine(g, scheme(9, 11, e));
        EXPECT_THROW((void)engine.run(Tensor({1, 1, 16, 16}, 0.5f)), std::invalid_argument);
        EXPECT_EQ(engine.run(Tensor({1, 3, 16, 16}, 0.5f)).shape(), (Shape{1, 8, 16, 16}));
        quant::QEngine joins(j, scheme(9, 11, e));
        EXPECT_EQ(joins.run(Tensor({1, 3, 8, 8}, 0.5f)).shape(), (Shape{1, 4, 4, 4}));
        EXPECT_THROW((void)joins.run(Tensor({1, 3, 7, 7}, 0.5f)), std::invalid_argument);
        // A map that collapses on the way down is refused by name.
        quant::QEngine skynet(*m.net, scheme(9, 11, e));
        try {
            (void)skynet.run(Tensor({1, 3, 4, 4}, 0.5f));
            ADD_FAILURE() << "a 4x4 image ran";
        } catch (const std::invalid_argument& ex) {
            EXPECT_NE(std::string(ex.what()).find("has a degenerate shape"), std::string::npos)
                << ex.what();
        }
    }
}

/// The kAuto engine of `g` is bitwise the kReference one, and its measured
/// activation peak is the plan's.
void expect_auto_runs_its_plan(nn::Graph& g, const Shape& in, const quant::QuantConfig& cfg,
                               const char* what) {
    const quant::QuantConfig fast_cfg = cfg.with_execution(quant::QExecution::kAuto);
    const deploy::MemoryPlan plan = quant::plan_activations(quant::lower(g, fast_cfg), in);
    quant::QEngine fast(g, fast_cfg);
    quant::QEngine oracle(g, cfg.with_execution(quant::QExecution::kReference));
    Tensor x(in);
    Rng xr(11);
    x.rand_uniform(xr, 0.0f, 1.0f);
    expect_bitwise_equal(fast.run(x), oracle.run(x), what);
    EXPECT_EQ(fast.measured_peak_bytes(), plan.peak_bytes) << what;
}

TEST(QEngineOracle, EveryActivationWordRunsBitTrueInItsPlan) {
    // 9- and 16-bit FMs store int16 words, 17- and 24-bit FMs int32 words:
    // the plan counts each executing op's elements in that word, kAuto is
    // bitwise kReference, and each engine's measured peak is its plan's.
    SkyNetModel m = folded_model(SkyNetVariant::kC, 23);
    const Shape in{2, 3, 32, 64};
    const std::vector<Shape> shapes = m.net->infer_shapes(in);
    Tensor x(in);
    Rng xr(24);
    x.rand_uniform(xr, 0.0f, 1.0f);
    for (const int fm : {9, 16, 17, 24}) {
        SCOPED_TRACE("fm " + std::to_string(fm));
        const std::int64_t word = fm <= 16 ? 2 : 4;
        for (const quant::QExecution e :
             {quant::QExecution::kAuto, quant::QExecution::kReference}) {
            const quant::Program p = quant::lower(*m.net, scheme(fm, 11, e));
            const deploy::MemoryPlan plan = quant::plan_activations(p, in);
            std::int64_t total = 0;
            for (std::size_t i = 0; i < p.ops.size(); ++i) {
                // A conv with a fused pool holds the pool's value.
                const int held = p.ops[i].fused_pool >= 0 ? p.ops[i].fused_pool
                                                          : static_cast<int>(i);
                const std::int64_t bytes =
                    p.ops[i].executes() ? shapes[static_cast<std::size_t>(held)].count() * word
                                        : 0;
                EXPECT_EQ(plan.tensors[i].bytes, bytes) << "node " << i;
                total += bytes;
            }
            EXPECT_EQ(plan.total_bytes, total) << quant::qexecution_name(e);
        }
        quant::QEngine fast(*m.net, scheme(fm, 11, quant::QExecution::kAuto));
        quant::QEngine oracle(*m.net, scheme(fm, 11, quant::QExecution::kReference));
        if (fm == 9) {
            EXPECT_GT(fast.report().qgemm_layers, 0);
        }
        expect_bitwise_equal(fast.run(x), oracle.run(x), "word widths");
        for (quant::QEngine* e : {&fast, &oracle})
            EXPECT_EQ(e->measured_peak_bytes(), e->plan_activations(in).peak_bytes)
                << quant::qexecution_name(e->execution());
    }
}

TEST(QEngine, StaleArenaContentsNeverLeak) {
    // The arena is never value-initialized, so every executor must write
    // its whole view.  A saturating pass fills the slots first; then each
    // forward at batch 4 -> 1 -> 3 -> 4, whose plans move tenants between
    // slots, must give every image bitwise what a freshly built engine gives
    // it alone.  A view left partly unwritten holds whatever an earlier
    // tenant wrote there, in this pass or before, and that differs between a
    // batch and a single image.
    const Shape item{1, 3, 32, 64};
    std::vector<Tensor> images;
    for (int k = 0; k < 4; ++k) {
        Tensor x(item);
        Rng xr(static_cast<std::uint64_t>(k) * 7 + 3);
        x.rand_uniform(xr, 0.0f, 1.0f);
        images.push_back(std::move(x));
    }
    for (const SkyNetVariant v : {SkyNetVariant::kA, SkyNetVariant::kB, SkyNetVariant::kC}) {
        SkyNetModel m = folded_model(v, 101, 0.25f);
        for (const quant::QExecution e :
             {quant::QExecution::kAuto, quant::QExecution::kReference}) {
            SCOPED_TRACE(std::string(variant_name(v)) + " " + quant::qexecution_name(e));
            // kAuto folds the Bundle pools, so their pwconvs write pooled
            // views.
            const quant::Program p = quant::lower(*m.net, scheme(9, 11, e));
            EXPECT_EQ(std::any_of(p.ops.begin(), p.ops.end(),
                                  [](const quant::Op& op) { return op.fused_pool >= 0; }),
                      e == quant::QExecution::kAuto);
            std::vector<Tensor> alone;
            for (const Tensor& x : images) {
                quant::QEngine fresh(*m.net, scheme(9, 11, e));
                alone.push_back(fresh.run(x));
            }
            quant::QEngine engine(*m.net, scheme(9, 11, e));
            (void)engine.run(Tensor({4, 3, 32, 64}, 100.0f));
            for (const int n : {4, 1, 3, 4}) {
                Tensor batch({n, 3, 32, 64});
                for (int k = 0; k < n; ++k)
                    std::copy_n(images[static_cast<std::size_t>(k)].data(), item.count(),
                                batch.data() + k * item.count());
                const Tensor y = engine.run(batch);
                const std::int64_t per = y.shape().per_item();
                for (int k = 0; k < n; ++k)
                    for (std::int64_t i = 0; i < per; ++i)
                        ASSERT_EQ(y[k * per + i], alone[static_cast<std::size_t>(k)][i])
                            << "batch " << n << " image " << k << " @" << i;
            }
            EXPECT_EQ(engine.alloc_events(), 0);
        }
    }
}

TEST(QPoolFold, FoldsWhatFp32FoldsAndRunsBitTrueInItsPlan) {
    // Outside kReference the program folds each pool the fp32 plan folds
    // into its pointwise conv, which writes only the pooled map:
    // kAuto stays bitwise kReference, which runs every pool, in int16 (FM9)
    // and int32 (FM20) words, over batch sizes 4 -> 1 -> 3 and thread
    // counts, and the measured peak stays the plan's.
    ThreadGuard threads;
    for (const SkyNetVariant v : {SkyNetVariant::kA, SkyNetVariant::kB, SkyNetVariant::kC}) {
        SkyNetModel m = folded_model(v, 131, 0.25f);
        const std::vector<int> fp32 = m.net->fusion_plan().carrier;
        for (const auto& [fm, w] : {std::pair{9, 11}, std::pair{20, 12}}) {
            SCOPED_TRACE(std::string(variant_name(v)) + " fm" + std::to_string(fm));
            const quant::QuantConfig cfg = scheme(fm, w, quant::QExecution::kAuto);
            const quant::Program p = quant::lower(*m.net, cfg);
            int pools = 0;
            for (std::size_t i = 0; i < p.ops.size(); ++i) {
                const int pool = p.ops[i].fused_pool;
                if (pool < 0) continue;
                ++pools;
                EXPECT_EQ(p.ops[static_cast<std::size_t>(pool)].kind, quant::OpKind::kMaxPool);
                EXPECT_EQ(p.carrier(pool), static_cast<int>(i));
                EXPECT_EQ(fp32[static_cast<std::size_t>(pool)], static_cast<int>(i));
                EXPECT_EQ(p.ops[i].conv.k, 1);
            }
            EXPECT_EQ(pools, v == SkyNetVariant::kA ? 3 : 2);
            const quant::Program ref =
                quant::lower(*m.net, cfg.with_execution(quant::QExecution::kReference));
            for (const quant::Op& op : ref.ops) EXPECT_EQ(op.fused_pool, -1);

            quant::QEngine fast(*m.net, cfg);
            quant::QEngine oracle(*m.net, cfg.with_execution(quant::QExecution::kReference));
            // FM9 runs the band walk; FM20's maps span too many grid values
            // for the u8 operand, so its convs pool each reference plane.
            EXPECT_EQ(fast.report().qgemm_layers > 0, fm == 9);
            for (const int t : {1, 2, 4}) {
                core::ThreadPool::set_global_threads(t);
                for (const int n : {4, 1, 3}) {
                    Tensor x({n, 3, 32, 64});
                    Rng xr(static_cast<std::uint64_t>(132 + n));
                    x.rand_uniform(xr, 0.0f, 1.0f);
                    expect_bitwise_equal(fast.run(x), oracle.run(x), "folded pools");
                    EXPECT_EQ(fast.measured_peak_bytes(),
                              fast.plan_activations(x.shape()).peak_bytes);
                }
            }
            // Pixels outside the declared range: the whole pass falls back
            // to the reference convs, which pool each plane they compute.
            Tensor wild({2, 3, 32, 64});
            Rng wr(139);
            wild.rand_uniform(wr, -2.0f, 2.0f);
            const std::int64_t fallbacks = fast.reference_fallbacks();
            expect_bitwise_equal(fast.run(wild), oracle.run(wild), "fallback");
            EXPECT_EQ(fast.reference_fallbacks(), fallbacks + (fm == 9 ? 1 : 0));
        }
    }
}

TEST(QPoolFold, OddMapsDropTheLastRowAndColumn) {
    Rng rng(141);
    nn::Graph g;
    int n = g.add(std::make_unique<nn::PWConv1>(3, 8, true, rng), g.input());
    n = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), n);
    const int pool = g.add(std::make_unique<nn::MaxPool2>(), n);
    n = g.add(std::make_unique<nn::PWConv1>(8, 6, true, rng), pool);
    const int pool2 = g.add(std::make_unique<nn::MaxPool2>(), n);
    g.set_output(pool2);
    g.set_training(false);
    const quant::QuantConfig s9 = scheme(9, 11, quant::QExecution::kAuto);
    const quant::Program p = quant::lower(g, s9);
    EXPECT_EQ(p.carrier(pool), 1);
    EXPECT_EQ(p.carrier(pool2), 4);
    for (const Shape in : {Shape{2, 3, 45, 75}, Shape{1, 3, 11, 13}, Shape{3, 3, 13, 6}})
        for (const int fm : {9, 20})
            expect_auto_runs_its_plan(g, in, scheme(fm, 11, quant::QExecution::kAuto),
                                      "odd maps");
}

TEST(QEngine, AQuantizedDetectorKeepsFp32PacksOnlyInItsIslands) {
    // The integer convs run on the program's own taps, so quantize() drops
    // their fp32 weight packs.  A grouped pointwise conv, which the engine
    // runs as an fp32 island, keeps its pack.  The output stays bit-true to
    // the reference interpreter's.
    const auto build = [] {
        Rng rng(29);
        auto det = std::make_unique<Detector>(
            SkyNetConfig{SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
        nn::Graph& g = det->net();
        for (std::size_t i = 0; i < g.node_count(); ++i) {
            const auto* pw = dynamic_cast<const nn::PWConv1*>(g.node_module(i));
            if (pw == nullptr || pw->spec().in_ch % 2 != 0 || pw->spec().out_ch % 2 != 0)
                continue;
            const int in_ch = pw->spec().in_ch, out_ch = pw->spec().out_ch;
            const bool bias = pw->has_bias();
            Rng wr(31);
            (void)g.replace_module(i, std::make_unique<nn::PWConv1>(in_ch, out_ch, bias, wr, 2));
            break;
        }
        return det;
    };
    const quant::QuantConfig cfg = quant::QuantConfig{}.with_fp32_fallback();
    auto det = build();
    (void)det->quantize(cfg);
    const std::vector<quant::QLayerReport>& layers = det->qengine()->report().layers;
    const nn::Graph& g = det->net();
    int islands = 0, integer = 0;
    for (std::size_t i = 0; i < g.node_count(); ++i) {
        const auto* conv = dynamic_cast<const nn::ConvLayer*>(g.node_module(i));
        if (conv == nullptr || conv->spec().depthwise()) continue;
        const bool island = layers[i].impl == quant::QImpl::kFp32;
        EXPECT_EQ(conv->has_weight_pack(), island) << conv->name();
        (island ? islands : integer) += 1;
    }
    EXPECT_EQ(islands, 1);
    EXPECT_GT(integer, 0);
    auto ref = build();
    (void)ref->quantize(cfg.with_execution(quant::QExecution::kReference));
    Rng xr(3);
    Tensor x({2, 3, 64, 128});
    x.rand_uniform(xr, 0.0f, 1.0f);
    expect_bitwise_equal(det->forward(x), ref->forward(x), "dropped packs vs reference");
}

TEST(QEngine, RunsBitTrueAfterEverySimdLevelSwitch) {
    // The engine packs its qgemm weights for the tile of the level it was
    // built at, and packs them again after a switch: int8 is exact at
    // every level, so each switch leaves the output unchanged.
    SimdGuard guard;
    core::set_simd_level(core::best_simd_level());
    Rng rng(151);
    Detector det({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    (void)det.quantize(quant::QuantConfig{});
    ASSERT_GT(det.qengine()->report().qgemm_layers, 0);
    Tensor x({2, 3, 32, 64});
    Rng xr(152);
    x.rand_uniform(xr, 0.0f, 1.0f);
    const Tensor before = det.forward(x);
    quant::QEngine oracle(det.net(),
                          quant::QuantConfig{}.with_execution(quant::QExecution::kReference));
    expect_bitwise_equal(before, oracle.run(x), "reference");
    for (const core::SimdLevel lvl : testing::runnable_simd_levels()) {
        SCOPED_TRACE(core::simd_level_name(lvl));
        ASSERT_EQ(core::set_simd_level(lvl), lvl);
        expect_bitwise_equal(det.forward(x), before, "after the switch");
        expect_bitwise_equal(det.forward(x), before, "the next forward");
    }
}

TEST(Lower, ExecutionDecisionsFollowTheMode) {
    // conv -> identity -> relu -> dwconv (a folded-BN bias) -> relu6 -> conv
    // -> relu, with the last conv also feeding the closing add.
    Rng rng(10);
    const auto biased_dw = [&rng](int channels, float bias) {
        auto dw = std::make_unique<nn::DWConv3>(channels, rng);
        dw->enable_bias();
        for (int c = 0; c < channels; ++c) dw->bias()[c] = bias;
        return dw;
    };
    nn::Graph g;
    const int c1 = g.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, true, rng), 0);
    const int id = g.add(std::make_unique<deploy::Identity>(), c1);
    const int r1 = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), id);
    const int dw = g.add(biased_dw(8, 0.25f), r1);
    const int r6 = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), dw);
    const int c2 = g.add(std::make_unique<nn::Conv2d>(8, 8, 1, 1, 0, true, rng), r6);
    const int r2 = g.add(std::make_unique<nn::Activation>(nn::Act::kReLU), c2);
    g.set_output(g.add_add(c2, r2));

    const quant::Program ref = quant::lower(g, scheme(9, 11, quant::QExecution::kReference));
    EXPECT_EQ(ref.carrier(id), c1);  // identities never execute
    for (std::size_t i = 0; i < ref.ops.size(); ++i)
        EXPECT_EQ(ref.ops[i].executes(), static_cast<int>(i) != id) << i;

    const quant::Program p = quant::lower(g, scheme(9, 11, quant::QExecution::kAuto));
    EXPECT_EQ(p.carrier(id), c1);
    EXPECT_EQ(p.carrier(r1), c1);  // fused into the conv's clamp
    EXPECT_EQ(p.ops[static_cast<std::size_t>(c1)].fused_act, r1);
    EXPECT_EQ(p.carrier(r6), dw);  // fused into the biased dwconv's clamp
    EXPECT_EQ(p.ops[static_cast<std::size_t>(dw)].fused_act, r6);
    EXPECT_EQ(p.ops[static_cast<std::size_t>(dw)].qbias.size(), 8u);
    EXPECT_TRUE(p.ops[static_cast<std::size_t>(r2)].executes());  // c2 has two consumers
    EXPECT_EQ(p.ops[static_cast<std::size_t>(c2)].fused_act, -1);

    // Both plans hold exactly the executing ops, and the fusions are
    // bit-equal to running the graph verbatim.
    const Shape in{2, 3, 12, 12};
    const deploy::MemoryPlan plan = quant::plan_activations(p, in);
    for (std::size_t i = 0; i < p.ops.size(); ++i)
        EXPECT_EQ(plan.tensors[i].slot < 0, !p.ops[i].executes()) << i;
    expect_auto_runs_its_plan(g, in, scheme(9, 11, quant::QExecution::kAuto), "fused chain");

    // The vetoes: each graph below is one fold the fp32 plan makes and the
    // integer datapath does (or does not) keep.
    const quant::QuantConfig s9 = scheme(9, 11, quant::QExecution::kAuto);
    {  // concat -> ReLU6: a concat carries no epilogue, so both run on
       // their own.
        nn::Graph h;
        const int a = h.add(std::make_unique<nn::Conv2d>(3, 4, 1, 1, 0, true, rng), 0);
        const int c = h.add(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, true, rng), 0);
        const int cat = h.add_concat({a, c});
        const int hr = h.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), cat);
        EXPECT_EQ(h.fusion_plan().carrier[static_cast<std::size_t>(hr)], hr);
        const quant::Program q = quant::lower(h, s9);
        for (const int i : {cat, hr})
            EXPECT_TRUE(q.ops[static_cast<std::size_t>(i)].executes()) << i;
        expect_auto_runs_its_plan(h, in, s9, "concat -> relu6");
    }
    {  // conv -> LeakyReLU: fp32 folds it; the integer side runs it as an
       // fp32 island.
        nn::Graph h;
        const int c = h.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, true, rng), 0);
        const int hl = h.add(std::make_unique<nn::Activation>(nn::Act::kLeaky), c);
        EXPECT_EQ(h.fusion_plan().carrier[static_cast<std::size_t>(hl)], c);
        const quant::QuantConfig fallback = s9.with_fp32_fallback();
        const quant::Program q = quant::lower(h, fallback);
        EXPECT_TRUE(q.ops[static_cast<std::size_t>(hl)].executes());
        EXPECT_EQ(q.ops[static_cast<std::size_t>(c)].fused_act, -1);
        quant::QEngine engine(h, fallback);
        EXPECT_EQ(engine.report().layers[static_cast<std::size_t>(hl)].impl, quant::QImpl::kFp32);
        expect_auto_runs_its_plan(h, in, fallback, "conv -> leaky");
    }
    {  // conv -> MaxPool -> ReLU, then a grouped 1x1 conv (an fp32 island) ->
       // ReLU6: fp32 folds both activations; only an integer conv or dwconv
       // has a requantization clamp to tighten, so both run here.
        nn::Graph h;
        const int c = h.add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, true, rng), 0);
        const int mp = h.add(std::make_unique<nn::MaxPool2>(), c);
        const int hr = h.add(std::make_unique<nn::Activation>(nn::Act::kReLU), mp);
        const int gp = h.add(std::make_unique<nn::PWConv1>(8, 8, true, rng, 2), hr);
        const int hr6 = h.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), gp);
        const quant::QuantConfig fallback = s9.with_fp32_fallback();
        const quant::Program q = quant::lower(h, fallback);
        for (const int i : {hr, hr6}) {
            EXPECT_EQ(h.fusion_plan().carrier[static_cast<std::size_t>(i)], i - 1) << i;
            EXPECT_TRUE(q.ops[static_cast<std::size_t>(i)].executes()) << i;
        }
        expect_auto_runs_its_plan(h, in, fallback, "maxpool -> relu, grouped conv -> relu6");
    }
    {  // biased dwconv -> Identity -> ReLU6, a folded Bundle's depthwise
       // half: everything folds, and the ReLU6 clamp lands on the dwconv.
        nn::Graph h;
        const int d = h.add(biased_dw(3, 0.25f), 0);
        const int hi = h.add(std::make_unique<deploy::Identity>(), d);
        const int hr = h.add(std::make_unique<nn::Activation>(nn::Act::kReLU6), hi);
        const quant::Program q = quant::lower(h, s9);
        for (const int i : {hi, hr}) EXPECT_EQ(q.carrier(i), d) << i;
        EXPECT_EQ(q.ops[static_cast<std::size_t>(d)].fused_act, hr);
        expect_auto_runs_its_plan(h, in, s9, "dwconv -> identity -> relu6");
    }
}

TEST(Lower, SkippedOpsSitWhereTheFp32PlanHoldsThem) {
    // quant::lower decides no fusion of its own: it only vetoes folds of
    // nn::Graph::fusion_plan().  So every op it skips lives in the buffer
    // the fp32 eval forward keeps it in, on every shipped graph.
    const auto check = [](nn::Graph& g, const std::string& what) {
        const std::vector<int> fp32 = g.fusion_plan().carrier;
        for (const quant::QExecution e :
             {quant::QExecution::kAuto, quant::QExecution::kReference}) {
            const quant::Program p = quant::lower(g, scheme(9, 11, e));
            for (int i = 0; i < static_cast<int>(p.ops.size()); ++i) {
                if (p.ops[static_cast<std::size_t>(i)].executes()) continue;
                EXPECT_EQ(p.carrier(i), fp32[static_cast<std::size_t>(i)]) << what << " op " << i;
            }
        }
    };
    for (const std::string& name : backbones::backbone_names()) {
        Rng rng(31);
        backbones::Backbone b = backbones::build_by_name(name, 0.25f, rng);
        check(*b.net, name);
        deploy::fold_graph_bn(*b.net);
        check(*b.net, name + " folded");
    }
    // The models the repo calibrates an FM range on (quant::calibrate_fm_abs_max
    // reads the fp32 carriers): folded ReLU6 SkyNet and Fig. 2a's AlexNet
    // classifier.  No veto fires, so the integer plan is the fp32 one.
    const auto expect_no_veto = [](nn::Graph& g, const std::string& what, int skips) {
        const std::vector<int> fp32 = g.fusion_plan().carrier;
        const quant::Program p = quant::lower(g, scheme(9, 11, quant::QExecution::kAuto));
        int skipped = 0;
        for (int i = 0; i < static_cast<int>(p.ops.size()); ++i) {
            EXPECT_EQ(p.carrier(i), fp32[static_cast<std::size_t>(i)]) << what << " op " << i;
            skipped += p.ops[static_cast<std::size_t>(i)].executes() ? 0 : 1;
        }
        EXPECT_EQ(skipped, skips) << what;
    };
    // Each count includes the pools folded into pwconvs: A's three, and
    // B's and C's first two (their Bundle-3 output also feeds the bypass).
    const std::map<SkyNetVariant, int> skipped{
        {SkyNetVariant::kA, 23}, {SkyNetVariant::kB, 26}, {SkyNetVariant::kC, 26}};
    for (const auto& [v, count] : skipped)
        for (const nn::Act act : {nn::Act::kReLU6, nn::Act::kLeaky}) {
            Rng rng(7);
            SkyNetModel m = build_skynet({v, act, 2, 0.25f}, rng);
            const std::string what = std::string("skynet-") + variant_name(v);
            check(*m.net, what);
            deploy::fold_graph_bn(*m.net);
            check(*m.net, what + " folded");
            if (act == nn::Act::kReLU6) expect_no_veto(*m.net, what, count);
        }
    Rng rng(3);
    std::unique_ptr<nn::Graph> alexnet = backbones::build_alexnet_classifier(10, 32, 0.25f, rng);
    deploy::fold_graph_bn(*alexnet);
    check(*alexnet, "alexnet classifier");
    expect_no_veto(*alexnet, "alexnet classifier", 12);
}

// ------------------------------------------------------------ detector path --

TEST(Detector, Int8DetectionsStayInTheFp32IoUEnvelope) {
    Rng rng(81);
    Detector fp32({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.2f}, rng);
    Rng rng2(81);
    Detector int8({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.2f}, rng2);
    const quant::QuantReport rep =
        int8.quantize(quant::QuantConfig{}.with_bits(9, 11).with_fm_abs_max(8.0f));
    EXPECT_GT(rep.qgemm_layers, 0);
    EXPECT_EQ(int8.precision(), Precision::kInt8);
    EXPECT_EQ(fp32.precision(), Precision::kFp32);
    // Identical seeds -> identical weights: the quantized detector's raw map
    // must track the float one within a few FM steps, like the QEngine-level
    // scheme-1 bound but measured through the public Detector path.
    Tensor x({4, 3, 32, 64});
    Rng xr(82);
    x.rand_uniform(xr, 0.0f, 1.0f);
    const Tensor mf = fp32.forward(x);
    const Tensor mq = int8.forward(x);
    ASSERT_EQ(mf.shape(), mq.shape());
    double mean_err = 0.0;
    for (std::int64_t i = 0; i < mf.size(); ++i)
        mean_err += std::abs(static_cast<double>(mf[i]) - mq[i]);
    mean_err /= static_cast<double>(mf.size());
    EXPECT_LT(mean_err, 6.0 * rep.fm_format.step());
    // And the decoded boxes overlap: mean IoU across the batch stays high.
    const auto bf = fp32.detect_batch(x);
    const auto bq = int8.detect_batch(x);
    ASSERT_EQ(bf.size(), bq.size());
    double mean_iou = 0.0;
    for (std::size_t i = 0; i < bf.size(); ++i) mean_iou += detect::iou(bf[i], bq[i]);
    mean_iou /= static_cast<double>(bf.size());
    EXPECT_GT(mean_iou, 0.5) << "int8 boxes drifted out of the fp32 envelope";
}

TEST(Detector, QuantizedDetectIsThreadCountInvariant) {
    ThreadGuard guard;
    Rng rng(91);
    Detector det({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.2f}, rng);
    (void)det.quantize(quant::QuantConfig{}.with_bits(9, 11));
    Tensor x({2, 3, 32, 64});
    Rng xr(92);
    x.rand_uniform(xr, 0.0f, 1.0f);
    Tensor baseline;
    bool have = false;
    for (int threads : {1, 2, 4}) {
        core::ThreadPool::set_global_threads(threads);
        Tensor y = det.forward(x);
        if (!have) {
            baseline = y;
            have = true;
        } else {
            expect_bitwise_equal(y, baseline, "detector thread invariance");
        }
    }
}

TEST(Detector, PositionalConfigBracesStillCompile) {
    // QuantConfig's leading fields keep the old QEngineConfig order, so the
    // legacy positional `{9, 11, 8.0f}` spelling aggregate-initialises it.
    Rng rng(101);
    Detector det({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.15f}, rng);
    const quant::QuantReport rep = det.quantize({9, 11, 8.0f});
    EXPECT_EQ(rep.config.fm_bits, 9);
    EXPECT_EQ(rep.config.weight_bits, 11);
    EXPECT_EQ(det.stage(), DetectorStage::kQuantized);
}

}  // namespace
}  // namespace sky
