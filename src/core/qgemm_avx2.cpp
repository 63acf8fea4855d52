// AVX2 instantiation of the integer GEMM micro-kernel.
//
// Compiled with -mavx2 (src/CMakeLists.txt) and selected only when
// core::best_simd_level() reports AVX2 support, like core/gemm_avx2.cpp.
// The 6 x 16 tile keeps 12 ymm accumulators live and drives vpmaddwd: the
// u8 activations widen to s16 with vpmovzxbw, each adjacent s16 weight
// k-pair broadcasts as one 32-bit load (vpbroadcastd), and madd's pairwise
// s16*s16 + s16*s16 sum is exact in int32 (|a| <= 32767, b <= 255) — the
// FBGEMM qconv idiom without the vpmaddubsw saturation hazard, at full rate
// even for the wide 9..15-bit weight formats.  Measured ~2x the fp32 FMA
// kernel's MAC rate on the same tile.  Store mode requantizes the 12
// accumulators in place (vpabsd, vpsrad, vpsignd, vpmaxsd/vpminsd) before
// the one store; an int16 C packs each clamped row with one vpackssdw and
// puts its lanes back in column order with one vpermq.
#include <immintrin.h>

#include <cstring>
#include <type_traits>

#include "core/qgemm_ukernel.hpp"

namespace sky::core::detail {
namespace {

template <class CT>
void qkernel_avx2(int K2, const std::int16_t* a, const std::uint8_t* b, CT* c,
                  std::int64_t ldc, int mr, int nr, const QEpilogue* rq, bool rq32) {
    constexpr int MR = 6, NR = 16;
    // Every row loop is unrolled, and the spill below stores by value, so
    // the tile can live in ymm registers.  Rolled, GCC -O2 kept the whole
    // tile on the stack: a load and a store per madd.  (The tile, both B
    // vectors, the broadcast and a product need all 16 ymm, so GCC 12 still
    // spills a few accumulators.)
    __m256i acc[MR][2];
#pragma GCC unroll 6
    for (auto& row : acc) row[0] = row[1] = _mm256_setzero_si256();
    for (int k2 = 0; k2 < K2; ++k2, a += MR * 2, b += NR * 2) {
        const __m256i b0 =
            _mm256_cvtepu8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b)));
        const __m256i b1 = _mm256_cvtepu8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + 16)));
#pragma GCC unroll 6
        for (int m = 0; m < MR; ++m) {
            // The packed s16 pair a[m*2], a[m*2+1] is already madd's operand
            // layout — one 32-bit broadcast feeds both taps.
            std::int32_t pair;
            std::memcpy(&pair, a + m * 2, sizeof(pair));
            const __m256i av = _mm256_set1_epi32(pair);
            acc[m][0] = _mm256_add_epi32(acc[m][0], _mm256_madd_epi16(av, b0));
            acc[m][1] = _mm256_add_epi32(acc[m][1], _mm256_madd_epi16(av, b1));
        }
    }
    const bool in_regs = rq != nullptr && rq32;
    if (in_regs) {
        // Store mode on the registers: round |x| + half down by the shift,
        // then vpsignd restores x's sign (a zero x rounds to zero either
        // way) and min/max apply the clamp.  Padding rows take bias 0.
        const __m128i count = _mm_cvtsi32_si128(rq->shift);
        const __m256i half = _mm256_set1_epi32(std::int32_t{1} << (rq->shift - 1));
        const __m256i clo = _mm256_set1_epi32(rq->lo), chi = _mm256_set1_epi32(rq->hi);
#pragma GCC unroll 6
        for (int m = 0; m < MR; ++m) {
            const __m256i bias = _mm256_set1_epi32(
                rq->bias != nullptr && m < mr ? static_cast<std::int32_t>(rq->bias[m]) : 0);
            for (__m256i& v : acc[m]) {
                const __m256i x = _mm256_add_epi32(v, bias);
                const __m256i r = _mm256_sign_epi32(
                    _mm256_sra_epi32(_mm256_add_epi32(_mm256_abs_epi32(x), half), count), x);
                v = _mm256_min_epi32(_mm256_max_epi32(r, clo), chi);
            }
        }
    }
    if (mr == MR && nr == NR && (rq == nullptr || in_regs)) {
#pragma GCC unroll 6
        for (int m = 0; m < MR; ++m) {
            CT* row = c + m * ldc;
            if constexpr (std::is_same_v<CT, std::int16_t>) {
                // vpackssdw packs within 128-bit lanes (columns 0-3, 8-11,
                // 4-7, 12-15); vpermq restores the column order.  The
                // clamped values fit int16, so nothing saturates.
                const __m256i packed = _mm256_permute4x64_epi64(
                    _mm256_packs_epi32(acc[m][0], acc[m][1]), 0xD8);
                _mm256_storeu_si256(reinterpret_cast<__m256i*>(row), packed);
            } else {
                __m256i* lo = reinterpret_cast<__m256i*>(row);
                __m256i* hi = reinterpret_cast<__m256i*>(row + 8);
                if (in_regs) {
                    _mm256_storeu_si256(lo, acc[m][0]);
                    _mm256_storeu_si256(hi, acc[m][1]);
                } else {
                    _mm256_storeu_si256(lo,
                                        _mm256_add_epi32(_mm256_loadu_si256(lo), acc[m][0]));
                    _mm256_storeu_si256(hi,
                                        _mm256_add_epi32(_mm256_loadu_si256(hi), acc[m][1]));
                }
            }
        }
    } else {
        std::int32_t tmp[MR * NR];
#pragma GCC unroll 6
        for (int m = 0; m < MR; ++m) {
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp + m * NR), acc[m][0]);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp + m * NR + 8), acc[m][1]);
        }
        write_corner<NR>(tmp, c, ldc, mr, nr, rq, in_regs);
    }
}

}  // namespace

const QGemmKernel& qgemm_avx2_kernel() {
    static const QGemmKernel kernel{6, 16, &qkernel_avx2<std::int32_t>,
                                    &qkernel_avx2<std::int16_t>, "avx2"};
    return kernel;
}

}  // namespace sky::core::detail
