// AVX2 instantiation of the integer GEMM micro-kernel: the x86 tile
// (core/qgemm_x86.hpp) over vpmaddwd.
//
// Compiled with -mavx2 (src/CMakeLists.txt) and selected only when
// core::best_simd_level() reports AVX2 support, like core/gemm_avx2.cpp.
// The 6 x 16 tile keeps 12 ymm accumulators live and drives vpmaddwd: the
// u8 activations widen to s16 with vpmovzxbw, each adjacent s16 weight
// k-pair broadcasts as one 32-bit load (vpbroadcastd), and madd's pairwise
// s16*s16 + s16*s16 sum is exact in int32 (|a| <= 32767, b <= 255) — the
// FBGEMM qconv idiom without the vpmaddubsw saturation hazard, at full rate
// even for the wide 9..15-bit weight formats.  (The tile, both B vectors,
// the broadcast and a product need all 16 ymm, so GCC 12 still spills a few
// accumulators.)  Store mode requantizes the 12 accumulators in place, the
// sign restored with vpsignd; an int16 C packs each clamped row with one
// vpackssdw and puts its lanes back in column order with one vpermq.
#include <immintrin.h>

#include <cstring>

#include "core/qgemm_x86.hpp"

namespace sky::core::detail {
namespace {

struct Avx2 {
    typedef std::int32_t V __attribute__((vector_size(32)));
    static constexpr int kLanes = 8;

    static V widen(const std::uint8_t* b) {
        return reinterpret_cast<V>(
            _mm256_cvtepu8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b))));
    }
    static V broadcast(const std::int16_t* a) {
        std::int32_t pair;
        std::memcpy(&pair, a, sizeof(pair));
        return reinterpret_cast<V>(_mm256_set1_epi32(pair));
    }
    static V dot(V acc, V a, V b) {
        return reinterpret_cast<V>(_mm256_add_epi32(
            reinterpret_cast<__m256i>(acc),
            _mm256_madd_epi16(reinterpret_cast<__m256i>(a), reinterpret_cast<__m256i>(b))));
    }
    static V sign(V r, V x) {
        return reinterpret_cast<V>(
            _mm256_sign_epi32(reinterpret_cast<__m256i>(r), reinterpret_cast<__m256i>(x)));
    }
    // vpackssdw packs within 128-bit lanes (columns 0-3, 8-11, 4-7, 12-15);
    // vpermq restores the column order.  The clamped values fit int16, so
    // nothing saturates.
    static void store16(std::int16_t* p, V v0, V v1) {
        const __m256i packed = _mm256_permute4x64_epi64(
            _mm256_packs_epi32(reinterpret_cast<__m256i>(v0), reinterpret_cast<__m256i>(v1)),
            0xD8);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), packed);
    }
};

}  // namespace

const QGemmKernel& qgemm_avx2_kernel() {
    static const QGemmKernel kernel = qgemm_x86_kernel<Avx2, 6>("avx2");
    return kernel;
}

}  // namespace sky::core::detail
