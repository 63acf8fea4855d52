// AVX2 instantiation of the plane kernels (core/plane_kernels.hpp): the
// depthwise 3x3 convolution and the 2x2 max pool.
//
// Compiled with -mavx2 and WITHOUT -mfma (src/CMakeLists.txt), and selected
// only when core::best_simd_level() reports AVX2 support, like
// core/qgemm_avx2.cpp.
//
// The max pool runs 8 fp32 or int32 lanes and 16 int16 lanes per vector;
// each split into even and odd columns is a vpermd pair and a blend, or
// over int16 words a vpand / vpsrld pair and a vpackusdw, whose 128-bit
// lane order one vpermq per 16 outputs undoes after the three vpmaxsw
// (Int16LaneSplit).
//
// The depthwise kernel runs 8 lanes.  Its fp32 flavour multiplies and adds
// in separate vmulps / vaddps, so each element keeps the sequential
// kernel's two roundings per tap (an FMA-contracted build measured no
// faster); the integer flavour multiplies with vpmulld and requantizes in
// the same registers before the one store.  Over int16 words each load is
// one vpmovsxwd and each store one vpackssdw + vpermq: GCC 12 splits an
// 8-lane __builtin_convertvector widening into two 128-bit halves
// (vpmovsxwd, vpsrldq, vpmovsxwd, vinserti128), so this unit brings its own
// load/store policy.
#include <immintrin.h>

#include "core/dwconv_ukernel.hpp"
#include "core/maxpool_ukernel.hpp"
#include "core/plane_kernels.hpp"

namespace sky::core::detail {
namespace {

typedef float vf8 __attribute__((vector_size(32), aligned(4)));
typedef std::int32_t vi8 __attribute__((vector_size(32), aligned(4)));
typedef std::int16_t vs16 __attribute__((vector_size(32), aligned(2)));

/// int16 words <-> 8 int32 lanes.  The stored values are clamped into
/// int16, so the saturating pack never saturates.
struct Int16Words {
    static vi8 load(const std::int16_t* p) {
        return reinterpret_cast<vi8>(
            _mm256_cvtepi16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
    }
    static void store(std::int16_t* p, vi8 v) {
        const __m256i x = reinterpret_cast<__m256i>(v);
        const __m256i packed = _mm256_permute4x64_epi64(_mm256_packs_epi32(x, x), 0xD8);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm256_castsi256_si128(packed));
    }
};

/// The int16 pool's column split.  vpackusdw packs within 128-bit lanes,
/// so each split leaves its outputs in the order [a.lo, b.lo, a.hi, b.hi]
/// of the two source vectors' halves: the same order for all four splits
/// of a window, which the lane-wise max keeps.  Each even (vpand) or odd
/// (vpsrld) word is zero-extended into its int32 lane, so the unsigned
/// saturating pack returns its bits unchanged.
struct Int16LaneSplit {
    static vs16 even(vs16 a, vs16 b) {
        const __m256i low = _mm256_set1_epi32(0xFFFF);
        return reinterpret_cast<vs16>(
            _mm256_packus_epi32(_mm256_and_si256(reinterpret_cast<__m256i>(a), low),
                                _mm256_and_si256(reinterpret_cast<__m256i>(b), low)));
    }
    static vs16 odd(vs16 a, vs16 b) {
        return reinterpret_cast<vs16>(
            _mm256_packus_epi32(_mm256_srli_epi32(reinterpret_cast<__m256i>(a), 16),
                                _mm256_srli_epi32(reinterpret_cast<__m256i>(b), 16)));
    }
    /// 64-bit quarters [0, 2, 1, 3]: back to output order.
    static vs16 restore(vs16 v) {
        return reinterpret_cast<vs16>(
            _mm256_permute4x64_epi64(reinterpret_cast<__m256i>(v), 0xD8));
    }
};

}  // namespace

const PlaneKernels& plane_kernels_avx2() {
    static const PlaneKernels kernels{&dwconv3x3_f32<vf8>,
                                      &dwconv3x3_int<vi8, std::int32_t>,
                                      &dwconv3x3_int<vi8, std::int16_t, Int16Words>,
                                      &maxpool2x2_f32<vf8>,
                                      &maxpool2x2_int<vi8, std::int32_t>,
                                      &maxpool2x2_int<vs16, std::int16_t, Int16LaneSplit>};
    return kernels;
}

}  // namespace sky::core::detail
