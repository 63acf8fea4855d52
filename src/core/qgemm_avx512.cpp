// AVX-512 instantiation of the integer GEMM micro-kernel: the x86 tile
// (core/qgemm_x86.hpp) over vpdpwssd (AVX-512 VNNI).
//
// Compiled with -mavx512f -mavx512bw -mavx512vnni (src/CMakeLists.txt) and
// selected only when core::best_simd_level() reports kAvx512.  Each k-pair
// widens 32 u8 columns to s16 with two vpmovzxbw zmm, broadcasts each
// row's s16 weight pair, and vpdpwssd multiplies and accumulates in one
// instruction: the sum vpmaddwd + vpaddd give on the AVX2 tile, modulo
// 2^32, so under the same accumulation bound both return the same
// integers.  The 10 x 32 tile keeps 20 zmm accumulators, the two B vectors
// and the broadcast in registers; it was the fastest of the 6/8/10/12-row
// tiles on SkyNet-C x1.0 (docs/KERNELS.md).  Store mode negates under an
// x < 0 mask (zmm has no vpsignd), and an int16 C narrows each clamped
// vector with vpmovdw, exact on values the clamp keeps inside int16.
#include <immintrin.h>

#include <cstring>

#include "core/qgemm_x86.hpp"

namespace sky::core::detail {
namespace {

struct Avx512 {
    typedef std::int32_t V __attribute__((vector_size(64)));
    static constexpr int kLanes = 16;

    static V widen(const std::uint8_t* b) {
        return reinterpret_cast<V>(
            _mm512_cvtepu8_epi16(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(b))));
    }
    static V broadcast(const std::int16_t* a) {
        std::int32_t pair;
        std::memcpy(&pair, a, sizeof(pair));
        return reinterpret_cast<V>(_mm512_set1_epi32(pair));
    }
    static V dot(V acc, V a, V b) {
        return reinterpret_cast<V>(_mm512_dpwssd_epi32(reinterpret_cast<__m512i>(acc),
                                                       reinterpret_cast<__m512i>(a),
                                                       reinterpret_cast<__m512i>(b)));
    }
    static V sign(V r, V x) { return x < V{} ? -r : r; }
    static void store16(std::int16_t* p, V v0, V v1) {
        typedef std::int16_t H __attribute__((vector_size(32)));
        const H h0 = __builtin_convertvector(v0, H), h1 = __builtin_convertvector(v1, H);
        std::memcpy(p, &h0, sizeof(H));
        std::memcpy(p + kLanes, &h1, sizeof(H));
    }
};

}  // namespace

const QGemmKernel& qgemm_avx512_kernel() {
    static const QGemmKernel kernel = qgemm_x86_kernel<Avx512, 10>("avx512");
    return kernel;
}

}  // namespace sky::core::detail
