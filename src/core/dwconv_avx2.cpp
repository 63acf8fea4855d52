// AVX2 instantiation of the depthwise 3x3 kernel.
//
// Compiled with -mavx2 and WITHOUT -mfma (src/CMakeLists.txt), and selected
// only when core::best_simd_level() reports AVX2 support, like
// core/qgemm_avx2.cpp.  8 lanes per vector: the fp32 flavour multiplies and
// adds in separate vmulps / vaddps, so each element keeps the sequential
// kernel's two roundings per tap (an FMA-contracted build measured no
// faster); the int32 flavour multiplies with vpmulld and requantizes in the
// same registers before the one store.
#include "core/dwconv_ukernel.hpp"

namespace sky::core::detail {
namespace {

typedef float vf8 __attribute__((vector_size(32), aligned(4)));
typedef std::int32_t vi8 __attribute__((vector_size(32), aligned(4)));

}  // namespace

const DwConvKernel& dwconv_avx2_kernel() {
    static const DwConvKernel kernel{&dwconv3x3_f32<vf8>, &dwconv3x3_i32<vi8>};
    return kernel;
}

}  // namespace sky::core::detail
