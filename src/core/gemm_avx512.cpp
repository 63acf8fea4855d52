// AVX-512 + FMA instantiation of the GEMM micro-kernel: the same ukernel
// body as every other level, at 16 fp32 lanes.
//
// This translation unit is compiled with -mavx512f -mfma -ffp-contract=fast
// (see src/CMakeLists.txt) and nothing in it runs unless
// core::best_simd_level() reports kAvx512.  The 14 x 32 tile holds 28 of the
// 32 zmm registers as accumulators, 2 for the B panel and 1 for the A
// broadcast.  It was the fastest of the 6/8/12/14-row tiles on SkyNet-C
// x1.0 (docs/KERNELS.md), and the only one of them whose k-loop GCC 12
// kept free of stack operands.
#include "core/gemm_ukernel.hpp"

namespace sky::core::detail {
namespace {

typedef float vf16 __attribute__((vector_size(64), aligned(4)));

}  // namespace

const GemmKernel& avx512_kernel() {
    static const GemmKernel kernel{14, 32, &ukernel<vf16, 14, 2>, "avx512"};
    return kernel;
}

}  // namespace sky::core::detail
