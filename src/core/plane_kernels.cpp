#include "core/plane_kernels.hpp"

#include "core/dwconv.hpp"
#include "core/dwconv_ukernel.hpp"
#include "core/maxpool.hpp"
#include "core/maxpool_ukernel.hpp"
#include "core/simd.hpp"

namespace sky::core {
namespace {

// Baseline-ISA widths: SSE2 on x86-64, NEON on aarch64.  The scalar
// instantiation is the reference semantics and the SKYNET_SIMD=0 fallback.
typedef float vf4 __attribute__((vector_size(16), aligned(4)));
typedef std::int32_t vi4 __attribute__((vector_size(16), aligned(4)));
typedef std::int16_t vs8 __attribute__((vector_size(16), aligned(2)));

const detail::PlaneKernels& scalar_kernels() {
    static const detail::PlaneKernels k{&detail::dwconv3x3_f32<float>,
                                        &detail::dwconv3x3_int<std::int32_t, std::int32_t>,
                                        &detail::dwconv3x3_int<std::int32_t, std::int16_t>,
                                        &detail::maxpool2x2_f32<float>,
                                        &detail::maxpool2x2_int<std::int32_t, std::int32_t>,
                                        &detail::maxpool2x2_int<std::int16_t, std::int16_t>};
    return k;
}

const detail::PlaneKernels& generic_kernels() {
    static const detail::PlaneKernels k{&detail::dwconv3x3_f32<vf4>,
                                        &detail::dwconv3x3_int<vi4, std::int32_t>,
                                        &detail::dwconv3x3_int<vi4, std::int16_t>,
                                        &detail::maxpool2x2_f32<vf4>,
                                        &detail::maxpool2x2_int<vi4, std::int32_t>,
                                        &detail::maxpool2x2_int<vs8, std::int16_t>};
    return k;
}

const detail::PlaneKernels& active_kernels() {
    switch (active_simd_level()) {
        case SimdLevel::kScalar: return scalar_kernels();
        case SimdLevel::kGeneric: return generic_kernels();
        case SimdLevel::kAvx2:
        case SimdLevel::kAvx512:  // no third copy: the AVX2 entry (docs/KERNELS.md)
#if defined(SKYNET_SIMD_AVX2)
            return detail::plane_kernels_avx2();
#else
            return generic_kernels();
#endif
    }
    return generic_kernels();
}

}  // namespace

void dwconv3x3(const float* x, const float* w, int H, int W, const Epilogue& ep, float* y) {
    active_kernels().dw_f32(x, w, H, W, ep, y);
}

void dwconv3x3(const std::int32_t* x, const std::int32_t* w, int H, int W,
               const QEpilogue& rq, std::int32_t* y) {
    active_kernels().dw_i32(x, w, H, W, rq, y);
}

void dwconv3x3(const std::int16_t* x, const std::int32_t* w, int H, int W,
               const QEpilogue& rq, std::int16_t* y) {
    active_kernels().dw_i16(x, w, H, W, rq, y);
}

void maxpool2x2(const float* x, int H, int W, EpilogueAct act, float slope, float* y) {
    active_kernels().pool_f32(x, H, W, act, slope, y);
}

void maxpool2x2(const std::int32_t* x, int H, int W, std::int32_t* y) {
    active_kernels().pool_i32(x, H, W, y);
}

void maxpool2x2(const std::int16_t* x, int H, int W, std::int16_t* y) {
    active_kernels().pool_i16(x, H, W, y);
}

}  // namespace sky::core
