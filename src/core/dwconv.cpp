#include "core/dwconv.hpp"

#include "core/dwconv_ukernel.hpp"
#include "core/simd.hpp"

namespace sky::core {
namespace {

// Baseline-ISA widths: SSE2 on x86-64, NEON on aarch64.  The scalar
// instantiation is the reference semantics and the SKYNET_SIMD=0 fallback.
typedef float vf4 __attribute__((vector_size(16), aligned(4)));
typedef std::int32_t vi4 __attribute__((vector_size(16), aligned(4)));

const detail::DwConvKernel& scalar_kernel() {
    static const detail::DwConvKernel k{&detail::dwconv3x3_f32<float>,
                                        &detail::dwconv3x3_int<std::int32_t, std::int32_t>,
                                        &detail::dwconv3x3_int<std::int32_t, std::int16_t>};
    return k;
}

const detail::DwConvKernel& generic_kernel() {
    static const detail::DwConvKernel k{&detail::dwconv3x3_f32<vf4>,
                                        &detail::dwconv3x3_int<vi4, std::int32_t>,
                                        &detail::dwconv3x3_int<vi4, std::int16_t>};
    return k;
}

const detail::DwConvKernel& active_kernel() {
    switch (active_simd_level()) {
        case SimdLevel::kScalar: return scalar_kernel();
        case SimdLevel::kGeneric: return generic_kernel();
        case SimdLevel::kAvx2:
#if defined(SKYNET_SIMD_AVX2)
            return detail::dwconv_avx2_kernel();
#else
            return generic_kernel();
#endif
    }
    return generic_kernel();
}

}  // namespace

void dwconv3x3(const float* x, const float* w, int H, int W, const Epilogue& ep, float* y) {
    active_kernel().f32(x, w, H, W, ep, y);
}

void dwconv3x3(const std::int32_t* x, const std::int32_t* w, int H, int W,
               const QEpilogue& rq, std::int32_t* y) {
    active_kernel().i32(x, w, H, W, rq, y);
}

void dwconv3x3(const std::int16_t* x, const std::int32_t* w, int H, int W,
               const QEpilogue& rq, std::int16_t* y) {
    active_kernel().i16(x, w, H, W, rq, y);
}

}  // namespace sky::core
