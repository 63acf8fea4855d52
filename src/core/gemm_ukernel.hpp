// The register-tile GEMM micro-kernel, written once against compiler vector
// extensions and instantiated per SIMD level (core/simd.hpp):
//
//   ukernel<VF, MR, NV>  —  C_tile(mr x nr) += Apanel * Bpanel, or in store
//                           mode C_tile = act(bias + Apanel * Bpanel), with an
//                           affine act(scale * (bias + Apanel * Bpanel) + shift)
//
// VF is a GNU vector-extension float type (or plain `float` for the scalar
// reference instantiation), MR the register-tile row count and NV the number
// of VF vectors per tile row, so the tile is MR x (NV * lanes(VF)).
//
// Operands arrive packed (core/gemm.hpp): `a` is an MR-row panel stored
// k-major (a[k*MR + m]), `b` an NR-column panel stored k-major
// (b[k*NR + n]), both zero-padded to full tile width.  The k loop is a
// single sequential accumulation chain per C element — the same order as
// the scalar reference — so every instantiation is bitwise thread-count
// invariant and scalar-vs-vector differences come only from FMA contraction
// (see docs/KERNELS.md for the determinism contract).
//
// Store mode applies the Epilogue to the accumulator registers and writes C
// without reading it.  `bias + acc` is what the bias- or zero-filled C plus
// the accumulate computed, and epilogue_affine() and epilogue_act() are the
// vector twins of nn/epilogue.hpp's formulas, so both modes agree bitwise
// with the unfused layers (conv, eval BatchNorm, activation) at the same
// level.  The tile branches once on whether the Epilogue has an affine, so
// a store without one pays nothing for it.
//
// Each translation unit instantiates only the widths its build flags can
// execute: core/gemm.cpp the scalar + baseline-ISA widths, core/gemm_avx2.cpp
// the 8-wide AVX2+FMA width (compiled with -mavx2 -mfma) and
// core/gemm_avx512.cpp the 16-wide AVX-512 width (-mavx512f -mfma).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "core/gemm.hpp"

namespace sky::core::detail {

/// One selectable micro-kernel: tile geometry plus the tile function.
/// `fn(K, a_panel, b_panel, c, ldc, mr, nr, ep)` accumulates the mr x nr
/// valid corner of the tile into C (row stride ldc), or with a non-null `ep`
/// stores its epilogue of acc there; ep's row arrays then point at the
/// tile's row 0.
struct GemmKernel {
    int mr = 0;
    int nr = 0;
    void (*fn)(int K, const float* a, const float* b, float* c, std::int64_t ldc,
               int mr, int nr, const Epilogue* ep) = nullptr;
    const char* name = "?";
};

template <class VF>
inline constexpr int kLanes = static_cast<int>(sizeof(VF) / sizeof(float));

template <class VF>
inline VF vload(const float* p) {
    VF v;
    std::memcpy(&v, p, sizeof(VF));
    return v;
}

template <class VF>
inline void vstore(float* p, VF v) {
    std::memcpy(p, &v, sizeof(VF));
}

template <class VF>
inline VF vsplat(float x) {
    if constexpr (std::is_same_v<VF, float>) {
        return x;
    } else {
        VF v{};
        for (int i = 0; i < kLanes<VF>; ++i) v[i] = x;
        return v;
    }
}

/// The activation formulas of nn/epilogue.hpp on every lane of `v`: the
/// same comparisons and operand order, so each lane is bitwise the scalar
/// result (NaN and -0.0 included).
template <class VF>
inline VF epilogue_act(VF v, EpilogueAct act, float slope) {
    const VF zero = vsplat<VF>(0.0f);
    switch (act) {
        case EpilogueAct::kNone:
            return v;
        case EpilogueAct::kReLU:
            return v > zero ? v : zero;
        case EpilogueAct::kReLU6: {
            const VF six = vsplat<VF>(6.0f);
            return v <= zero ? zero : (v >= six ? six : v);
        }
        case EpilogueAct::kLeaky:
            return v > zero ? v : vsplat<VF>(slope) * v;
        case EpilogueAct::kSigmoid:
            if constexpr (std::is_same_v<VF, float>) {
                return 1.0f / (1.0f + std::exp(-v));
            } else {
                for (int i = 0; i < kLanes<VF>; ++i) v[i] = 1.0f / (1.0f + std::exp(-v[i]));
                return v;
            }
    }
    return v;
}

/// nn/epilogue.hpp's affine, scale * v + shift, on every lane, the product
/// rounded before the sum.  The empty asm hides the product from the
/// optimiser: the AVX2 and AVX-512 GEMM units compile with
/// -ffp-contract=fast, which would otherwise fuse the two into one FMA and
/// round once (bitwise equal only while shift is 0).  Those x86-64 units
/// are the only ones built with contraction on.
template <class VF>
inline VF epilogue_affine(VF v, VF scale, VF shift) {
    VF p = scale * v;
#if defined(__GNUC__) && defined(__x86_64__)
    __asm__("" : "+v"(p));
#endif
    return p + shift;
}

/// Store mode's finish of a tile in registers: bias + acc (the bias alone
/// when K = 0), with Affine scale * that + shift, then the activation.
/// Padding rows (m >= mr) take bias 0, scale 1 and shift 0, so no row array
/// is read past row mr.
template <bool Affine, class VF, int MR, int NV>
[[gnu::always_inline]] inline void finish_tile(VF (&acc)[MR][NV], int K, int mr,
                                               const Epilogue& ep) {
#pragma GCC unroll 16
    for (int m = 0; m < MR; ++m) {
        const bool row = m < mr;
        const VF bias = vsplat<VF>(ep.bias != nullptr && row ? ep.bias[m] : 0.0f);
        [[maybe_unused]] const VF scale = vsplat<VF>(Affine && row ? ep.scale[m] : 1.0f);
        [[maybe_unused]] const VF shift = vsplat<VF>(Affine && row ? ep.shift[m] : 0.0f);
#pragma GCC unroll 16
        for (int v = 0; v < NV; ++v) {
            VF x = K > 0 ? bias + acc[m][v] : bias;
            if constexpr (Affine) x = epilogue_affine<VF>(x, scale, shift);
            acc[m][v] = epilogue_act<VF>(x, ep.act, ep.slope);
        }
    }
}

template <class VF, int MR, int NV>
void ukernel(int K, const float* a, const float* b, float* c, std::int64_t ldc,
             int mr, int nr, const Epilogue* ep) {
    constexpr int NR = kLanes<VF> * NV;
    // Every tile loop is unrolled, so the accumulators can live in registers.
    // Rolled, GCC 12 -O2 kept acc[MR][NV] on the stack at every vector level:
    // each multiply-add read and wrote memory.  The unroll count must cover
    // MR: a 14-row tile under `unroll 8` kept accumulators on the stack too.
    // Unrolling keeps the order of every sum, so the result is bitwise the
    // rolled kernel's.
    VF acc[MR][NV] = {};
    for (int k = 0; k < K; ++k, a += MR, b += NR) {
        VF bv[NV];
#pragma GCC unroll 16
        for (int v = 0; v < NV; ++v) bv[v] = vload<VF>(b + v * kLanes<VF>);
#pragma GCC unroll 16
        for (int m = 0; m < MR; ++m) {
            const VF av = vsplat<VF>(a[m]);
#pragma GCC unroll 16
            for (int v = 0; v < NV; ++v) acc[m][v] += av * bv[v];
        }
    }
    if (ep != nullptr) {
        // Store mode: the tile's final values, still in registers.
        if (ep->scale != nullptr)
            finish_tile<true>(acc, K, mr, *ep);
        else
            finish_tile<false>(acc, K, mr, *ep);
    }
    if (mr == MR && nr == NR) {
#pragma GCC unroll 16
        for (int m = 0; m < MR; ++m) {
            float* row = c + m * ldc;
#pragma GCC unroll 16
            for (int v = 0; v < NV; ++v) {
                float* p = row + v * kLanes<VF>;
                vstore<VF>(p, ep != nullptr ? acc[m][v] : vload<VF>(p) + acc[m][v]);
            }
        }
    } else {
        // Partial tile: spill the (zero-padded) accumulators and write only
        // the valid corner, so edge tiles never read or write beyond C.
        float tmp[MR * NR];
#pragma GCC unroll 16
        for (int m = 0; m < MR; ++m)
#pragma GCC unroll 16
            for (int v = 0; v < NV; ++v)
                vstore<VF>(tmp + m * NR + v * kLanes<VF>, acc[m][v]);
        for (int m = 0; m < mr; ++m)
            for (int n = 0; n < nr; ++n)
                c[m * ldc + n] =
                    ep != nullptr ? tmp[m * NR + n] : c[m * ldc + n] + tmp[m * NR + n];
    }
}

/// AVX2+FMA kernel descriptor, defined in core/gemm_avx2.cpp when that TU is
/// part of the build (SKYNET_SIMD CMake option, x86-64 GCC/Clang only).
const GemmKernel& avx2_kernel();
/// AVX-512F+FMA kernel descriptor, defined in core/gemm_avx512.cpp (built
/// with the AVX2 units).
const GemmKernel& avx512_kernel();

}  // namespace sky::core::detail
