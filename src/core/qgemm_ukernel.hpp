// The integer register-tile GEMM micro-kernel behind the quantized
// inference path (core/qgemm.hpp): C_tile(mr x nr) += Apanel(s16) * Bpanel(u8)
// with exact int32 accumulation, or in store mode
// C_tile = clamp(round_shift(bias + Apanel * Bpanel, shift), lo, hi).
//
// Operands arrive packed in the K-PAIRED panel layout: the contraction axis
// is rounded up to an even KP = 2*K2 and panels store the two taps of each
// k-pair adjacently —
//
//   a[k2*MR*2 + m*2 + t]   (s16 weights,    t in {0,1})
//   b[k2*NR*2 + n*2 + t]   (u8 activations, t in {0,1})
//
// — so the x86 instantiations (core/qgemm_x86.hpp) can feed vpmaddwd (AVX2)
// or vpdpwssd (AVX-512 VNNI): the u8 taps widen to s16, each adjacent s16 A
// pair IS a ready packed operand, and the pairwise s16*s16 product sum
// (<= 2*32767*255) is exact in int32 — the FBGEMM qconv idiom without its
// vpmaddubsw saturation hazard, and wide enough that 9..15-bit weights run
// in ONE pass instead of two s8 limbs.  A zero-padded
// phantom tap (odd K) carries a = 0, which annihilates whatever the B panel
// holds, so padding never changes a result.
//
// Accumulation is exact whenever K * max|a| * max|b| < 2^31 — guaranteed by
// K <= kQGemmMaxK for s8-range A, planned per layer by quant/qengine.cpp for
// wide A.
//
// Store mode is FBGEMM's fused requantize output stage: the tile's
// accumulators never reach memory unrequantized.  Where the driver proved
// |bias + acc| + 2^(shift-1) < 2^31 for every row of the tile, the vector
// kernels requantize in int32 registers — abs, add half, arithmetic shift,
// restore the sign, then min/max, which is round_shift's ties-away-from-zero
// bit for bit.  Elsewhere, and always in the scalar reference, the tile is
// spilled and requantized in int64 with round_shift itself.  Every kernel is
// a template over the C word CT: int32, or int16 for the store mode alone,
// where each clamped value is narrowed as it is stored.
//
// All instantiations (scalar / generic / avx2 / avx512) return BITWISE IDENTICAL
// results in both modes, a stronger contract than the fp32 engine's
// per-level tolerance (docs/KERNELS.md, docs/QUANTIZATION.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "core/qgemm.hpp"

namespace sky::core::detail {

/// One selectable integer micro-kernel: tile geometry plus the tile
/// functions.  `fn(K2, a, b, c, ldc, mr, nr, rq, rq32)` accumulates the
/// mr x nr valid corner of the tile into int32 C (row stride ldc), or with a
/// non-null `rq` stores its requantization there; rq->bias then points at
/// the tile's row 0, and `rq32` says the driver proved the int32 register
/// path exact for every row of the tile.  `store16` is the same store mode
/// into int16 C (rq is never null).  K2 is the k-PAIR count.
template <class CT>
using QTileFn = void (*)(int K2, const std::int16_t* a, const std::uint8_t* b, CT* c,
                         std::int64_t ldc, int mr, int nr, const QEpilogue* rq, bool rq32);

struct QGemmKernel {
    int mr = 0;
    int nr = 0;
    QTileFn<std::int32_t> fn = nullptr;
    QTileFn<std::int16_t> store16 = nullptr;
    const char* name = "?";
};

/// Largest contraction length with an overflow-free int32 accumulation for
/// s8-range A operands (255 * 128 * 65536 < 2^31).  qgemm_packed rejects
/// larger K.
inline constexpr int kQGemmMaxK = 65536;

/// Write the valid mr x nr corner of a spilled tile `t` (row stride NR) into
/// C: accumulate when rq is null (int32 C only), copy when `t` already holds
/// the requantized values, and otherwise requantize each biased accumulator
/// in int64 — the store mode's reference semantics.
template <int NR, class CT>
inline void write_corner(const std::int32_t* t, CT* c, std::int64_t ldc, int mr, int nr,
                         const QEpilogue* rq, bool requantized) {
    for (int m = 0; m < mr; ++m) {
        const std::int32_t* src = t + m * NR;
        CT* row = c + m * ldc;
        if (rq == nullptr) {
            if constexpr (std::is_same_v<CT, std::int32_t>)
                for (int n = 0; n < nr; ++n) row[n] += src[n];
        } else if (requantized) {
            if constexpr (std::is_same_v<CT, std::int32_t>)
                std::memcpy(row, src, static_cast<std::size_t>(nr) * sizeof(std::int32_t));
            else
                for (int n = 0; n < nr; ++n) row[n] = static_cast<CT>(src[n]);
        } else {
            const std::int64_t b = rq->bias != nullptr ? rq->bias[m] : 0;
            for (int n = 0; n < nr; ++n)
                row[n] = static_cast<CT>(std::clamp<std::int64_t>(
                    round_shift(b + src[n], rq->shift), rq->lo, rq->hi));
        }
    }
}

/// Reference semantics: plain int32 scalar accumulation over the k-paired
/// panels, and the int64 requantization in store mode whatever the driver
/// proved.  Also the SKYNET_SIMD=0 fallback.
template <int MR, int NR, class CT>
void qgemm_ukernel_scalar(int K2, const std::int16_t* a, const std::uint8_t* b, CT* c,
                          std::int64_t ldc, int mr, int nr, const QEpilogue* rq,
                          bool /*rq32*/) {
    std::int32_t acc[MR][NR] = {};
    for (int k2 = 0; k2 < K2; ++k2, a += MR * 2, b += NR * 2) {
        for (int m = 0; m < MR; ++m) {
            const std::int32_t a0 = a[m * 2];
            const std::int32_t a1 = a[m * 2 + 1];
            for (int n = 0; n < NR; ++n)
                acc[m][n] += a0 * static_cast<std::int32_t>(b[n * 2]) +
                             a1 * static_cast<std::int32_t>(b[n * 2 + 1]);
        }
    }
    write_corner<NR>(&acc[0][0], c, ldc, mr, nr, rq, false);
}

/// A VI with every int32 lane set to x.
template <class VI>
inline VI qsplat(std::int32_t x) {
    VI v{};
    for (int i = 0; i < static_cast<int>(sizeof(VI) / sizeof(std::int32_t)); ++i) v[i] = x;
    return v;
}

/// Vector-extension instantiation: VI is a GNU vector of int32 lanes, VU a
/// byte vector of 2*lanes(VI) (one k-pair per column).  Even/odd byte lanes
/// are split with __builtin_shufflevector and widened through
/// __builtin_convertvector — portable across GCC/Clang baseline ISAs.  An
/// int16 C narrows each clamped vector through __builtin_convertvector.
template <class VI, class VU, int MR, int NV, class CT>
void qgemm_ukernel_vec(int K2, const std::int16_t* a, const std::uint8_t* b, CT* c,
                       std::int64_t ldc, int mr, int nr, const QEpilogue* rq, bool rq32) {
    constexpr int kLanes = static_cast<int>(sizeof(VI) / sizeof(std::int32_t));
    constexpr int NR = kLanes * NV;
    static_assert(sizeof(VU) == 2 * sizeof(VI) / 4, "VU must hold one k-pair per lane");
    typedef CT VC __attribute__((vector_size(sizeof(CT) * kLanes), aligned(sizeof(CT))));
    VI acc[MR][NV] = {};
    for (int k2 = 0; k2 < K2; ++k2, a += MR * 2, b += NR * 2) {
        VI even[NV], odd[NV];
        for (int v = 0; v < NV; ++v) {
            VU raw;
            std::memcpy(&raw, b + v * kLanes * 2, sizeof(VU));
            if constexpr (kLanes == 4) {
                even[v] = __builtin_convertvector(
                    __builtin_shufflevector(raw, raw, 0, 2, 4, 6), VI);
                odd[v] = __builtin_convertvector(
                    __builtin_shufflevector(raw, raw, 1, 3, 5, 7), VI);
            } else {
                static_assert(kLanes == 8, "unsupported vector width");
                even[v] = __builtin_convertvector(
                    __builtin_shufflevector(raw, raw, 0, 2, 4, 6, 8, 10, 12, 14), VI);
                odd[v] = __builtin_convertvector(
                    __builtin_shufflevector(raw, raw, 1, 3, 5, 7, 9, 11, 13, 15), VI);
            }
        }
        for (int m = 0; m < MR; ++m) {
            const VI v0 = qsplat<VI>(a[m * 2]);
            const VI v1 = qsplat<VI>(a[m * 2 + 1]);
            for (int v = 0; v < NV; ++v) acc[m][v] += v0 * even[v] + v1 * odd[v];
        }
    }
    const bool in_regs = rq != nullptr && rq32;
    if (in_regs) {
        // Store mode on the registers.  Padding rows (m >= mr) take bias 0
        // so the bias is never read past row mr.
        const VI zero = qsplat<VI>(0), half = qsplat<VI>(std::int32_t{1} << (rq->shift - 1));
        const VI lo = qsplat<VI>(rq->lo), hi = qsplat<VI>(rq->hi);
        for (int m = 0; m < MR; ++m) {
            const VI bias = qsplat<VI>(
                rq->bias != nullptr && m < mr ? static_cast<std::int32_t>(rq->bias[m]) : 0);
            for (int v = 0; v < NV; ++v) {
                const VI x = bias + acc[m][v];
                VI r = ((x < zero ? -x : x) + half) >> rq->shift;
                r = x < zero ? -r : r;
                acc[m][v] = r < lo ? lo : (r > hi ? hi : r);
            }
        }
    }
    if (mr == MR && nr == NR && (rq == nullptr || in_regs)) {
        for (int m = 0; m < MR; ++m) {
            CT* row = c + m * ldc;
            for (int v = 0; v < NV; ++v) {
                if constexpr (std::is_same_v<CT, std::int32_t>) {
                    VI cur = acc[m][v];
                    if (rq == nullptr) {
                        VI old;
                        std::memcpy(&old, row + v * kLanes, sizeof(VI));
                        cur += old;
                    }
                    std::memcpy(row + v * kLanes, &cur, sizeof(VI));
                } else {
                    const VC narrow = __builtin_convertvector(acc[m][v], VC);
                    std::memcpy(row + v * kLanes, &narrow, sizeof(VC));
                }
            }
        }
    } else {
        std::int32_t tmp[MR * NR];
        for (int m = 0; m < MR; ++m)
            for (int v = 0; v < NV; ++v)
                std::memcpy(tmp + m * NR + v * kLanes, &acc[m][v], sizeof(VI));
        write_corner<NR>(tmp, c, ldc, mr, nr, rq, in_regs);
    }
}

/// AVX2 kernel descriptor (vpmaddwd datapath), defined in core/qgemm_avx2.cpp
/// when that TU is part of the build (SKYNET_SIMD CMake option).
const QGemmKernel& qgemm_avx2_kernel();
/// AVX-512 kernel descriptor (vpdpwssd datapath), defined in
/// core/qgemm_avx512.cpp (built with the AVX2 units).
const QGemmKernel& qgemm_avx512_kernel();

}  // namespace sky::core::detail
