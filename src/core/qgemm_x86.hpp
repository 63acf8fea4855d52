// The integer register tile of the x86 levels, written once over small ISA
// traits and instantiated by core/qgemm_avx2.cpp (vpmaddwd + vpaddd on ymm)
// and core/qgemm_avx512.cpp (vpdpwssd on zmm):
//
//   qgemm_tile<Isa, MR, CT>  —  C_tile(MR x NR) += Apanel(s16) * Bpanel(u8),
//                               NR = 2 * Isa::kLanes, or in store mode the
//                               requantized tile as int32 or int16 words
//
// The panels are core/qgemm_ukernel.hpp's k-paired layout.  An Isa holds the
// vector type V, a GNU vector of kLanes int32 lanes, and the five steps
// whose instructions differ between the levels:
//
//   widen(b)            the u8 k-pairs of kLanes columns, zero-extended to
//                       s16 pairs (vpmovzxbw)
//   broadcast(a)        one s16 k-pair of A in every 32-bit lane
//   dot(acc, a, b)      acc + a.lo * b.lo + a.hi * b.hi per lane, modulo 2^32
//   sign(r, x)          r >= 0 with the sign of x (0 where x is 0)
//   store16(p, v0, v1)  2 * kLanes clamped values narrowed to int16 at p
//
// Both dot steps are the same sum modulo 2^32 — vpdpwssd is vpmaddwd and
// vpaddd in one instruction — so under the accumulation bound
// K * max|a| * max|b| < 2^31 every level returns the same integers.  The
// bias add, |x| + half, the shift and the clamp are vector-extension
// operators shared by both; GCC emits vpabsd, vpsrad and vpminsd/vpmaxsd for
// them, and on zmm it does so without the false -Wmaybe-uninitialized that
// GCC 12's _mm512_abs/sra/min/max_epi32 raise (GCC bug 105593).
//
// This header is included only by those translation units, which are built
// with the ISA flags their traits need (src/CMakeLists.txt).
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "core/qgemm_ukernel.hpp"

namespace sky::core::detail {

template <class Isa, int MR, class CT>
void qgemm_tile(int K2, const std::int16_t* a, const std::uint8_t* b, CT* c,
                std::int64_t ldc, int mr, int nr, const QEpilogue* rq, bool rq32) {
    using V = typename Isa::V;
    constexpr int kLanes = Isa::kLanes, NR = 2 * kLanes;
    // Every row loop is unrolled (the count covers MR), and the spill below
    // stores by value, so the tile can live in vector registers.  Rolled,
    // GCC -O2 kept the whole tile on the stack: a load and a store per
    // multiply-add.
    V acc[MR][2];
#pragma GCC unroll 16
    for (auto& row : acc) row[0] = row[1] = V{};
    for (int k2 = 0; k2 < K2; ++k2, a += MR * 2, b += NR * 2) {
        const V b0 = Isa::widen(b);
        const V b1 = Isa::widen(b + NR);
#pragma GCC unroll 16
        for (int m = 0; m < MR; ++m) {
            // The packed s16 pair a[m*2], a[m*2+1] is already the operand
            // layout of both dot steps: one 32-bit broadcast feeds both taps.
            const V av = Isa::broadcast(a + m * 2);
            acc[m][0] = Isa::dot(acc[m][0], av, b0);
            acc[m][1] = Isa::dot(acc[m][1], av, b1);
        }
    }
    const bool in_regs = rq != nullptr && rq32;
    if (in_regs) {
        // Store mode on the registers: round |x| + half down by the shift,
        // then restore x's sign (a zero x rounds to zero either way) and
        // clamp.  Padding rows take bias 0.
        const int shift = rq->shift;
        const V zero{}, half = zero + (std::int32_t{1} << (shift - 1));
        const V lo = zero + rq->lo, hi = zero + rq->hi;
#pragma GCC unroll 16
        for (int m = 0; m < MR; ++m) {
            const V bias =
                zero + (rq->bias != nullptr && m < mr ? static_cast<std::int32_t>(rq->bias[m])
                                                      : 0);
            for (V& v : acc[m]) {
                const V x = v + bias;
                const V r = Isa::sign(((x < zero ? -x : x) + half) >> shift, x);
                const V floor = r < lo ? lo : r;  // max, then min: vpmaxsd, vpminsd
                v = floor > hi ? hi : floor;
            }
        }
    }
    if (mr == MR && nr == NR && (rq == nullptr || in_regs)) {
#pragma GCC unroll 16
        for (int m = 0; m < MR; ++m) {
            CT* row = c + m * ldc;
            if constexpr (std::is_same_v<CT, std::int16_t>) {
                Isa::store16(row, acc[m][0], acc[m][1]);
            } else {
                for (int v = 0; v < 2; ++v) {
                    V cur = acc[m][v];
                    if (!in_regs) {
                        V old;
                        std::memcpy(&old, row + v * kLanes, sizeof(V));
                        cur += old;
                    }
                    std::memcpy(row + v * kLanes, &cur, sizeof(V));
                }
            }
        }
    } else {
        std::int32_t tmp[MR * NR];
#pragma GCC unroll 16
        for (int m = 0; m < MR; ++m) {
            std::memcpy(tmp + m * NR, &acc[m][0], sizeof(V));
            std::memcpy(tmp + m * NR + kLanes, &acc[m][1], sizeof(V));
        }
        write_corner<NR>(tmp, c, ldc, mr, nr, rq, in_regs);
    }
}

/// The descriptor of an Isa's MR-row tile.
template <class Isa, int MR>
QGemmKernel qgemm_x86_kernel(const char* name) {
    return {MR, 2 * Isa::kLanes, &qgemm_tile<Isa, MR, std::int32_t>,
            &qgemm_tile<Isa, MR, std::int16_t>, name};
}

}  // namespace sky::core::detail
