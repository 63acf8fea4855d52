// The 2x2 max-pool plane kernel behind core/maxpool.hpp, written once
// against compiler vector extensions and instantiated per SIMD level
// through the plane-kernel table (core/plane_kernels.hpp):
// core/plane_kernels.cpp the scalar and baseline-ISA widths,
// core/plane_kernels_avx2.cpp the 32-byte AVX2 width.
//
// PoolPlane<T, V, Split>::run(x, H, W, y, fin) pools one H x W plane of T
// words (float, int32 or int16) into H/2 x W/2; an odd trailing row or
// column is dropped.  V is a GNU vector of T lanes, or T itself for the
// scalar reference instantiation.  Each output row reads one input row
// pair: for lanes(V) outputs at a time it loads 2 * lanes(V) words of each
// row, splits them into their even and odd columns in registers (Split),
// and runs every window's sequential scan lane by lane:
//
//   bv = x00;  bv = c > bv ? c : bv  for c = x01, x10, x11 in turn
//
// For fp32 each step is vmaxps(c, bv), which returns its second operand on
// a NaN and on equal values, so NaN, +-0 ties and +-inf resolve as the
// scalar scan does; integer max is exact in any order.  A Split may leave
// the lanes permuted, the same way in each of the four splits: the scan is
// lane-wise, so Split::restore puts the finished vector in output order
// once.  The last vector of
// a row is shifted back to end at the row's last output and rewrites a few
// outputs with the same values; a row narrower than one vector runs per
// element through lane 0 of a V.  `fin` maps each finished vector to its
// output in registers before the one store (the fp32 fused activation).
//
// Every helper is a member of a template over V, so the AVX2 translation
// unit shares no inline function with the baseline ones: a helper the
// linker merged across them could run AVX2 code on a CPU without it.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "core/gemm_ukernel.hpp"

namespace sky::core::detail {

/// The even and odd columns of the 2 * lanes words a, b in output order:
/// one shufflevector each, nothing to restore.
template <class T, class V>
struct OrderedSplit {
    static constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(T));

    /// Columns 2*i + Odd (i < lanes): the even (Odd = 0) or the odd
    /// (Odd = 1) columns.
    template <int Odd, std::size_t... I>
    static V columns(V a, V b, std::index_sequence<I...>) {
        return __builtin_shufflevector(a, b, (2 * I + Odd)...);
    }
    static V even(V a, V b) { return columns<0>(a, b, std::make_index_sequence<kLanes>{}); }
    static V odd(V a, V b) { return columns<1>(a, b, std::make_index_sequence<kLanes>{}); }
    static V restore(V v) { return v; }
};

template <class T, class V, class Split = OrderedSplit<T, V>>
struct PoolPlane {
    static constexpr bool kScalar = std::is_same_v<V, T>;
    static constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(T));

    static V load(const T* p) {
        V v;
        std::memcpy(&v, p, sizeof(V));
        return v;
    }

    static V splat(T x) {
        if constexpr (kScalar) {
            return x;
        } else {
            V v{};
            for (int i = 0; i < kLanes; ++i) v[i] = x;
            return v;
        }
    }

    static T lane0(V v) {
        if constexpr (kScalar) {
            return v;
        } else {
            return v[0];
        }
    }

    /// One step of the window scan, on T or on V lanes: c replaces bv only
    /// when strictly greater.
    template <class U>
    static U take(U bv, U c) {
        return c > bv ? c : bv;
    }

    /// Outputs [ow, ow + lanes) of the row pair r0 (x00, x01), r1 (x10, x11).
    static V windows(const T* r0, const T* r1, int ow) {
        const V a0 = load(r0 + 2 * ow), a1 = load(r0 + 2 * ow + kLanes);
        const V b0 = load(r1 + 2 * ow), b1 = load(r1 + 2 * ow + kLanes);
        V bv = Split::even(a0, a1);
        bv = take(bv, Split::odd(a0, a1));
        bv = take(bv, Split::even(b0, b1));
        return Split::restore(take(bv, Split::odd(b0, b1)));
    }

    template <class Fin>
    static void run(const T* x, int H, int W, T* y, const Fin& fin) {
        const int OH = H / 2, OW = W / 2;
        for (int oh = 0; oh < OH; ++oh) {
            const T* r0 = x + static_cast<std::int64_t>(2 * oh) * W;
            const T* r1 = r0 + W;
            T* out = y + static_cast<std::int64_t>(oh) * OW;
            int ow = 0;
            if constexpr (!kScalar) {
                if (OW >= kLanes) {
                    for (; ow + kLanes <= OW; ow += kLanes) {
                        const V v = fin(windows(r0, r1, ow));
                        std::memcpy(out + ow, &v, sizeof(V));
                    }
                    if (ow < OW) {
                        const V v = fin(windows(r0, r1, OW - kLanes));
                        std::memcpy(out + OW - kLanes, &v, sizeof(V));
                    }
                    continue;
                }
            }
            for (; ow < OW; ++ow) {
                const T* p = r0 + 2 * ow;
                const T* q = r1 + 2 * ow;
                out[ow] = lane0(fin(splat(take(take(take(p[0], p[1]), q[0]), q[1]))));
            }
        }
    }
};

/// fp32: act(max) through epilogue_act, nn/epilogue.hpp's formulas on V
/// lanes.  Without an activation the vectors store as they are, which
/// keeps epilogue_act's switch out of the loop: with the switch inside, the
/// kernel ran 4-38% slower on SkyNet-C's three pool shapes (one thread,
/// AVX2 Xeon).
template <class VF>
void maxpool2x2_f32(const float* x, int H, int W, EpilogueAct act, float slope, float* y) {
    if (act == EpilogueAct::kNone)
        PoolPlane<float, VF>::run(x, H, W, y, [](VF v) { return v; });
    else
        PoolPlane<float, VF>::run(x, H, W, y, [act, slope](VF v) {
            return epilogue_act<VF>(v, act, slope);
        });
}

/// int32 or int16 words, V being a vector of the word itself.
template <class V, class S, class Split = OrderedSplit<S, V>>
void maxpool2x2_int(const S* x, int H, int W, S* y) {
    PoolPlane<S, V, Split>::run(x, H, W, y, [](V v) { return v; });
}

}  // namespace sky::core::detail
