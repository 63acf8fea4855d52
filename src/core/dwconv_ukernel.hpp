// The depthwise 3x3 plane kernel behind core/dwconv.hpp, written once
// against compiler vector extensions and instantiated per SIMD level
// through the plane-kernel table (core/plane_kernels.hpp):
// core/plane_kernels.cpp the scalar and baseline-ISA widths,
// core/plane_kernels_avx2.cpp the 8-lane AVX2 width (compiled with -mavx2
// and no -mfma).
//
// DwPlane<T, V, S, Io>::run(x, w, H, W, y, fin) convolves one H x W plane
// (stride 1, pad 1).  T is the lane type the taps accumulate in (float or
// int32), V a GNU vector of T lanes or T itself for the scalar reference
// instantiation, S the stored word (T, or int16 for the integer engine's
// 16-bit activations) and Io the policy that loads S words into V lanes and
// stores V lanes as S words.  The input rows an output row reads (oh-1, oh,
// oh+1, clipped at the plane border) are fixed per row, so each of the four
// row shapes is its own unrolled loop:
//
//   column 0         acc = +0; per row: acc += w1*x0, then acc += w2*x1
//   columns 1..W-2   acc = +0; per row: acc += (w0*l + w1*m) + w2*r, in V
//                    lanes; the last vector is shifted left to end at W-2
//                    and rewrites a few columns with the same values
//   column W-1       acc = +0; per row: acc += w0*x[W-2] + w1*x[W-1]
//
// That is the sequential DWConv3 loop's order for every element, so fp32
// outputs are bitwise that loop's as long as no multiply-add contracts into
// an FMA.  `fin` maps each finished accumulator to its output (the fp32
// epilogue, a folded eval BatchNorm's affine included, or the int32
// requantization) in registers, before the one store;
// the edge columns go through lane 0 of a V.
//
// Every helper is a template over V, so the AVX2 translation unit shares no
// inline function with the baseline ones: a helper the linker merged across
// them could run AVX2 code on a CPU without it.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "core/dwconv.hpp"
#include "core/gemm_ukernel.hpp"

namespace sky::core::detail {

/// The default load/store policy: a plain copy when S is V's lane type T;
/// for int16 words in 4 int32 lanes, a widening load and a narrowing store
/// (exact: every stored value fits S).  The scalar instantiation (V == T)
/// stores one converted value and loads through DwPlane::load<T>.
template <class T, class V, class S>
struct DwWords {
    static constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(T));

    static V load(const S* p) {
        if constexpr (std::is_same_v<S, T>) {
            V v;
            std::memcpy(&v, p, sizeof(V));
            return v;
        } else {
            // Each word into the high half of its lane, then an arithmetic
            // shift: one unpack and one shift on SSE2, where GCC 12 spends
            // seven instructions on __builtin_convertvector.
            static_assert(kLanes == 4 && sizeof(S) == 2 && sizeof(T) == 4,
                          "int16 words in 4 int32 lanes");
            typedef S VS __attribute__((vector_size(sizeof(S) * kLanes), aligned(sizeof(S))));
            VS v;
            std::memcpy(&v, p, sizeof(VS));
            return reinterpret_cast<V>(__builtin_shufflevector(v, v, 0, 0, 1, 1, 2, 2, 3, 3)) >>
                   16;
        }
    }

    static void store(S* p, V v) {
        if constexpr (std::is_same_v<V, T>) {
            *p = static_cast<S>(v);
        } else if constexpr (std::is_same_v<S, T>) {
            std::memcpy(p, &v, sizeof(V));
        } else {
            typedef S VS __attribute__((vector_size(sizeof(S) * kLanes), aligned(sizeof(S))));
            const VS narrow = __builtin_convertvector(v, VS);
            std::memcpy(p, &narrow, sizeof(VS));
        }
    }
};

template <class T, class V, class S = T, class Io = DwWords<T, V, S>>
struct DwPlane {
    static constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(T));

    /// U (V or T) loaded from p.
    template <class U>
    static U load(const S* p) {
        if constexpr (std::is_same_v<U, T>) {
            return static_cast<T>(*p);
        } else {
            return Io::load(p);
        }
    }

    static V splat(T x) {
        if constexpr (std::is_same_v<V, T>) {
            return x;
        } else {
            V v{};
            for (int i = 0; i < kLanes; ++i) v[i] = x;
            return v;
        }
    }

    static T lane0(V v) {
        if constexpr (std::is_same_v<V, T>) {
            return v;
        } else {
            return v[0];
        }
    }

    /// The interior taps of output columns [ow, ow + lanes(U)), U being V or
    /// T; `w` holds the 9 weights as U.
    template <class U, int KH0, int KH1>
    static U taps(const S* const* rows, const U* w, int ow) {
        U acc{};
#pragma GCC unroll 3
        for (int kh = KH0; kh <= KH1; ++kh) {
            const S* r = rows[kh];
            acc = acc + ((w[kh * 3] * load<U>(r + ow - 1) + w[kh * 3 + 1] * load<U>(r + ow)) +
                         w[kh * 3 + 2] * load<U>(r + ow + 1));
        }
        return acc;
    }

    /// One output row reading input rows KH0..KH1 (top, mid, bot are the
    /// rows oh-1, oh, oh+1).  The rows, the 9 weight vectors and `fin` are
    /// locals no store can alias, so they stay in registers.
    template <int KH0, int KH1, class Fin>
    static void row(const S* top, const S* mid, const S* bot, const T* w, int W, S* out,
                    const Fin fin) {
        const S* const rows[3] = {top, mid, bot};
        V wv[9];
#pragma GCC unroll 9
        for (int k = 0; k < 9; ++k) wv[k] = splat(w[k]);
        T acc{};
#pragma GCC unroll 3
        for (int kh = KH0; kh <= KH1; ++kh) {
            acc = acc + w[kh * 3 + 1] * static_cast<T>(rows[kh][0]);
            if (W > 1) acc = acc + w[kh * 3 + 2] * static_cast<T>(rows[kh][1]);
        }
        out[0] = static_cast<S>(lane0(fin(splat(acc))));
        if (W == 1) return;
        int ow = 1;
        const int last = W - 1 - kLanes;  // the vector that ends at column W-2
        if (last >= 1) {
            for (; ow < last; ow += kLanes)
                Io::store(out + ow, fin(taps<V, KH0, KH1>(rows, wv, ow)));
            Io::store(out + last, fin(taps<V, KH0, KH1>(rows, wv, last)));
            ow = W - 1;
        }
        for (; ow < W - 1; ++ow)
            out[ow] = static_cast<S>(lane0(fin(splat(taps<T, KH0, KH1>(rows, w, ow)))));
        acc = T{};
#pragma GCC unroll 3
        for (int kh = KH0; kh <= KH1; ++kh)
            acc = acc + (w[kh * 3] * static_cast<T>(rows[kh][W - 2]) +
                         w[kh * 3 + 1] * static_cast<T>(rows[kh][W - 1]));
        out[W - 1] = static_cast<S>(lane0(fin(splat(acc))));
    }

    template <class Fin>
    static void run(const S* x, const T* w, int H, int W, S* y, const Fin& fin) {
        if (W <= 0) return;
        for (int oh = 0; oh < H; ++oh) {
            const S* mid = x + static_cast<std::int64_t>(oh) * W;
            const S* top = oh > 0 ? mid - W : nullptr;
            const S* bot = oh + 1 < H ? mid + W : nullptr;
            S* out = y + static_cast<std::int64_t>(oh) * W;
            if (H == 1)
                row<1, 1>(top, mid, bot, w, W, out, fin);
            else if (oh == 0)
                row<1, 2>(top, mid, bot, w, W, out, fin);
            else if (oh + 1 == H)
                row<0, 1>(top, mid, bot, w, W, out, fin);
            else
                row<0, 2>(top, mid, bot, w, W, out, fin);
        }
    }
};

/// fp32 finish: nn/epilogue.hpp's act(acc + b), or act(acc) without a bias;
/// with Affine, act(scale * (acc + b) + shift).
template <class VF, bool Affine>
struct DwEpilogue {
    bool has_bias;
    VF bias, scale, shift;
    EpilogueAct act;
    float slope;

    explicit DwEpilogue(const Epilogue& ep)
        : has_bias(ep.bias != nullptr),
          bias(DwPlane<float, VF>::splat(has_bias ? *ep.bias : 0.0f)),
          scale(DwPlane<float, VF>::splat(Affine ? *ep.scale : 1.0f)),
          shift(DwPlane<float, VF>::splat(Affine ? *ep.shift : 0.0f)),
          act(ep.act),
          slope(ep.slope) {}

    VF operator()(VF acc) const {
        VF v = has_bias ? acc + bias : acc;
        if constexpr (Affine) v = epilogue_affine<VF>(v, scale, shift);
        return epilogue_act<VF>(v, act, slope);
    }
};

/// int32 finish: the bias, round_shift's ties-away-from-zero on |acc| +
/// half with the sign restored, then the clamp.
template <class VI>
struct DwQEpilogue {
    VI bias, half, lo, hi;
    int shift;

    explicit DwQEpilogue(const QEpilogue& rq)
        : bias(DwPlane<std::int32_t, VI>::splat(
              rq.bias != nullptr ? static_cast<std::int32_t>(*rq.bias) : 0)),
          half(DwPlane<std::int32_t, VI>::splat(std::int32_t{1} << (rq.shift - 1))),
          lo(DwPlane<std::int32_t, VI>::splat(rq.lo)),
          hi(DwPlane<std::int32_t, VI>::splat(rq.hi)),
          shift(rq.shift) {}

    VI operator()(VI acc) const {
        const VI zero{};
        const VI a = acc + bias;
        VI r = ((a < zero ? -a : a) + half) >> shift;
        r = a < zero ? -r : r;
        return r < lo ? lo : (r > hi ? hi : r);
    }
};

/// One instantiation per finish, so a plane without an affine pays nothing
/// for it.
template <class VF>
void dwconv3x3_f32(const float* x, const float* w, int H, int W, const Epilogue& ep,
                   float* y) {
    if (ep.scale != nullptr)
        DwPlane<float, VF>::run(x, w, H, W, y, DwEpilogue<VF, true>(ep));
    else
        DwPlane<float, VF>::run(x, w, H, W, y, DwEpilogue<VF, false>(ep));
}

/// The integer flavour over either stored word S; `Io` loads S words into
/// int32 lanes and stores them back narrowed.
template <class VI, class S, class Io = DwWords<std::int32_t, VI, S>>
void dwconv3x3_int(const S* x, const std::int32_t* w, int H, int W, const QEpilogue& rq,
                   S* y) {
    DwPlane<std::int32_t, VI, S, Io>::run(x, w, H, W, y, DwQEpilogue<VI>(rq));
}

}  // namespace sky::core::detail
