#include "core/qgemm.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "core/qgemm_ukernel.hpp"
#include "core/simd.hpp"
#include "core/thread_pool.hpp"

namespace sky::core {
namespace {

// Baseline-ISA widths: 4 int32 lanes (SSE2 / NEON), one k-pair per lane in
// the byte operand.  The scalar instantiation is the reference semantics and
// the SKYNET_SIMD=0 fallback — all levels are bitwise identical (exact
// integer accumulation), unlike the tolerance-parity fp32 levels.
typedef std::int32_t vi4 __attribute__((vector_size(16), aligned(4)));
typedef std::uint8_t vu8x8 __attribute__((vector_size(8), aligned(1)));

const detail::QGemmKernel& scalar_kernel() {
    static const detail::QGemmKernel k{4, 4, &detail::qgemm_ukernel_scalar<4, 4, std::int32_t>,
                                       &detail::qgemm_ukernel_scalar<4, 4, std::int16_t>,
                                       "scalar"};
    return k;
}

const detail::QGemmKernel& generic_kernel() {
    static const detail::QGemmKernel k{
        4, 8, &detail::qgemm_ukernel_vec<vi4, vu8x8, 4, 2, std::int32_t>,
        &detail::qgemm_ukernel_vec<vi4, vu8x8, 4, 2, std::int16_t>, "generic"};
    return k;
}

const detail::QGemmKernel& active_kernel() {
    switch (active_simd_level()) {
        case SimdLevel::kScalar: return scalar_kernel();
        case SimdLevel::kGeneric: return generic_kernel();
        case SimdLevel::kAvx2:
#if defined(SKYNET_SIMD_AVX2)
            return detail::qgemm_avx2_kernel();
#else
            return generic_kernel();
#endif
        case SimdLevel::kAvx512:
#if defined(SKYNET_SIMD_AVX512)
            return detail::qgemm_avx512_kernel();
#else
            return generic_kernel();
#endif
    }
    return generic_kernel();
}

constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
    return (a + b - 1) / b;
}

constexpr int padded_k(int K) { return K + (K & 1); }

}  // namespace

int qgemm_mr() { return active_kernel().mr; }
int qgemm_nr() { return active_kernel().nr; }
const char* qgemm_kernel_name() { return active_kernel().name; }
int qgemm_max_k() { return detail::kQGemmMaxK; }

// Shared A-pack body: widen `src` values (s8 or validated int32) into the
// k-paired s16 panel layout and record per-row sums and magnitude sums.
template <class Src>
void qpack_a_impl(int M, int K, const Src* A, QPackedA& out, int mr) {
    out.M = M;
    out.K = K;
    out.mr = mr;
    // Every row's sums start at zero, which they stay when K is zero.
    out.rowsum.assign(static_cast<std::size_t>(std::max(M, 0)), 0);
    out.rowabs.assign(static_cast<std::size_t>(std::max(M, 0)), 0);
    if (M <= 0 || K <= 0) {
        out.data.clear();
        return;
    }
    const std::int64_t mp = ceil_div(M, mr);
    const std::int64_t kp = padded_k(K);
    out.data.assign(static_cast<std::size_t>(mp * mr * kp), 0);
    std::int16_t* dst = out.data.data();
    for (std::int64_t p = 0; p < mp; ++p) {
        const int rows = static_cast<int>(std::min<std::int64_t>(mr, M - p * mr));
        std::int16_t* panel = dst + p * mr * kp;
        for (int m = 0; m < rows; ++m) {
            const Src* src = A + (p * mr + m) * static_cast<std::int64_t>(K);
            std::int64_t sum = 0, abs_sum = 0;
            for (int k = 0; k < K; ++k) {
                panel[(k >> 1) * mr * 2 + m * 2 + (k & 1)] =
                    static_cast<std::int16_t>(src[k]);
                sum += src[k];
                abs_sum += src[k] < 0 ? -static_cast<std::int64_t>(src[k]) : src[k];
            }
            out.rowsum[static_cast<std::size_t>(p * mr + m)] = sum;
            out.rowabs[static_cast<std::size_t>(p * mr + m)] = abs_sum;
        }
    }
}

void qpack_a(int M, int K, const std::int8_t* A, QPackedA& out) {
    qpack_a_impl(M, K, A, out, active_kernel().mr);
}

void qpack_a_wide(int M, int K, const std::int32_t* A, QPackedA& out) {
    const std::int64_t count =
        M > 0 && K > 0 ? static_cast<std::int64_t>(M) * K : 0;
    for (std::int64_t i = 0; i < count; ++i)
        if (A[i] < -32768 || A[i] > 32767)
            throw std::domain_error("qpack_a_wide: value outside the s16 range");
    qpack_a_impl(M, K, A, out, active_kernel().mr);
}

void qpack_b(int K, int N, const std::uint8_t* B, QPackedB& out) {
    const int nr = active_kernel().nr;
    out.K = K;
    out.N = N;
    out.nr = nr;
    if (K <= 0 || N <= 0) {
        out.data.clear();
        return;
    }
    const std::int64_t np = ceil_div(N, nr);
    const std::int64_t kp = padded_k(K);
    out.data.assign(static_cast<std::size_t>(np * nr * kp), 0);
    std::uint8_t* dst = out.data.data();
    for (std::int64_t q = 0; q < np; ++q) {
        const int cols = static_cast<int>(std::min<std::int64_t>(nr, N - q * nr));
        std::uint8_t* panel = dst + q * nr * kp;
        for (int k = 0; k < K; ++k) {
            const std::uint8_t* src = B + static_cast<std::int64_t>(k) * N + q * nr;
            std::uint8_t* row = panel + (k >> 1) * nr * 2 + (k & 1);
            for (int j = 0; j < cols; ++j) row[j * 2] = src[j];
        }
    }
}

namespace {

/// The store mode's int32 proof for rows [row0, row0 + rows): no u8 operand
/// drives |bias + acc| + 2^(shift-1) to 2^31, with |acc| <= 255 * rowabs.
bool requant_fits_int32(const std::int64_t* rowabs, const QEpilogue& rq, std::int64_t row0,
                        int rows) {
    if (rq.shift < 1 || rq.shift > 30) return false;
    const std::int64_t room =
        (std::int64_t{1} << 31) - (std::int64_t{1} << (rq.shift - 1));
    for (std::int64_t m = row0; m < row0 + rows; ++m) {
        const std::int64_t left = room - 255 * rowabs[m];
        const std::int64_t b = rq.bias != nullptr ? rq.bias[m] : 0;
        if (b <= -left || b >= left) return false;
    }
    return true;
}

/// The tile walk shared by both qgemm_packed modes and both C words, over C
/// rows `ldc` words apart; `rq` null accumulates (int32 C only).
template <class CT>
void run_tiles(const QPackedA& A, const QPackedB& B, CT* C, std::int64_t ldc,
               const QEpilogue* rq) {
    const detail::QGemmKernel kern = active_kernel();
    const int M = A.M, N = B.N, K = A.K;
    // K = 0 still stores the requantized bias; only the accumulate has
    // nothing to add.
    if (M <= 0 || N <= 0 || K < 0 || (K == 0 && rq == nullptr)) return;
    if (A.mr != kern.mr || B.nr != kern.nr)
        throw std::logic_error(
            "qgemm_packed: operands were packed for a different micro-kernel tile "
            "(repack after set_simd_level)");
    if (A.K != B.K) throw std::invalid_argument("qgemm_packed: K mismatch");
    if (K > detail::kQGemmMaxK)
        throw std::length_error(
            "qgemm_packed: K exceeds the int32 overflow-free bound qgemm_max_k()");
    const int mr = kern.mr, nr = kern.nr;
    const int k2 = padded_k(K) / 2;
    const std::int64_t mp = ceil_div(M, mr), np = ceil_div(N, nr);
    const std::int16_t* ap = A.data.data();
    const std::uint8_t* bp = B.data.data();
    const std::int64_t* rowabs = A.rowabs.data();
    const std::int64_t apanel = static_cast<std::int64_t>(mr) * padded_k(K);
    const std::int64_t bpanel = static_cast<std::int64_t>(nr) * padded_k(K);
    const auto tile = [=](std::int64_t p, std::int64_t q) {
        const int mv = static_cast<int>(std::min<std::int64_t>(mr, M - p * mr));
        const int nv = static_cast<int>(std::min<std::int64_t>(nr, N - q * nr));
        QEpilogue tile_rq;
        bool rq32 = false;
        if (rq != nullptr) {
            tile_rq = *rq;
            if (tile_rq.bias != nullptr) tile_rq.bias += p * mr;
            rq32 = requant_fits_int32(rowabs, *rq, p * mr, mv);
        }
        CT* c = C + p * mr * ldc + q * nr;
        if constexpr (std::is_same_v<CT, std::int16_t>)
            kern.store16(k2, ap + p * apanel, bp + q * bpanel, c, ldc, mv, nv, &tile_rq, rq32);
        else
            kern.fn(k2, ap + p * apanel, bp + q * bpanel, c, ldc, mv, nv,
                    rq != nullptr ? &tile_rq : nullptr, rq32);
    };
    // Same disjoint-tile split as sgemm_packed: one register tile per kernel
    // call, one chunk per tile, so bitwise thread-count invariant (and here
    // even exact, so level-invariant too).
    if (np >= mp) {
        parallel_for(0, np, 1, [=](std::int64_t q0, std::int64_t q1) {
            for (std::int64_t q = q0; q < q1; ++q)
                for (std::int64_t p = 0; p < mp; ++p) tile(p, q);
        });
    } else {
        parallel_for(0, mp, 1, [=](std::int64_t p0, std::int64_t p1) {
            for (std::int64_t p = p0; p < p1; ++p)
                for (std::int64_t q = 0; q < np; ++q) tile(p, q);
        });
    }
}

}  // namespace

void qgemm_packed(const QPackedA& A, const QPackedB& B, std::int32_t* C) {
    run_tiles(A, B, C, B.N, nullptr);
}

void qgemm_packed(const QPackedA& A, const QPackedB& B, std::int32_t* C,
                  const QEpilogue& rq) {
    qgemm_packed(A, B, C, B.N, rq);
}

void qgemm_packed(const QPackedA& A, const QPackedB& B, std::int16_t* C,
                  const QEpilogue& rq) {
    qgemm_packed(A, B, C, B.N, rq);
}

void qgemm_packed(const QPackedA& A, const QPackedB& B, std::int32_t* C, std::int64_t ldc,
                  const QEpilogue& rq) {
    run_tiles(A, B, C, ldc, &rq);
}

void qgemm_packed(const QPackedA& A, const QPackedB& B, std::int16_t* C, std::int64_t ldc,
                  const QEpilogue& rq) {
    if (rq.lo < -32768 || rq.hi > 32767)
        throw std::invalid_argument("qgemm_packed: int16 store with a clamp outside int16");
    run_tiles(A, B, C, ldc, &rq);
}

namespace {

/// The pointwise lowering: N columns of C rows `ld` words apart.  The
/// column matrix IS the rows, so each k-pair writes its two contiguous byte
/// lanes per column with no tap bookkeeping, and each chunk writes disjoint
/// row pairs.
template <class Word>
void qpointwise_impl(const Word* img, int C, int N, std::int64_t ld, std::int32_t lo,
                     QPackedB& out) {
    const int nr = active_kernel().nr;
    out.K = C;
    out.N = N;
    out.nr = nr;
    if (C <= 0 || N <= 0) {
        out.data.clear();
        return;
    }
    const std::int64_t rows = C, ocols = N;
    const std::int64_t np = ceil_div(ocols, nr);
    const std::int64_t kp = padded_k(C);
    // Every lane is written below, the padding included, so resize() zeroes
    // only what the buffer grows by.
    out.data.resize(static_cast<std::size_t>(np * nr * kp));
    std::uint8_t* data = out.data.data();
    const std::int64_t panel_stride = static_cast<std::int64_t>(nr) * kp;
    parallel_for(0, (rows + 1) / 2, 1, [=](std::int64_t h0, std::int64_t h1) {
        for (std::int64_t h = h0; h < h1; ++h) {
            const std::int64_t r = 2 * h;
            const Word* p0 = img + r * ld;
            const Word* p1 = r + 1 < rows ? img + (r + 1) * ld : nullptr;
            std::uint8_t* dst = data + h * nr * 2;
            std::int64_t jc = 0;
            for (std::int64_t q = 0; q < np; ++q, dst += panel_stride) {
                const int cols = static_cast<int>(std::min<std::int64_t>(nr, ocols - jc));
                if (p1) {
                    for (int j = 0; j < cols; ++j) {
                        dst[j * 2] = static_cast<std::uint8_t>(p0[jc + j] - lo);
                        dst[j * 2 + 1] = static_cast<std::uint8_t>(p1[jc + j] - lo);
                    }
                } else {  // odd C: the phantom lane is zero
                    for (int j = 0; j < cols; ++j) {
                        dst[j * 2] = static_cast<std::uint8_t>(p0[jc + j] - lo);
                        dst[j * 2 + 1] = 0;
                    }
                }
                std::fill(dst + cols * 2, dst + nr * 2, std::uint8_t{0});
                jc += cols;
            }
        }
    });
}

template <class Word>
void qim2col_impl(const Word* img, int C, int H, int W, int k, int stride, int pad, int OH,
                  int OW, std::int32_t lo, QPackedB& out) {
    const int nr = active_kernel().nr;
    const std::int64_t rows = static_cast<std::int64_t>(C) * k * k;  // GEMM K
    const std::int64_t ocols = static_cast<std::int64_t>(OH) * OW;   // GEMM N
    out.K = static_cast<int>(rows);
    out.N = static_cast<int>(ocols);
    out.nr = nr;
    if (rows <= 0 || ocols <= 0) {
        out.data.clear();
        return;
    }
    const std::int64_t np = ceil_div(ocols, nr);
    const std::int64_t kp = padded_k(static_cast<int>(rows));
    // The loop below writes every lane: the real (row, column) lanes, and
    // zeros into the only padding there is, the odd-K phantom lane and the
    // last panel's columns past N.  So resize() zeroes only what the buffer
    // grows by, and no stale byte of an earlier, larger pack survives.
    out.data.resize(static_cast<std::size_t>(np * nr * kp));
    std::uint8_t* data = out.data.data();
    const std::int64_t panel_stride = static_cast<std::int64_t>(nr) * kp;
    const std::uint8_t zero_u = static_cast<std::uint8_t>(-lo);  // x = 0 offset
    // Row r of the column matrix maps to the fixed byte lane
    // (r/2)*nr*2 + (r&1) of every panel — rows are written by exactly one
    // chunk, same disjointness (thread-count invariance) as im2col_packed.
    // An odd K's phantom row r = K is all zeros.
    parallel_for(0, kp, 4, [=](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            std::uint8_t* cur = data + (r >> 1) * nr * 2 + (r & 1);  // lane, panel 0
            int jj = 0;  // column offset within the current panel
            const auto put = [&](std::uint8_t v) {
                cur[jj * 2] = v;
                if (++jj == nr) {
                    jj = 0;
                    cur += panel_stride;
                }
            };
            if (r == rows) {
                for (std::int64_t j = 0; j < np * nr; ++j) put(0);
                continue;
            }
            const int ic = static_cast<int>(r / (k * k));
            const int kh = static_cast<int>(r / k) % k;
            const int kw = static_cast<int>(r % k);
            const Word* plane = img + static_cast<std::int64_t>(ic) * H * W;
            for (int oh = 0; oh < OH; ++oh) {
                const int ih = oh * stride - pad + kh;
                if (ih < 0 || ih >= H) {
                    for (int ow = 0; ow < OW; ++ow) put(zero_u);
                    continue;
                }
                const Word* row = plane + static_cast<std::int64_t>(ih) * W;
                const int iw0 = -pad + kw;
                for (int ow = 0; ow < OW; ++ow) {
                    const int iw = iw0 + ow * stride;
                    put(iw >= 0 && iw < W
                            ? static_cast<std::uint8_t>(row[iw] - lo)
                            : zero_u);
                }
            }
            // This row's lanes in the last panel's columns past N.
            for (std::int64_t j = ocols; j < np * nr; ++j) put(0);
        }
    });
}

}  // namespace

void qim2col_packed(const std::int32_t* img, int C, int H, int W, int k, int stride,
                    int pad, int OH, int OW, std::int32_t lo, QPackedB& out) {
    qim2col_impl(img, C, H, W, k, stride, pad, OH, OW, lo, out);
}

void qim2col_packed(const std::int16_t* img, int C, int H, int W, int k, int stride,
                    int pad, int OH, int OW, std::int32_t lo, QPackedB& out) {
    qim2col_impl(img, C, H, W, k, stride, pad, OH, OW, lo, out);
}

void qim2col_packed(const std::int32_t* img, int C, int N, std::int64_t ld, std::int32_t lo,
                    QPackedB& out) {
    qpointwise_impl(img, C, N, ld, lo, out);
}

void qim2col_packed(const std::int16_t* img, int C, int N, std::int64_t ld, std::int32_t lo,
                    QPackedB& out) {
    qpointwise_impl(img, C, N, ld, lo, out);
}

}  // namespace sky::core
