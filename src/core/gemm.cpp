#include "core/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/gemm_ukernel.hpp"
#include "core/simd.hpp"
#include "core/thread_pool.hpp"

namespace sky::core {
namespace {

// Baseline-ISA vector width: SSE2 on x86-64, NEON on aarch64.  The scalar
// instantiation is the reference semantics and the SKYNET_SIMD=0 fallback.
typedef float vf4 __attribute__((vector_size(16), aligned(4)));

const detail::GemmKernel& scalar_kernel() {
    static const detail::GemmKernel k{4, 4, &detail::ukernel<float, 4, 4>, "scalar"};
    return k;
}

const detail::GemmKernel& generic_kernel() {
    static const detail::GemmKernel k{6, 8, &detail::ukernel<vf4, 6, 2>, "generic"};
    return k;
}

const detail::GemmKernel& active_kernel() {
    switch (active_simd_level()) {
        case SimdLevel::kScalar: return scalar_kernel();
        case SimdLevel::kGeneric: return generic_kernel();
        case SimdLevel::kAvx2:
#if defined(SKYNET_SIMD_AVX2)
            return detail::avx2_kernel();
#else
            return generic_kernel();
#endif
        case SimdLevel::kAvx512:
#if defined(SKYNET_SIMD_AVX512)
            return detail::avx512_kernel();
#else
            return generic_kernel();
#endif
    }
    return generic_kernel();
}

constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
    return (a + b - 1) / b;
}

}  // namespace

int gemm_mr() { return active_kernel().mr; }
int gemm_nr() { return active_kernel().nr; }
const char* gemm_kernel_name() { return active_kernel().name; }

void pack_a(int M, int K, const float* A, bool trans, PackedA& out) {
    const int mr = active_kernel().mr;
    out.M = M;
    out.K = K;
    out.mr = mr;
    if (M <= 0 || K <= 0) {
        out.data.clear();
        return;
    }
    const std::int64_t mp = ceil_div(M, mr);
    out.data.assign(static_cast<std::size_t>(mp * mr * K), 0.0f);
    float* dst = out.data.data();
    for (std::int64_t p = 0; p < mp; ++p) {
        const int rows = static_cast<int>(std::min<std::int64_t>(mr, M - p * mr));
        float* panel = dst + p * mr * K;
        for (int k = 0; k < K; ++k) {
            float* col = panel + static_cast<std::int64_t>(k) * mr;
            for (int m = 0; m < rows; ++m)
                col[m] = trans ? A[static_cast<std::int64_t>(k) * M + p * mr + m]
                               : A[(p * mr + m) * static_cast<std::int64_t>(K) + k];
        }
    }
}

namespace {

/// Panels [q0, q1) of op(B) for an NR-column micro-kernel, reading stored
/// rows `ld` floats apart.  Every real lane is copied, and only the last
/// panel's columns past N are padding, so only they are zeroed.
template <int NR>
void pack_b_panels(int K, int N, const float* B, std::int64_t ld, bool trans, float* dst,
                   std::int64_t q0, std::int64_t q1) {
    for (std::int64_t q = q0; q < q1; ++q) {
        const int cols = static_cast<int>(std::min<std::int64_t>(NR, N - q * NR));
        float* panel = dst + q * NR * K;
        if (!trans) {
            for (int k = 0; k < K; ++k) {
                const float* src = B + k * ld + q * NR;
                float* row = panel + static_cast<std::int64_t>(k) * NR;
                if (cols == NR) {
                    std::memcpy(row, src, sizeof(float) * NR);
                } else {
                    std::memcpy(row, src, sizeof(float) * static_cast<std::size_t>(cols));
                    std::fill(row + cols, row + NR, 0.0f);
                }
            }
        } else {
            for (int j = 0; j < cols; ++j) {
                const float* src = B + (q * NR + j) * ld;
                for (int k = 0; k < K; ++k) panel[static_cast<std::int64_t>(k) * NR + j] = src[k];
            }
            if (cols < NR)
                for (int k = 0; k < K; ++k)
                    std::fill(panel + static_cast<std::int64_t>(k) * NR + cols,
                              panel + static_cast<std::int64_t>(k) * NR + NR, 0.0f);
        }
    }
}

/// pack_b_panels at a micro-kernel's tile width.  The width is a template
/// argument, so each row's copy is a few fixed-size moves, not a library
/// call.
auto panel_fill(int nr) {
    switch (nr) {
        case 4: return &pack_b_panels<4>;
        case 8: return &pack_b_panels<8>;
        case 16: return &pack_b_panels<16>;
        case 32: return &pack_b_panels<32>;
        default: throw std::logic_error("pack_b: no panel fill for this tile width");
    }
}

}  // namespace

void pack_b(int K, int N, const float* B, bool trans, PackedB& out) {
    pack_b(K, N, B, trans ? K : N, trans, out);
}

void pack_b(int K, int N, const float* B, std::int64_t ld, bool trans, PackedB& out) {
    const int nr = active_kernel().nr;
    out.K = K;
    out.N = N;
    out.nr = nr;
    if (K <= 0 || N <= 0) {
        out.data.clear();
        return;
    }
    const auto fill = panel_fill(nr);
    const std::int64_t np = ceil_div(N, nr);
    const std::int64_t panel = static_cast<std::int64_t>(nr) * K;
    // fill writes every element, so resize() zeroes only what the buffer
    // grows by.  Panels are disjoint, so any split is thread-count
    // invariant; a chunk moves at least 4096 floats, so a small pack (a
    // Linear's few columns, a tiny map) runs inline on the caller.
    out.data.resize(static_cast<std::size_t>(np * panel));
    float* dst = out.data.data();
    parallel_for(0, np, ceil_div(4096, panel), [=](std::int64_t q0, std::int64_t q1) {
        fill(K, N, B, ld, trans, dst, q0, q1);
    });
}

namespace {

/// The tile walk shared by both sgemm_packed modes over C rows `ldc` floats
/// apart; `ep` null accumulates.
void run_tiles(const PackedA& A, const PackedB& B, float* C, std::int64_t ldc,
               const Epilogue* ep) {
    const detail::GemmKernel kern = active_kernel();
    const int M = A.M, N = B.N, K = A.K;
    // K = 0 still stores act(bias); only the accumulate has nothing to add.
    if (M <= 0 || N <= 0 || K < 0 || (K == 0 && ep == nullptr)) return;
    if (A.mr != kern.mr || B.nr != kern.nr)
        throw std::logic_error(
            "sgemm_packed: operands were packed for a different micro-kernel tile "
            "(repack after set_simd_level)");
    if (A.K != B.K) throw std::invalid_argument("sgemm_packed: K mismatch");
    const int mr = kern.mr, nr = kern.nr;
    const std::int64_t mp = ceil_div(M, mr), np = ceil_div(N, nr);
    const float* ap = A.data.data();
    const float* bp = B.data.data();
    const std::int64_t apanel = static_cast<std::int64_t>(mr) * K;
    const std::int64_t bpanel = static_cast<std::int64_t>(nr) * K;
    const auto tile = [=](std::int64_t p, std::int64_t q) {
        const int mv = static_cast<int>(std::min<std::int64_t>(mr, M - p * mr));
        const int nv = static_cast<int>(std::min<std::int64_t>(nr, N - q * nr));
        Epilogue tile_ep;
        if (ep != nullptr) {
            tile_ep = *ep;
            if (tile_ep.bias != nullptr) tile_ep.bias += p * mr;
            if (tile_ep.scale != nullptr) {
                tile_ep.scale += p * mr;
                tile_ep.shift += p * mr;
            }
        }
        kern.fn(K, ap + p * apanel, bp + q * bpanel, C + p * mr * ldc + q * nr, ldc, mv, nv,
                ep != nullptr ? &tile_ep : nullptr);
    };
    // Every register tile of C is produced by exactly one micro-kernel call
    // inside one chunk, so either split is bitwise thread-count invariant;
    // parallelise the longer panel axis.  Column-panel major order keeps one
    // B panel hot while all of A (usually L2-resident) streams past it.
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

void sgemm_packed(const PackedA& A, const PackedB& B, float* C) {
    run_tiles(A, B, C, B.N, nullptr);
}

void sgemm_packed(const PackedA& A, const PackedB& B, float* C, const Epilogue& ep) {
    run_tiles(A, B, C, B.N, &ep);
}

void sgemm_packed(const PackedA& A, const PackedB& B, float* C, std::int64_t ldc,
                  const Epilogue& ep) {
    run_tiles(A, B, C, ldc, &ep);
}

void for_each_band(int H, int W, bool pool, std::int64_t planes,
                   const std::function<void(const Band&)>& fn) {
    if (H <= 0 || W <= 0 || planes <= 0) return;
    // Sizes at which a band's packed B and its pre-pool outputs stay in L2
    // between the pack, the multiply and the pool (docs/KERNELS.md).
    constexpr std::int64_t kBandCols = 256, kPoolBandCols = 1280, kChunksPerThread = 4;
    const std::int64_t threads = ThreadPool::global().size();
    // Bands per plane that give every pool thread its chunks.
    const std::int64_t want = ceil_div(kChunksPerThread * threads, planes);
    std::int64_t end = 0, width = 0;  // columns the bands cover; per band
    if (pool) {
        const std::int64_t rows = 2 * (H / 2);
        std::int64_t band_rows = std::max<std::int64_t>(2, kPoolBandCols / W / 2 * 2);
        band_rows = std::min(band_rows, std::max<std::int64_t>(2, ceil_div(rows, 2 * want) * 2));
        end = rows * W;
        width = band_rows * W;
    } else {
        // Whole panels of the active tile width, so only the last band ends
        // in a partial tile.  The integer kernel's tile is as wide as the
        // fp32 one at every level (QGemm.TilesAsWideAsTheFp32KernelsAtEveryLevel),
        // and kBandCols is a multiple of every width.
        const std::int64_t nr = active_kernel().nr;
        end = static_cast<std::int64_t>(H) * W;
        width = std::min(kBandCols, ceil_div(ceil_div(end, want), nr) * nr);
    }
    const std::int64_t count = ceil_div(end, width);  // bands per plane
    parallel_for(0, planes * count, 1, [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
            Band b;
            b.plane = t / count;
            b.c0 = t % count * width;
            b.cols = static_cast<int>(std::min(width, end - b.c0));
            if (pool) {
                b.rows = b.cols / W;
                b.out0 = b.c0 / W / 2 * (W / 2);
            }
            fn(b);
        }
    });
}

namespace {

// Per-call packing scratch for the pointer-interface wrappers.  Thread-local
// so concurrent callers (and pool workers running nested kernels) never
// share panels; capacity is reused across calls.
thread_local PackedA tls_pa;
thread_local PackedB tls_pb;

void sgemm_wrapped(int M, int N, int K, const float* A, bool a_trans, const float* B,
                   bool b_trans, float* C) {
    if (M <= 0 || N <= 0 || K <= 0) return;
    pack_a(M, K, A, a_trans, tls_pa);
    pack_b(K, N, B, b_trans, tls_pb);
    sgemm_packed(tls_pa, tls_pb, C);
}

}  // namespace

void sgemm_tn(int M, int N, int K, const float* A, const float* B, float* C) {
    sgemm_wrapped(M, N, K, A, true, B, false, C);
}

void sgemm_nt(int M, int N, int K, const float* A, const float* B, float* C) {
    sgemm_wrapped(M, N, K, A, false, B, true, C);
}

void im2col(const float* img, int C, int H, int W, int k, int stride, int pad, int OH,
            int OW, float* col) {
    const std::int64_t rows = static_cast<std::int64_t>(C) * k * k;
    const std::int64_t ocols = static_cast<std::int64_t>(OH) * OW;
    parallel_for(0, rows, 4, [=](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            const int ic = static_cast<int>(r / (k * k));
            const int kh = static_cast<int>(r / k) % k;
            const int kw = static_cast<int>(r % k);
            const float* plane = img + static_cast<std::int64_t>(ic) * H * W;
            float* out = col + r * ocols;
            for (int oh = 0; oh < OH; ++oh, out += OW) {
                const int ih = oh * stride - pad + kh;
                if (ih < 0 || ih >= H) {
                    std::memset(out, 0, sizeof(float) * static_cast<std::size_t>(OW));
                    continue;
                }
                const float* row = plane + static_cast<std::int64_t>(ih) * W;
                const int iw0 = -pad + kw;  // input column of output column 0
                if (stride == 1) {
                    // Contiguous copy with zeroed out-of-bounds edges.
                    const int lo = std::max(0, -iw0);            // first valid ow
                    const int hi = std::min(OW, W - iw0);        // one past last valid
                    for (int ow = 0; ow < lo; ++ow) out[ow] = 0.0f;
                    if (hi > lo)
                        std::memcpy(out + lo, row + iw0 + lo,
                                    sizeof(float) * static_cast<std::size_t>(hi - lo));
                    for (int ow = std::max(lo, hi); ow < OW; ++ow) out[ow] = 0.0f;
                } else {
                    for (int ow = 0; ow < OW; ++ow) {
                        const int iw = iw0 + ow * stride;
                        out[ow] = (iw >= 0 && iw < W) ? row[iw] : 0.0f;
                    }
                }
            }
        }
    });
}

void im2col_packed(const float* img, int C, int H, int W, int k, int stride, int pad,
                   int OH, int OW, PackedB& out) {
    const int nr = active_kernel().nr;
    const std::int64_t rows = static_cast<std::int64_t>(C) * k * k;  // GEMM K
    const std::int64_t ocols = static_cast<std::int64_t>(OH) * OW;  // GEMM N
    out.K = static_cast<int>(rows);
    out.N = static_cast<int>(ocols);
    out.nr = nr;
    if (rows <= 0 || ocols <= 0) {
        out.data.clear();
        return;
    }
    const std::int64_t np = ceil_div(ocols, nr);
    out.data.resize(static_cast<std::size_t>(np * nr * rows));
    float* data = out.data.data();
    const std::int64_t panel_stride = static_cast<std::int64_t>(nr) * rows;
    // Row r of the column matrix maps to the fixed lane r*nr of every panel,
    // so rows are written by exactly one chunk — same disjointness (and
    // therefore thread-count invariance) as im2col.
    parallel_for(0, rows, 4, [=](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            const int ic = static_cast<int>(r / (k * k));
            const int kh = static_cast<int>(r / k) % k;
            const int kw = static_cast<int>(r % k);
            const float* plane = img + static_cast<std::int64_t>(ic) * H * W;
            float* cur = data + r * nr;  // lane r of panel 0
            int jj = 0;                  // lane offset within the current panel
            const auto put = [&](float v) {
                cur[jj] = v;
                if (++jj == nr) {
                    jj = 0;
                    cur += panel_stride;
                }
            };
            for (int oh = 0; oh < OH; ++oh) {
                const int ih = oh * stride - pad + kh;
                if (ih < 0 || ih >= H) {
                    for (int ow = 0; ow < OW; ++ow) put(0.0f);
                    continue;
                }
                const float* row = plane + static_cast<std::int64_t>(ih) * W;
                const int iw0 = -pad + kw;
                for (int ow = 0; ow < OW; ++ow) {
                    const int iw = iw0 + ow * stride;
                    put(iw >= 0 && iw < W ? row[iw] : 0.0f);
                }
            }
            // Zero this row's lanes in the final partial panel.
            for (std::int64_t j = ocols; j < np * nr; ++j) put(0.0f);
        }
    });
}

void col2im(const float* col, int C, int H, int W, int k, int stride, int pad, int OH,
            int OW, float* img) {
    const std::int64_t ocols = static_cast<std::int64_t>(OH) * OW;
    // Parallel over input channels: all k*k rows of a channel scatter into
    // that channel's plane only, so planes are written by exactly one chunk.
    parallel_for(0, C, 1, [=](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t ic = c0; ic < c1; ++ic) {
            float* plane = img + ic * H * W;
            for (int kh = 0; kh < k; ++kh) {
                for (int kw = 0; kw < k; ++kw) {
                    const std::int64_t r = (ic * k + kh) * k + kw;
                    const float* in = col + r * ocols;
                    for (int oh = 0; oh < OH; ++oh, in += OW) {
                        const int ih = oh * stride - pad + kh;
                        if (ih < 0 || ih >= H) continue;
                        float* row = plane + static_cast<std::int64_t>(ih) * W;
                        const int iw0 = -pad + kw;
                        if (stride == 1) {
                            const int lo = std::max(0, -iw0);
                            const int hi = std::min(OW, W - iw0);
                            for (int ow = lo; ow < hi; ++ow) row[iw0 + ow] += in[ow];
                        } else {
                            for (int ow = 0; ow < OW; ++ow) {
                                const int iw = iw0 + ow * stride;
                                if (iw >= 0 && iw < W) row[iw] += in[ow];
                            }
                        }
                    }
                }
            }
        }
    });
}

}  // namespace sky::core
