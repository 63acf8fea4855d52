// Packed SIMD single-precision GEMM engine + im2col/col2im lowering.
//
// These are the compute primitives behind Conv2d, PWConv1, Linear and the
// other sky::nn hot loops.  All matrices are dense row-major with no
// padding; the (M, N, K) naming follows BLAS: C is M x N and K is the
// contraction length.
//
// Execution model (docs/KERNELS.md has the full story):
//
//   pack_a / pack_b   copy the operands into register-tile panels (MR rows /
//                     NR columns, k-major, zero-padded to full tiles) sized
//                     for the active micro-kernel (core/simd.hpp),
//   sgemm_packed      walks the C tile grid, one mr x nr register tile per
//                     micro-kernel call, parallelised over whole tiles
//                     through the global ThreadPool.  It either accumulates
//                     into C or, in store mode, writes act(bias + acc)
//                     straight from the register tile (an Epilogue).
//
// Weights can be packed once via pack_a and reused across forwards: every
// nn conv layer keeps such a weight pack for its eval forwards
// (nn/conv_layer.hpp).  The sgemm_tn/nt wrappers, which the conv and
// pwconv backward passes call, keep the classic pointer interface and pack
// both operands per call into thread-local scratch.
//
// Determinism: every C element is one sequential k-accumulation inside one
// micro-kernel call and every tile is written by exactly one parallel_for
// chunk, so results are bitwise independent of the thread count.  Scalar vs
// vector levels may differ by FMA contraction (tolerance-checked in
// tests/test_simd.cpp); a fixed build at a fixed SimdLevel is bitwise
// reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace sky::core {

/// Register-tile geometry of the active micro-kernel (core/simd.hpp level).
[[nodiscard]] int gemm_mr();
[[nodiscard]] int gemm_nr();
/// Name of the active micro-kernel ("scalar" / "generic" / "avx2" / "avx512").
[[nodiscard]] const char* gemm_kernel_name();

/// Activation an Epilogue applies.  The formulas are nn::Activation's
/// (nn/epilogue.hpp); the micro-kernel carries their vector twin.
enum class EpilogueAct : std::uint8_t { kNone, kReLU, kReLU6, kLeaky, kSigmoid };

/// Elementwise per-row epilogue y = act(bias[row] + x), or with an affine
/// y = act(scale[row] * (bias[row] + x) + shift[row]), the product and the
/// sum rounded separately (no FMA), as an eval BatchNorm2d computes them.
/// A store-mode sgemm_packed applies it to each C row as it leaves the
/// register tile; an nn conv builds it from its own bias, the affine of a
/// folded eval BatchNorm and the fused activation (nn/epilogue.hpp).  The
/// arrays are borrowed, one value per row: `bias` or nullptr for none,
/// `scale` and `shift` both set or both nullptr.
struct Epilogue {
    const float* bias = nullptr;
    EpilogueAct act = EpilogueAct::kNone;
    float slope = 0.0f;             ///< kLeaky's negative-side slope
    const float* scale = nullptr;   ///< affine multiplier per row, or nullptr
    const float* shift = nullptr;   ///< affine addend per row (with scale)
    [[nodiscard]] bool empty() const {
        return bias == nullptr && act == EpilogueAct::kNone && scale == nullptr;
    }
};

/// op(A) packed into MR-row panels: panel p holds rows [p*mr, p*mr + mr) as
/// data[p*mr*K + k*mr + m], zero-padded past M.  `mr` records the tile
/// height the panels were built for; consumers must repack if it no longer
/// matches gemm_mr() (the nn layers fall back to per-call packing).
struct PackedA {
    int M = 0;
    int K = 0;
    int mr = 0;
    std::vector<float> data;
    [[nodiscard]] bool empty() const { return data.empty(); }
    void clear() { *this = PackedA{}; }
};

/// op(B) packed into NR-column panels: panel q holds columns
/// [q*nr, q*nr + nr) as data[q*nr*K + k*nr + j], zero-padded past N.
struct PackedB {
    int K = 0;
    int N = 0;
    int nr = 0;
    std::vector<float> data;
    [[nodiscard]] bool empty() const { return data.empty(); }
    void clear() { *this = PackedB{}; }
};

/// Pack op(A) (M x K) for the active micro-kernel.  trans=false reads A as
/// M x K row-major; trans=true reads the K x M storage of sgemm_tn.
void pack_a(int M, int K, const float* A, bool trans, PackedA& out);

/// Pack op(B) (K x N).  trans=false reads B as K x N row-major; trans=true
/// reads the N x K storage of sgemm_nt.
void pack_b(int K, int N, const float* B, bool trans, PackedB& out);

/// pack_b of a window of a wider matrix whose stored rows lie `ld` floats
/// apart: K rows of N floats (ld >= N), or with trans=true N rows of K
/// floats (ld >= K).  A pointwise conv's band is such a window: N columns of
/// its K channel planes, ld = H * W.
void pack_b(int K, int N, const float* B, std::int64_t ld, bool trans, PackedB& out);

/// C(M x N) += op(A) * op(B) over packed operands.  A.K must equal B.K and
/// both packs must match the active tile geometry (std::logic_error
/// otherwise); C is row-major with leading dimension N.
void sgemm_packed(const PackedA& A, const PackedB& B, float* C);

/// Store mode: C(M x N) = act(b + op(A) * op(B)) with b = ep.bias[m], or
/// +0.0 when ep.bias is null; with an affine, act(ep.scale[m] * (b + op(A) *
/// op(B)) + ep.shift[m]).  C is written once from the register tile and
/// never read.  This is bitwise what filling C with b (or zeros), the
/// accumulating sgemm_packed, a separate BatchNorm pass and a separate
/// activation pass give, at every level and thread count; K = 0 writes
/// act(b), or act(scale * b + shift).
void sgemm_packed(const PackedA& A, const PackedB& B, float* C, const Epilogue& ep);

/// Store mode into C rows that lie `ldc` floats apart (ldc >= N): a band of
/// a wider output, say the same N columns of each output channel plane.
void sgemm_packed(const PackedA& A, const PackedB& B, float* C, std::int64_t ldc,
                  const Epilogue& ep);

/// C(M x N) += A^T * B where A is stored K x M (op(A) = M x K).
void sgemm_tn(int M, int N, int K, const float* A, const float* B, float* C);

/// C(M x N) += A * B^T where A is M x K and B is stored N x K.
void sgemm_nt(int M, int N, int K, const float* A, const float* B, float* C);

/// Unpack one CHW image into a [C*k*k, OH*OW] column matrix for a k x k
/// convolution with the given stride/pad (zero padding).  Row r of `col`
/// corresponds to tap (ic, kh, kw) = (r / k^2, (r % k^2) / k, r % k).
void im2col(const float* img, int C, int H, int W, int k, int stride, int pad, int OH,
            int OW, float* col);

/// im2col straight into the PackedB panel layout — the conv forward hot path
/// skips the intermediate column matrix entirely.  Equivalent to im2col()
/// followed by pack_b() of the result.
void im2col_packed(const float* img, int C, int H, int W, int k, int stride, int pad,
                   int OH, int OW, PackedB& out);

/// One band of a pointwise conv's band-major walk (for_each_band): columns
/// [c0, c0 + cols) of one H x W plane.  With a folded 2x2 max pool the band
/// is `rows` whole rows, an even count, and its pooled values start at
/// element `out0` of the (H/2) x (W/2) output plane.
struct Band {
    std::int64_t plane = 0;  ///< (image, group) plane, in [0, planes)
    std::int64_t c0 = 0;     ///< first column in the plane
    int cols = 0;            ///< columns in the band
    int rows = 0;            ///< whole rows (pool only)
    std::int64_t out0 = 0;   ///< first pooled output (pool only)
};

/// The band-major walk of a pointwise (1x1) conv over `planes` (image,
/// group) planes of H x W: one parallel_for whose chunks call fn once per
/// band, and fn takes its band through the whole layer: it packs the band
/// (pack_b at the plane's row stride), multiplies it in store mode and,
/// with a folded pool, pools it from per-thread scratch.  Without a pool a
/// band is about 256 columns; with one, about 1280 columns of whole rows,
/// so every pool window lies in one band, and a dropped odd row is never
/// visited.  Bands shrink until the walk has at least 4 chunks per
/// kernel-pool thread.  docs/KERNELS.md has the measurements.
void for_each_band(int H, int W, bool pool, std::int64_t planes,
                   const std::function<void(const Band&)>& fn);

/// Scatter-accumulate a column matrix back into a CHW image gradient —
/// the adjoint of im2col.  `img` is accumulated into, not overwritten.
void col2im(const float* col, int C, int H, int W, int k, int stride, int pad, int OH,
            int OW, float* img);

}  // namespace sky::core
