// Packed u8 x s16 -> int32 integer GEMM engine — the quantized twin of
// core/gemm.hpp, built from the same GotoBLAS panel architecture:
//
//   qpack_a / qpack_b    copy s8/s16 weights / u8 activations into k-paired
//                        register-tile panels (core/qgemm_ukernel.hpp) sized
//                        for the active micro-kernel (core/simd.hpp level),
//   qgemm_packed         walks the C tile grid, one int32 register tile per
//                        micro-kernel call, parallelised over whole tiles
//                        through the global ThreadPool.  It either
//                        accumulates into int32 C or, in store mode, writes
//                        clamp(round_shift(bias + acc, shift), lo, hi)
//                        straight from the register tile (a QEpilogue) as
//                        int32 or int16 words,
//   qim2col_packed       lowers a CHW fixed-point image of int16 or int32
//                        words straight into the u8 panel layout with a
//                        zero-point offset applied.
//
// Zero-point handling is the caller's contract (quant/qengine.cpp): the u8
// operand stores u = x - lo for a layer whose inputs are proven to lie in
// [lo, lo + 255] on the fixed-point grid, and the exact correction
// Sum_k(w * x) = Sum_k(w * u) + lo * rowsum(w) is folded into the bias using
// the per-row weight sums that qpack_a records.  The A panel holds s16 taps,
// so weights up to 15 bits run natively in ONE pass — the s16*s16 pairwise
// products vpmaddwd sums are exact in int32 (max |a|*|b| pair sum is
// 2*32767*255, far below INT32_MAX).
//
// Overflow contract: the int32 ACCUMULATION is exact iff
// K * max|a| * max|b| < 2^31.  qpack_a (s8 source) guarantees that for
// K <= qgemm_max_k(); qpack_a_wide callers must prove the value-aware bound
// themselves (quant/qengine.cpp plans it per layer from the propagated
// ranges).  The store mode needs no further proof from the caller: it
// requantizes a tile in int32 registers only where the packed weights bound
// every biased accumulator, and in int64 elsewhere.
//
// Determinism is stronger than the fp32 engine's: accumulation is exact
// integer arithmetic, so results are bitwise identical across thread counts
// AND across every SIMD level, in both modes (tests/test_qgemm.cpp pins
// both).
#pragma once

#include <cstdint>
#include <vector>

namespace sky::core {

/// Register-tile geometry of the active integer micro-kernel.
[[nodiscard]] int qgemm_mr();
[[nodiscard]] int qgemm_nr();
/// Name of the active integer micro-kernel ("scalar" / "generic" / "avx2" /
/// "avx512").
[[nodiscard]] const char* qgemm_kernel_name();
/// Largest contraction length qgemm_packed accepts (int32 accumulation is
/// provably overflow-free up to this K for s8-range A operands; wide packs
/// additionally owe the value-aware bound in the header comment).
[[nodiscard]] int qgemm_max_k();

/// s16 operand (weights) packed into MR-row k-paired panels: panel p holds
/// rows [p*mr, p*mr + mr) as data[p*mr*KP + k2*mr*2 + m*2 + t] where
/// KP = K rounded up to even and (k2, t) addresses tap 2*k2 + t.  Rows past
/// M and the phantom odd-K tap are zero.  `rowsum[m]` is the sum of row m of
/// A over the real K taps — the zero-point correction term — and `rowabs[m]`
/// the sum of its magnitudes: no u8 operand drives row m's accumulator past
/// 255 * rowabs[m].
struct QPackedA {
    int M = 0;
    int K = 0;
    int mr = 0;
    std::vector<std::int16_t> data;
    std::vector<std::int64_t> rowsum;
    std::vector<std::int64_t> rowabs;
    [[nodiscard]] bool empty() const { return data.empty(); }
    void clear() { *this = QPackedA{}; }
};

/// u8 operand (activations) packed into NR-column k-paired panels: panel q
/// holds columns [q*nr, q*nr + nr) as data[q*nr*KP + k2*nr*2 + j*2 + t],
/// zero-padded past N and past K.
struct QPackedB {
    int K = 0;
    int N = 0;
    int nr = 0;
    std::vector<std::uint8_t> data;
    [[nodiscard]] bool empty() const { return data.empty(); }
    void clear() { *this = QPackedB{}; }
};

/// Pack A (M x K row-major s8) for the active micro-kernel and record the
/// per-row sums.
void qpack_a(int M, int K, const std::int8_t* A, QPackedA& out);

/// Pack A (M x K row-major int32, every value in the s16 range) for the
/// active micro-kernel — the wide-weight (9..15 bit) path.  Throws
/// std::domain_error on a value outside [-32768, 32767]; the caller owns the
/// accumulator bound K * max|A| * max|B| < 2^31.
void qpack_a_wide(int M, int K, const std::int32_t* A, QPackedA& out);

/// Pack B (K x N row-major u8) for the active micro-kernel.
void qpack_b(int K, int N, const std::uint8_t* B, QPackedB& out);

/// Round-to-nearest arithmetic right shift, ties away from zero (the FPGA
/// requantization rounding).  shift <= 0 is an exact left shift.
[[nodiscard]] inline std::int64_t round_shift(std::int64_t v, int shift) {
    if (shift <= 0) return v << (-shift);
    const std::int64_t half = std::int64_t{1} << (shift - 1);
    return v >= 0 ? (v + half) >> shift : -((-v + half) >> shift);
}

/// Per-row requantization a store-mode qgemm_packed applies to each C row as
/// it leaves the register tile — the integer twin of core::Epilogue:
/// y = clamp(round_shift(bias[row] + acc, shift), lo, hi).  `bias` is
/// borrowed and sits at accumulator scale: one value per row, or nullptr
/// for none.
struct QEpilogue {
    const std::int64_t* bias = nullptr;
    int shift = 0;
    std::int32_t lo = 0;
    std::int32_t hi = 0;
};

/// C(M x N) += A * B over packed operands with exact int32 accumulation.
/// A.K must equal B.K and both packs must match the active tile geometry
/// (std::logic_error otherwise); K > qgemm_max_k() throws std::length_error.
/// C is row-major with leading dimension N.
void qgemm_packed(const QPackedA& A, const QPackedB& B, std::int32_t* C);

/// Store mode: C(M x N) = clamp(round_shift(b + A * B, rq.shift), rq.lo,
/// rq.hi) with b = rq.bias[m], or 0 when rq.bias is null.  C is written once
/// from the register tile and never read.  This is bitwise what a
/// zero-filled C, the accumulating qgemm_packed and an int64 requantize pass
/// give, at every level and thread count; K = 0 writes the requantized
/// bias.  A tile requantizes in int32 registers when every row m satisfies
/// 255 * A.rowabs[m] + |b| + 2^(shift - 1) < 2^31 with 1 <= shift <= 30,
/// and in int64 otherwise.  Same operand checks as the accumulating form.
void qgemm_packed(const QPackedA& A, const QPackedB& B, std::int32_t* C,
                  const QEpilogue& rq);

/// Store mode into int16 words: the same values as the int32 store, each
/// narrowed from the register tile (on AVX2 one vpackssdw + vpermq per
/// tile row after the clamp; on AVX-512 a word permute of the row's two
/// vectors).  Throws std::invalid_argument when
/// [rq.lo, rq.hi] is not inside [-32768, 32767], so no value can wrap.
void qgemm_packed(const QPackedA& A, const QPackedB& B, std::int16_t* C,
                  const QEpilogue& rq);

/// Either store into C rows that lie `ldc` words apart (ldc >= N): a band
/// of a wider output, as core::sgemm_packed's strided store.
void qgemm_packed(const QPackedA& A, const QPackedB& B, std::int32_t* C, std::int64_t ldc,
                  const QEpilogue& rq);
void qgemm_packed(const QPackedA& A, const QPackedB& B, std::int16_t* C, std::int64_t ldc,
                  const QEpilogue& rq);

/// im2col of one CHW image of fixed-point grid values straight into the u8
/// panel layout, storing u = x - lo per tap.  Caller guarantees every pixel
/// (and 0, whenever pad > 0) lies in [lo, lo + 255].  Equivalent to im2col()
/// followed by qpack_b() of (x - lo).  One body reads either word type.
void qim2col_packed(const std::int32_t* img, int C, int H, int W, int k, int stride,
                    int pad, int OH, int OW, std::int32_t lo, QPackedB& out);
void qim2col_packed(const std::int16_t* img, int C, int H, int W, int k, int stride,
                    int pad, int OH, int OW, std::int32_t lo, QPackedB& out);

/// The pointwise lowering (k = 1, stride 1, no pad) of a column window: N
/// columns of C channel rows that lie `ld` words apart, stored as u = x - lo
/// (a pointwise conv's band of its planes, ld = H * W).  The same panels as
/// qim2col_packed above with k = 1 over those columns.
void qim2col_packed(const std::int32_t* img, int C, int N, std::int64_t ld, std::int32_t lo,
                    QPackedB& out);
void qim2col_packed(const std::int16_t* img, int C, int N, std::int64_t ld, std::int32_t lo,
                    QPackedB& out);

}  // namespace sky::core
