// Bit-true signed fixed-point arithmetic for the quantization studies
// (Fig. 2a, Table 7, and the FPGA deployment path of §6.4.1).
//
// A value is represented as a two's-complement integer of `total_bits` with
// `frac_bits` fractional bits; quantisation is round-to-nearest with
// saturation.  choose_format() picks the fractional width that covers a
// given dynamic range — this models the per-tensor calibration every FPGA
// entry in Table 1 performs before deployment.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/qgemm.hpp"
#include "tensor/tensor.hpp"

namespace sky::quant {

struct FixedPointFormat {
    int total_bits = 16;
    int frac_bits = 8;

    [[nodiscard]] double step() const;     ///< value of one LSB
    [[nodiscard]] double max_val() const;  ///< largest representable value
    [[nodiscard]] double min_val() const;  ///< most negative representable value
    [[nodiscard]] float quantize(float v) const;
};

/// Smallest-step format of `total_bits` whose range covers [-abs_max, abs_max].
[[nodiscard]] FixedPointFormat choose_format(int total_bits, float abs_max);

// --- Integer grid primitives (the QEngine requantization datapath) -------

/// Clamp `v` into the two's-complement range of a `bits`-wide word.
/// Inline: this sits inside every requantization loop of the int8 engine.
[[nodiscard]] inline std::int32_t saturate(std::int64_t v, int bits) {
    const std::int64_t hi = (1LL << (bits - 1)) - 1;
    const std::int64_t lo = -(1LL << (bits - 1));
    return static_cast<std::int32_t>(std::clamp(v, lo, hi));
}

/// Round-to-nearest arithmetic right shift, ties away from zero: the one
/// copy the integer GEMM's store mode applies too (core/qgemm.hpp).
using core::round_shift;

/// Round every element of `t` to the fixed-point grid (in place).
void quantize_tensor(Tensor& t, const FixedPointFormat& fmt);

/// Mean squared quantisation error of `t` under `fmt` (t unchanged).
[[nodiscard]] double quantization_mse(const Tensor& t, const FixedPointFormat& fmt);

}  // namespace sky::quant
