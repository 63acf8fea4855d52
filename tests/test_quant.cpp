// Fixed-point quantisation: bit-true formats, format choice, monotone error
// in bit-width, and the ReLU6 dynamic-range advantage the paper exploits.
#include <gtest/gtest.h>

#include "quant/fixed_point.hpp"

namespace sky::quant {
namespace {

TEST(FixedPoint, StepAndRange) {
    FixedPointFormat f{8, 4};
    EXPECT_DOUBLE_EQ(f.step(), 1.0 / 16.0);
    EXPECT_DOUBLE_EQ(f.max_val(), 127.0 / 16.0);
    EXPECT_DOUBLE_EQ(f.min_val(), -8.0);
}

TEST(FixedPoint, QuantizeRoundsToGrid) {
    FixedPointFormat f{8, 4};
    EXPECT_FLOAT_EQ(f.quantize(0.10f), 0.125f);   // nearest multiple of 1/16
    EXPECT_FLOAT_EQ(f.quantize(-0.01f), 0.0f);
    EXPECT_FLOAT_EQ(f.quantize(100.0f), static_cast<float>(f.max_val()));  // saturates
    EXPECT_FLOAT_EQ(f.quantize(-100.0f), static_cast<float>(f.min_val()));
}

TEST(FixedPoint, ChooseFormatCoversRange) {
    for (float amax : {0.1f, 0.9f, 3.0f, 5.9f, 17.0f, 200.0f}) {
        const FixedPointFormat f = choose_format(12, amax);
        EXPECT_GE(f.max_val(), amax * 0.999) << amax;
        // And not wastefully large: one fewer integer bit must not cover.
        FixedPointFormat tighter{12, f.frac_bits + 1};
        EXPECT_LT(tighter.max_val(), amax) << amax;
    }
}

TEST(FixedPoint, MoreBitsLessError) {
    Rng rng(1);
    Tensor t({1, 1, 32, 32});
    t.randn(rng);
    double prev = 1e9;
    for (int bits : {6, 8, 10, 12, 14}) {
        const double mse = quantization_mse(t, choose_format(bits, t.abs_max()));
        EXPECT_LT(mse, prev) << bits;
        prev = mse;
    }
}

TEST(FixedPoint, BoundedRangeQuantizesBetter) {
    // The ReLU6 rationale: a [0,6]-bounded tensor has lower quantisation
    // error than an unbounded one at the same bit-width.
    Rng rng(2);
    Tensor bounded({1, 1, 64, 64});
    bounded.rand_uniform(rng, 0.0f, 6.0f);
    Tensor unbounded({1, 1, 64, 64});
    unbounded.randn(rng, 3.0f, 15.0f);
    const int bits = 8;
    const double mse_b =
        quantization_mse(bounded, choose_format(bits, bounded.abs_max()));
    const double mse_u =
        quantization_mse(unbounded, choose_format(bits, unbounded.abs_max()));
    EXPECT_LT(mse_b, mse_u);
}

}  // namespace
}  // namespace sky::quant
