// Tensor core: shapes, arithmetic, reductions, concat/split, RNG determinism.
#include <gtest/gtest.h>

#include <stdexcept>

#include "tensor/tensor.hpp"

namespace sky {
namespace {

TEST(Shape, CountAndEquality) {
    Shape s{2, 3, 4, 5};
    EXPECT_EQ(s.count(), 120);
    EXPECT_EQ(s.per_item(), 60);
    EXPECT_EQ(s, (Shape{2, 3, 4, 5}));
    EXPECT_NE(s, (Shape{2, 3, 4, 6}));
}

TEST(Tensor, ConstructZeroed) {
    Tensor t({2, 3, 4, 4});
    EXPECT_EQ(t.size(), 96);
    EXPECT_FLOAT_EQ(t.sum(), 0.0f);
}

TEST(Tensor, FillAndScale) {
    Tensor t({1, 2, 2, 2}, 2.0f);
    t.scale(3.0f);
    EXPECT_FLOAT_EQ(t.sum(), 48.0f);
    t.fill(-1.0f);
    EXPECT_FLOAT_EQ(t.min(), -1.0f);
    EXPECT_FLOAT_EQ(t.max(), -1.0f);
}

TEST(Tensor, AtIndexing) {
    Tensor t({2, 3, 4, 5});
    t.at(1, 2, 3, 4) = 7.5f;
    // NCHW layout: last element of the buffer.
    EXPECT_FLOAT_EQ(t[t.size() - 1], 7.5f);
    t.at(0, 0, 0, 0) = -2.0f;
    EXPECT_FLOAT_EQ(t[0], -2.0f);
}

TEST(Tensor, Axpy) {
    Tensor a({1, 1, 2, 2}, 1.0f);
    Tensor b({1, 1, 2, 2}, 2.0f);
    a.axpy(0.5f, b);
    EXPECT_FLOAT_EQ(a[0], 2.0f);
}

TEST(Tensor, Reductions) {
    Tensor t({1, 1, 1, 4}, std::vector<float>{-3.0f, 1.0f, 2.0f, 0.0f});
    EXPECT_FLOAT_EQ(t.min(), -3.0f);
    EXPECT_FLOAT_EQ(t.max(), 2.0f);
    EXPECT_FLOAT_EQ(t.abs_max(), 3.0f);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
    EXPECT_DOUBLE_EQ(t.sq_norm(), 14.0);
}

TEST(Tensor, ReshapePreservesData) {
    Tensor t({1, 2, 2, 2});
    for (int i = 0; i < 8; ++i) t[i] = static_cast<float>(i);
    Tensor r = t.reshaped({1, 8, 1, 1});
    EXPECT_EQ(r.shape().c, 8);
    for (int i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(r[i], static_cast<float>(i));
    EXPECT_THROW((void)t.reshaped({1, 3, 1, 1}), std::invalid_argument);
}

TEST(Tensor, ConcatSplitChannelsRoundTrip) {
    Rng rng(1);
    Tensor a({2, 3, 4, 4}), b({2, 5, 4, 4});
    a.randn(rng);
    b.randn(rng);
    Tensor cat;
    Tensor::concat_channels({&a, &b}, cat);
    EXPECT_EQ(cat.shape(), (Shape{2, 8, 4, 4}));
    auto parts = Tensor::split_channels(cat, {3, 5});
    ASSERT_EQ(parts.size(), 2u);
    for (std::int64_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(parts[0][i], a[i]);
    for (std::int64_t i = 0; i < b.size(); ++i) EXPECT_FLOAT_EQ(parts[1][i], b[i]);
}

TEST(Tensor, ConcatOrderMatchesPlaneLayout) {
    Tensor a({1, 1, 2, 2}, 1.0f), b({1, 2, 2, 2}, 2.0f);
    Tensor cat({1, 7, 5, 5}, -1.0f);  // a stale, larger buffer is reused
    Tensor::concat_channels({&a, &b}, cat);
    EXPECT_EQ(cat.shape(), (Shape{1, 3, 2, 2}));
    EXPECT_FLOAT_EQ(cat.at(0, 0, 0, 0), 1.0f);
    EXPECT_FLOAT_EQ(cat.at(0, 1, 0, 0), 2.0f);
    EXPECT_FLOAT_EQ(cat.at(0, 2, 1, 1), 2.0f);
    for (std::int64_t i = 0; i < cat.size(); ++i)
        EXPECT_FLOAT_EQ(cat[i], i < 4 ? 1.0f : 2.0f) << i;
}

TEST(Rng, Deterministic) {
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformRange) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(2.0, 5.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds) {
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int v = rng.uniform_int(1, 4);
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 4);
        saw_lo |= v == 1;
        saw_hi |= v == 4;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
    Rng rng(11);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, SplitStreamsDiffer) {
    Rng a(5);
    Rng b = a.split();
    EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Tensor, AxpyShapeMismatchThrows) {
    // Release builds used to rely on assert() here — a shape mismatch walked
    // straight off the end of the smaller buffer.
    Tensor a({1, 2, 3, 3});
    Tensor b({1, 2, 3, 4});
    EXPECT_THROW(a.axpy(1.0f, b), std::invalid_argument);
    Tensor c({1, 2, 3, 3});
    EXPECT_NO_THROW(a.axpy(0.5f, c));
}

TEST(Tensor, ConcatChannelsMismatchThrows) {
    Tensor a({2, 3, 4, 4});
    Tensor b({2, 5, 4, 4});
    Tensor wrong_n({1, 3, 4, 4});
    Tensor wrong_hw({2, 3, 4, 5});
    Tensor out;
    EXPECT_THROW(Tensor::concat_channels({}, out), std::invalid_argument);
    EXPECT_THROW(Tensor::concat_channels({&a, &wrong_n}, out), std::invalid_argument);
    EXPECT_THROW(Tensor::concat_channels({&a, &wrong_hw}, out), std::invalid_argument);
    EXPECT_THROW(Tensor::concat_channels({&a, &b}, a), std::invalid_argument);
    Tensor::concat_channels({&a, &b}, out);
    EXPECT_EQ(out.shape(), (Shape{2, 8, 4, 4}));
}

TEST(Tensor, KaimingStddev) {
    Rng rng(3);
    Tensor w({64, 32, 3, 3});
    w.kaiming(rng, 32 * 9);
    const double var = w.sq_norm() / static_cast<double>(w.size());
    EXPECT_NEAR(var, 2.0 / (32 * 9), 2.0 / (32 * 9) * 0.2);
}

}  // namespace
}  // namespace sky
