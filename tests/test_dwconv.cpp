// The depthwise 3x3 kernel (core/dwconv.hpp) against the loops it replaced,
// at every SIMD level and at 1, 2 and 4 threads (the kernel runs inside
// parallel_for chunks, one plane per call):
//   * fp32 bitwise against the sequential DWConv3 loop — a +0-filled plane
//     that each present input row accumulates into — followed by a separate
//     bias pass and nn::apply_epilogue pass, for every EpilogueAct with and
//     without a bias, on inputs and weights holding NaN, +-Inf and +-0;
//   * int32 and int16 words bitwise against the int64 loop QEngine's
//     reference interpreter runs, across shifts, clamps, folded-BN biases at
//     accumulator scale, values at the edge of the int32 proof and, for
//     int16, at both ends of the word.
// Each output is written into a stale buffer with guard cells on both sides,
// which must come back untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/dwconv.hpp"
#include "core/qgemm.hpp"
#include "core/simd.hpp"
#include "core/thread_pool.hpp"
#include "nn/dwconv.hpp"
#include "nn/epilogue.hpp"
#include "simd_levels.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace sky {
namespace {

/// Restores the dispatch level and the global pool when a test exits.
struct SimdGuard {
    core::SimdLevel saved = core::active_simd_level();
    ~SimdGuard() {
        core::set_simd_level(saved);
        core::ThreadPool::set_global_threads(0);
    }
};

constexpr int kWidths[] = {1, 2, 3, 8, 9, 10, 16, 17, 40};
constexpr int kHeights[] = {1, 2, 3, 5};
constexpr int kImages = 2;
constexpr int kChannels = 3;
constexpr int kGuard = 16;  // stale cells before and after the planes

std::uint32_t bits(float v) {
    std::uint32_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

/// Every value bit for bit, +-0 included.  A NaN must meet a NaN, but its
/// payload is not part of the contract: an x86 add of two NaNs keeps one
/// operand's payload, and the compiler may commute an add.
bool same_float(float a, float b) {
    return (std::isnan(a) && std::isnan(b)) || bits(a) == bits(b);
}

// ------------------------------------------------------------------ fp32 --

/// The sequential DWConv3 loop the kernel replaced, then its bias and
/// epilogue passes; `ep.bias` points at this plane's bias or is null.
void reference_plane(const float* xp, const float* w, int H, int W, const core::Epilogue& ep,
                     float* yp) {
    std::fill(yp, yp + static_cast<std::int64_t>(H) * W, 0.0f);
    for (int oh = 0; oh < H; ++oh) {
        float* yrow = yp + static_cast<std::int64_t>(oh) * W;
        for (int kh = 0; kh < 3; ++kh) {
            const int ih = oh - 1 + kh;
            if (ih < 0 || ih >= H) continue;
            const float* xrow = xp + static_cast<std::int64_t>(ih) * W;
            const float w0 = w[kh * 3 + 0];
            const float w1 = w[kh * 3 + 1];
            const float w2 = w[kh * 3 + 2];
            for (int ow = 1; ow + 1 < W; ++ow)
                yrow[ow] += w0 * xrow[ow - 1] + w1 * xrow[ow] + w2 * xrow[ow + 1];
            if (W > 0) {
                yrow[0] += w1 * xrow[0];
                if (W > 1) yrow[0] += w2 * xrow[1];
            }
            if (W > 1) {
                const int last = W - 1;
                yrow[last] += w0 * xrow[last - 1] + w1 * xrow[last];
            }
        }
    }
    const std::int64_t n = static_cast<std::int64_t>(H) * W;
    if (ep.bias != nullptr)
        for (std::int64_t i = 0; i < n; ++i) yp[i] = yp[i] + *ep.bias;
    if (ep.scale != nullptr)  // an eval BatchNorm's pass
        for (std::int64_t i = 0; i < n; ++i) yp[i] = *ep.scale * yp[i] + *ep.shift;
    nn::apply_epilogue(nn::Epilogue{ep.act, ep.slope}, yp, n);
}

/// `ep` with its per-channel arrays narrowed to channel c's values.
core::Epilogue plane_epilogue(const core::Epilogue& ep, int c) {
    const auto at = [c](const float* a) { return a != nullptr ? a + c : nullptr; };
    return {at(ep.bias), ep.act, ep.slope, at(ep.scale), at(ep.shift)};
}

/// Uniform values in [-2, 2]; with `specials`, about one in eight is NaN,
/// +-Inf or +-0 instead.
std::vector<float> floats(std::size_t n, Rng& rng, bool specials) {
    const float cases[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(), 0.0f, -0.0f};
    std::vector<float> v(n);
    for (float& e : v)
        e = specials && rng.chance(0.125) ? cases[rng.uniform_int(0, 4)]
                                          : static_cast<float>(rng.uniform(-2.0, 2.0));
    return v;
}

/// Runs the kernel over every (image, channel) plane at every level and
/// 1/2/4 threads, into a stale buffer, against reference_plane.
void expect_f32_matches(const std::vector<float>& x, const std::vector<float>& w, int H, int W,
                        const core::Epilogue& ep, const std::string& what) {
    const std::int64_t plane = static_cast<std::int64_t>(H) * W;
    const std::int64_t planes = static_cast<std::int64_t>(kImages) * kChannels;
    std::vector<float> want(static_cast<std::size_t>(planes * plane));
    for (std::int64_t p = 0; p < planes; ++p) {
        const int c = static_cast<int>(p % kChannels);
        reference_plane(x.data() + p * plane, w.data() + c * 9, H, W, plane_epilogue(ep, c),
                        want.data() + p * plane);
    }
    const float stale = -std::numeric_limits<float>::quiet_NaN();
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        for (int threads : {1, 2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            std::vector<float> buf(static_cast<std::size_t>(planes * plane + 2 * kGuard), stale);
            float* y = buf.data() + kGuard;
            core::parallel_for(0, planes, 1, [&](std::int64_t p0, std::int64_t p1) {
                for (std::int64_t p = p0; p < p1; ++p) {
                    const int c = static_cast<int>(p % kChannels);
                    core::dwconv3x3(x.data() + p * plane, w.data() + c * 9, H, W,
                                    plane_epilogue(ep, c), y + p * plane);
                }
            });
            const std::string at = what + " " + std::to_string(H) + "x" + std::to_string(W) +
                                   " @" + core::simd_level_name(lvl) + "/" +
                                   std::to_string(threads) + "t";
            for (std::int64_t i = 0; i < planes * plane; ++i)
                ASSERT_TRUE(same_float(y[i], want[static_cast<std::size_t>(i)]))
                    << at << " idx " << i << ": " << y[i] << " vs " << want[i];
            for (int g = 0; g < kGuard; ++g) {
                ASSERT_EQ(bits(buf[static_cast<std::size_t>(g)]), bits(stale)) << at;
                ASSERT_EQ(bits(buf[buf.size() - 1 - static_cast<std::size_t>(g)]), bits(stale))
                    << at;
            }
        }
    }
}

const nn::EpilogueAct kActs[] = {nn::EpilogueAct::kNone, nn::EpilogueAct::kReLU,
                                 nn::EpilogueAct::kReLU6, nn::EpilogueAct::kLeaky,
                                 nn::EpilogueAct::kSigmoid};

TEST(DwConv, Fp32EqualsTheSequentialLoopPlusEpilogueBitwise) {
    // With and without a folded eval BatchNorm's affine (non-zero shifts).
    SimdGuard guard;
    Rng rng(11);
    std::vector<float> bias = floats(kChannels, rng, false);
    bias[1] = -0.0f;
    const std::vector<float> scale = floats(kChannels, rng, false);
    const std::vector<float> shift = floats(kChannels, rng, false);
    const float* const biases[] = {nullptr, bias.data()};
    for (int H : kHeights)
        for (int W : kWidths) {
            const std::size_t n = static_cast<std::size_t>(kImages) * kChannels * H * W;
            const std::vector<float> x = floats(n, rng, false);
            const std::vector<float> w = floats(9 * kChannels, rng, false);
            for (nn::EpilogueAct act : kActs)
                for (const float* b : biases)
                    for (const bool bn : {false, true})
                        expect_f32_matches(
                            x, w, H, W,
                            core::Epilogue{b, act, 0.1f, bn ? scale.data() : nullptr,
                                           bn ? shift.data() : nullptr},
                            std::string(b != nullptr ? "bias" : "no bias") + (bn ? ", bn" : ""));
        }
}

TEST(DwConv, Fp32KeepsNaNInfAndSignedZeroLikeTheSequentialLoop) {
    SimdGuard guard;
    Rng rng(12);
    std::vector<float> bias = floats(kChannels, rng, true);
    bias[0] = -0.0f;
    const std::vector<float> scale = floats(kChannels, rng, true);
    const std::vector<float> shift = floats(kChannels, rng, true);
    const float* const biases[] = {nullptr, bias.data()};
    for (int H : kHeights)
        for (int W : kWidths) {
            const std::size_t n = static_cast<std::size_t>(kImages) * kChannels * H * W;
            std::vector<float> x = floats(n, rng, true);
            std::vector<float> w = floats(9 * kChannels, rng, true);
            // Channel 2 of image 0: +0 inputs and negative weights, so every
            // product is -0.0 and only the +0 start makes the sum +0.0.
            std::fill(x.begin() + 2 * H * W, x.begin() + 3 * H * W, 0.0f);
            for (int k = 0; k < 9; ++k) w[static_cast<std::size_t>(18 + k)] = -1.0f - k;
            for (nn::EpilogueAct act : kActs)
                for (const float* b : biases)
                    for (const bool bn : {false, true})
                        expect_f32_matches(
                            x, w, H, W,
                            core::Epilogue{b, act, 0.1f, bn ? scale.data() : nullptr,
                                           bn ? shift.data() : nullptr},
                            std::string(b != nullptr ? "specials, bias" : "specials") +
                                (bn ? ", bn" : ""));
        }
}

TEST(DwConv, LayerForwardFusedEqualsTheSequentialLoopPlusEpilogue) {
    // nn::DWConv3 hands the kernel each plane's input, weights and its own
    // bias, with a folded BatchNorm's affine and the fused activation.
    SimdGuard guard;
    Rng rng(13);
    nn::DWConv3 layer(5, rng);
    layer.set_training(false);
    layer.enable_bias();
    Tensor x({3, 5, 7, 19});
    x.rand_uniform(rng, -1.0f, 1.0f);
    const std::vector<float> bias = floats(5, rng, false);
    std::copy(bias.begin(), bias.end(), layer.bias().data());
    const std::vector<float> scale = floats(5, rng, false);
    const std::vector<float> shift = floats(5, rng, false);
    const nn::Epilogue ep{nn::EpilogueAct::kReLU6, 0.0f, false, scale.data(), shift.data()};
    Tensor want(x.shape());
    for (int n = 0; n < 3; ++n)
        for (int c = 0; c < 5; ++c)
            reference_plane(x.plane(n, c), layer.weight().plane(c, 0), 7, 19,
                            core::Epilogue{bias.data() + c, ep.act, ep.slope, scale.data() + c,
                                           shift.data() + c},
                            want.plane(n, c));
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        for (int threads : {1, 2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            Tensor y({4, 5, 9, 21}, std::numeric_limits<float>::quiet_NaN());
            layer.forward_fused(x, ep, y);
            ASSERT_EQ(y.shape(), x.shape());
            for (std::int64_t i = 0; i < y.size(); ++i)
                ASSERT_EQ(bits(y[i]), bits(want[i]))
                    << core::simd_level_name(lvl) << "/" << threads << "t idx " << i;
        }
    }
}

// ----------------------------------------------------------------- int32 --

/// QEngine's int64 reference loop for one plane, over either word; `rq.bias`
/// points at this plane's bias or is null.
template <class Word>
void reference_plane(const Word* xp, const std::int32_t* w, int H, int W,
                     const core::QEpilogue& rq, Word* yp) {
    for (int oh = 0; oh < H; ++oh)
        for (int ow = 0; ow < W; ++ow) {
            std::int64_t acc = rq.bias != nullptr ? *rq.bias : 0;
            for (int kh = 0; kh < 3; ++kh)
                for (int kw = 0; kw < 3; ++kw) {
                    const int ih = oh - 1 + kh;
                    const int iw = ow - 1 + kw;
                    if (ih < 0 || ih >= H || iw < 0 || iw >= W) continue;
                    acc += static_cast<std::int64_t>(w[kh * 3 + kw]) *
                           xp[static_cast<std::int64_t>(ih) * W + iw];
                }
            yp[static_cast<std::int64_t>(oh) * W + ow] = static_cast<Word>(
                std::clamp<std::int64_t>(core::round_shift(acc, rq.shift), rq.lo, rq.hi));
        }
}

/// One requantization per channel: channel c adds bias[c], or no bias when
/// `bias` is empty.
std::vector<core::QEpilogue> per_channel(const std::vector<std::int64_t>& bias, int shift,
                                         std::int32_t lo, std::int32_t hi) {
    std::vector<core::QEpilogue> rq;
    for (std::size_t c = 0; c < kChannels; ++c)
        rq.push_back({bias.empty() ? nullptr : &bias[c], shift, lo, hi});
    return rq;
}

template <class Word>
void expect_int_matches(const std::vector<Word>& x, const std::vector<std::int32_t>& w, int H,
                        int W, const std::vector<core::QEpilogue>& rq, const std::string& what) {
    const std::int64_t plane = static_cast<std::int64_t>(H) * W;
    const std::int64_t planes = static_cast<std::int64_t>(kImages) * kChannels;
    std::vector<Word> want(static_cast<std::size_t>(planes * plane));
    for (std::int64_t p = 0; p < planes; ++p) {
        const auto c = static_cast<std::size_t>(p % kChannels);
        reference_plane(x.data() + p * plane, w.data() + c * 9, H, W, rq[c],
                        want.data() + p * plane);
    }
    const auto stale = static_cast<Word>(0x5A5A5A5A);
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        for (int threads : {1, 2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            std::vector<Word> buf(static_cast<std::size_t>(planes * plane + 2 * kGuard), stale);
            Word* y = buf.data() + kGuard;
            core::parallel_for(0, planes, 1, [&](std::int64_t p0, std::int64_t p1) {
                for (std::int64_t p = p0; p < p1; ++p) {
                    const auto c = static_cast<std::size_t>(p % kChannels);
                    core::dwconv3x3(x.data() + p * plane, w.data() + c * 9, H, W, rq[c],
                                    y + p * plane);
                }
            });
            const std::string at = what + " " + std::to_string(H) + "x" + std::to_string(W) +
                                   " shift " + std::to_string(rq[0].shift) + " @" +
                                   core::simd_level_name(lvl) + "/" + std::to_string(threads) +
                                   "t";
            for (std::int64_t i = 0; i < planes * plane; ++i)
                ASSERT_EQ(y[i], want[static_cast<std::size_t>(i)]) << at << " idx " << i;
            for (int g = 0; g < kGuard; ++g) {
                ASSERT_EQ(buf[static_cast<std::size_t>(g)], stale) << at;
                ASSERT_EQ(buf[buf.size() - 1 - static_cast<std::size_t>(g)], stale) << at;
            }
        }
    }
}

std::vector<std::int32_t> ints(std::size_t n, Rng& rng, int lo, int hi) {
    std::vector<std::int32_t> v(n);
    for (std::int32_t& e : v) e = rng.uniform_int(lo, hi);
    return v;
}

/// Per-channel biases at accumulator scale: none, zero, and `grid` FM steps
/// times (c + 1) plus an odd remainder, so the rounding sees the bias.
std::vector<std::vector<std::int64_t>> bias_cases(int shift, std::int64_t grid) {
    std::vector<std::vector<std::int64_t>> cases{{}, std::vector<std::int64_t>(kChannels, 0)};
    for (const std::int64_t sign : {-1, 1}) {
        std::vector<std::int64_t> b;
        for (int c = 0; c < kChannels; ++c)
            b.push_back(sign * ((grid * (c + 1) << shift) + 2 * c + 1));
        cases.push_back(b);
    }
    return cases;
}

TEST(DwConv, Int32EqualsTheInt64LoopAcrossShiftsClampsAndFoldedBiases) {
    // A 9-bit FM grid with 5 fraction bits (six = 6.0 on the grid) and
    // 11-bit weights, as QEngine plans SkyNet at its default scheme.
    SimdGuard guard;
    constexpr std::int32_t kGridLo = -256, kGridHi = 255, kSix = 192;
    struct Clamp {
        std::int32_t lo, hi;
    };
    const Clamp clamps[] = {{kGridLo, kGridHi}, {0, kSix}};
    Rng rng(21);
    for (int shift : {1, 6, 11})
        for (int H : kHeights)
            for (int W : kWidths) {
                const std::size_t n = static_cast<std::size_t>(kImages) * kChannels * H * W;
                const std::vector<std::int32_t> x = ints(n, rng, kGridLo, kGridHi);
                const std::vector<std::int32_t> w = ints(9 * kChannels, rng, -1024, 1023);
                for (const Clamp& cl : clamps)
                    for (const std::vector<std::int64_t>& b : bias_cases(shift, 37))
                        expect_int_matches(x, w, H, W, per_channel(b, shift, cl.lo, cl.hi),
                                           b.empty() ? "no bias" : "bias " +
                                                                       std::to_string(b[0]));
            }
}

TEST(DwConv, Int32IsExactAtTheEdgeOfItsProof) {
    // The widest operands the int32 proof admits,
    // 9 * max|w| * max|x| + max|b| + 2^(shift-1) <= 2^31 - 1: every tap at
    // +-max makes a plane's interior accumulators reach +-9 * max|w| * max|x|,
    // and the bias pushes them further out.
    SimdGuard guard;
    Rng rng(22);
    for (int shift : {1, 6, 11})
        for (std::int64_t wmax : {1, 28, 1023})
            for (std::int64_t bmax : {0, 1 << 20}) {
                const std::int64_t room = std::numeric_limits<std::int32_t>::max() -
                                          (std::int64_t{1} << (shift - 1)) - bmax;
                const auto xmax = static_cast<std::int32_t>(room / (9 * wmax));
                ASSERT_LE(9 * wmax * xmax + bmax + (std::int64_t{1} << (shift - 1)),
                          std::numeric_limits<std::int32_t>::max());
                const auto wm = static_cast<std::int32_t>(wmax);
                const std::int32_t big = std::numeric_limits<std::int32_t>::max() / 2;
                // Channel 0 adds +max|b| to its largest sums, channel 1 -max|b|
                // to its most negative, channel 2 either.
                const std::vector<std::int64_t> bias{bmax, -bmax, rng.chance(0.5) ? bmax : -bmax};
                const std::vector<core::QEpilogue> rq = per_channel(bias, shift, -big, big);
                for (int H : {3, 5})
                    for (int W : {3, 10, 17, 40}) {
                        const std::size_t plane = static_cast<std::size_t>(H) * W;
                        // Channel 0: all +max taps; channel 1: inputs at -max;
                        // channel 2: random signs at full magnitude.
                        std::vector<std::int32_t> x(static_cast<std::size_t>(kImages) *
                                                    kChannels * plane);
                        std::vector<std::int32_t> w(9 * kChannels);
                        for (std::size_t i = 0; i < x.size(); ++i) {
                            const std::size_t c = (i / plane) % kChannels;
                            x[i] = c == 0   ? xmax
                                   : c == 1 ? -xmax
                                            : (rng.chance(0.5) ? xmax : -xmax);
                        }
                        for (std::size_t k = 0; k < w.size(); ++k)
                            w[k] = k < 18 ? wm : (rng.chance(0.5) ? wm : -wm);
                        expect_int_matches(x, w, H, W, rq,
                                           "proof edge, max|w| " + std::to_string(wmax) +
                                               ", max|b| " + std::to_string(bmax));
                    }
            }
}

TEST(DwConv, Int16WordsEqualTheInt64LoopAtBothEndsOfTheWord) {
    // A 16-bit FM grid with 11 fraction bits (six = 6.0 on the grid), which
    // QEngine stores as int16 words: inputs include -32768 and 32767, and
    // the clamps reach both ends of the word.  max|w| = 1024 and biases up
    // to 3 * 9000 FM steps keep the int32 proof,
    // 9 * 1024 * 32768 + 27000 * 2^11 + 2^10 < 2^31.
    SimdGuard guard;
    constexpr std::int32_t kWordLo = -32768, kWordHi = 32767, kSix = 6 << 11;
    struct Clamp {
        std::int32_t lo, hi;
    };
    const Clamp clamps[] = {{kWordLo, kWordHi}, {0, kSix}};
    Rng rng(23);
    std::int64_t word_lo = 0, word_hi = 0;
    for (int shift : {1, 6, 11})
        for (int H : kHeights)
            for (int W : kWidths) {
                const std::size_t n = static_cast<std::size_t>(kImages) * kChannels * H * W;
                std::vector<std::int16_t> x(n);
                for (std::size_t i = 0; i < n; ++i)
                    x[i] = static_cast<std::int16_t>(
                        i % 5 == 0 ? kWordLo
                                   : i % 5 == 1 ? kWordHi : rng.uniform_int(kWordLo, kWordHi));
                const std::vector<std::int32_t> w = ints(9 * kChannels, rng, -1024, 1024);
                for (const Clamp& cl : clamps)
                    for (const std::vector<std::int64_t>& b : bias_cases(shift, 9000)) {
                        const std::vector<core::QEpilogue> rq = per_channel(b, shift, cl.lo, cl.hi);
                        expect_int_matches(x, w, H, W, rq,
                                           b.empty() ? "no bias" : "bias " + std::to_string(b[0]));
                        std::vector<std::int16_t> y(n);
                        const std::int64_t plane = static_cast<std::int64_t>(H) * W;
                        for (std::int64_t p = 0; p < kImages * kChannels; ++p)
                            reference_plane(x.data() + p * plane,
                                            w.data() + (p % kChannels) * 9, H, W,
                                            rq[static_cast<std::size_t>(p % kChannels)],
                                            y.data() + p * plane);
                        for (const std::int16_t v : y) {
                            word_lo += v == kWordLo;
                            word_hi += v == kWordHi;
                        }
                    }
            }
    EXPECT_GT(word_lo, 0);
    EXPECT_GT(word_hi, 0);
}

}  // namespace
}  // namespace sky
