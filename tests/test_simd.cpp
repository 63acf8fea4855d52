// SIMD GEMM engine tests: dispatch-level parity against a double-precision
// reference across odd shapes (including the K=0 / N=1 / M<4 edges), packing
// identities, bitwise thread-count invariance at every level, and the
// prepacked-weight protocol of the nn layers (bitwise equality with the
// unpacked path, invalidation on mutable weight() access, repack on kernel
// geometry change).  PackB: pack_b, which fills its panels on the kernel
// pool, against a sequential pack byte for byte, and the PWConv1 / Linear
// eval forwards that pack through it at 1, 2 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/gemm.hpp"
#include "core/simd.hpp"
#include "core/thread_pool.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/pwconv.hpp"
#include "simd_levels.hpp"
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

std::vector<float> randv(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    return v;
}

/// C += A * B in double precision — the semantics every level must match.
void ref_nn(int M, int N, int K, const std::vector<float>& A,
            const std::vector<float>& B, std::vector<float>& C) {
    for (int i = 0; i < M; ++i)
        for (int j = 0; j < N; ++j) {
            double acc = C[static_cast<std::size_t>(i) * N + j];
            for (int k = 0; k < K; ++k)
                acc += static_cast<double>(A[static_cast<std::size_t>(i) * K + k]) *
                       B[static_cast<std::size_t>(k) * N + j];
            C[static_cast<std::size_t>(i) * N + j] = static_cast<float>(acc);
        }
}

/// C += A * B through the packed interface, A and B row-major.
void packed_nn(int M, int N, int K, const float* A, const float* B, float* C) {
    core::PackedA pa;
    core::PackedB pb;
    core::pack_a(M, K, A, /*trans=*/false, pa);
    core::pack_b(K, N, B, /*trans=*/false, pb);
    core::sgemm_packed(pa, pb, C);
}

std::vector<float> transpose(const std::vector<float>& m, int rows, int cols) {
    std::vector<float> t(m.size());
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            t[static_cast<std::size_t>(c) * rows + r] =
                m[static_cast<std::size_t>(r) * cols + c];
    return t;
}

Tensor randn_tensor(Shape s, std::uint64_t seed) {
    Rng rng(seed);
    Tensor t(s);
    t.randn(rng, 0.0f, 1.0f);
    return t;
}

// ------------------------------------------------------------------ dispatch

TEST(Simd, DispatchLevelsReportConsistentGeometry) {
    SimdGuard guard;
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        ASSERT_EQ(core::set_simd_level(lvl), lvl);
        EXPECT_EQ(core::active_simd_level(), lvl);
        EXPECT_GE(core::gemm_mr(), 1);
        EXPECT_GE(core::gemm_nr(), 1);
        EXPECT_STREQ(core::gemm_kernel_name(), core::simd_level_name(lvl));
    }
    // A request for the top level clamps to the best available one instead
    // of failing.
    const core::SimdLevel eff = core::set_simd_level(core::SimdLevel::kAvx512);
    EXPECT_EQ(eff, core::best_simd_level());
}

// ------------------------------------------------- parity vs double reference

TEST(Simd, GemmMatchesReferenceAllLevelsAndShapes) {
    SimdGuard guard;
    struct Case {
        int M, N, K;
    };
    // Odd shapes around every tile geometry in the build (4x4, 6x8, 6x16,
    // 14x32: M = 13/14/15 and 29, N = 31/32/33 and 64), plus the degenerate
    // edges: K=0 (no-op accumulate), N=1 (single GEMV column), M<4 and
    // M % 4 != 0 (partial row panels at chunk boundaries — the old sgemm_tn
    // block structure went wrong exactly here).
    const Case cases[] = {{1, 1, 1},    {3, 1, 4},    {5, 7, 0},    {4, 1, 3},
                          {2, 3, 9},    {5, 9, 13},   {6, 16, 8},   {7, 17, 31},
                          {13, 29, 17}, {23, 31, 11}, {48, 40, 27}, {13, 31, 7},
                          {14, 32, 16}, {15, 33, 29}, {29, 64, 9}};
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        int seed = 100;
        for (const Case& tc : cases) {
            const auto A = randv(static_cast<std::size_t>(tc.M) * tc.K,
                                 static_cast<std::uint64_t>(seed++));
            const auto B = randv(static_cast<std::size_t>(tc.K) * tc.N,
                                 static_cast<std::uint64_t>(seed++));
            const auto At = transpose(A, tc.M, tc.K);  // K x M storage for tn
            const auto Bt = transpose(B, tc.K, tc.N);  // N x K storage for nt
            std::vector<float> ref(static_cast<std::size_t>(tc.M) * tc.N, 0.25f);
            ref_nn(tc.M, tc.N, tc.K, A, B, ref);
            for (int threads : {1, 2, 4}) {
                core::ThreadPool::set_global_threads(threads);
                std::vector<float> cn(ref.size(), 0.25f), ct(ref.size(), 0.25f),
                    cx(ref.size(), 0.25f);
                packed_nn(tc.M, tc.N, tc.K, A.data(), B.data(), cn.data());
                core::sgemm_tn(tc.M, tc.N, tc.K, At.data(), B.data(), ct.data());
                core::sgemm_nt(tc.M, tc.N, tc.K, A.data(), Bt.data(), cx.data());
                for (std::size_t i = 0; i < ref.size(); ++i) {
                    ASSERT_NEAR(cn[i], ref[i], 1e-4f)
                        << core::simd_level_name(lvl) << " nn " << tc.M << "x" << tc.N
                        << "x" << tc.K << " @" << threads << "t idx " << i;
                    ASSERT_NEAR(ct[i], ref[i], 1e-4f)
                        << core::simd_level_name(lvl) << " tn " << tc.M << "x" << tc.N
                        << "x" << tc.K << " @" << threads << "t idx " << i;
                    ASSERT_NEAR(cx[i], ref[i], 1e-4f)
                        << core::simd_level_name(lvl) << " nt " << tc.M << "x" << tc.N
                        << "x" << tc.K << " @" << threads << "t idx " << i;
                }
            }
        }
    }
}

TEST(Simd, VectorLevelsMatchScalarWithinTolerance) {
    // The determinism contract (docs/KERNELS.md): levels share the k-summation
    // order, so scalar-vs-vector differences come only from FMA contraction.
    SimdGuard guard;
    core::ThreadPool::set_global_threads(2);
    const int M = 19, N = 23, K = 37;
    const auto A = randv(static_cast<std::size_t>(M) * K, 7);
    const auto B = randv(static_cast<std::size_t>(K) * N, 8);
    core::set_simd_level(core::SimdLevel::kScalar);
    std::vector<float> ref(static_cast<std::size_t>(M) * N, 0.0f);
    packed_nn(M, N, K, A.data(), B.data(), ref.data());
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        if (lvl == core::SimdLevel::kScalar) continue;
        core::set_simd_level(lvl);
        std::vector<float> c(ref.size(), 0.0f);
        packed_nn(M, N, K, A.data(), B.data(), c.data());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_NEAR(c[i], ref[i], 1e-4f)
                << core::simd_level_name(lvl) << " idx " << i;
    }
}

// ------------------------------------------------------- store-mode GEMM

std::uint32_t bits(float v) {
    std::uint32_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

/// The unfused reference of a store-mode GEMM: C filled with the bias (or
/// zeros), the accumulating sgemm_packed, then an eval nn::BatchNorm2d's and
/// nn::Activation's own passes (each when given).
std::vector<float> prefill_accumulate_activate(const core::PackedA& pa,
                                               const core::PackedB& pb,
                                               const std::vector<float>* bias,
                                               nn::Activation* act,
                                               nn::BatchNorm2d* bn = nullptr) {
    const int M = pa.M, N = pb.N;
    std::vector<float> c(static_cast<std::size_t>(M) * N, 0.0f);
    if (bias != nullptr)
        for (int m = 0; m < M; ++m)
            std::fill_n(c.begin() + static_cast<std::ptrdiff_t>(m) * N, N, (*bias)[m]);
    core::sgemm_packed(pa, pb, c.data());
    Tensor t({1, M, 1, N}, c);
    if (bn != nullptr) t = bn->forward(t);
    if (act != nullptr) t = act->forward(t);
    return {t.data(), t.data() + t.size()};
}

/// An eval BatchNorm2d over `channels` with random statistics: its affine
/// has non-zero shifts, so an FMA-contracted store would round differently.
nn::BatchNorm2d random_eval_bn(int channels, std::uint64_t seed) {
    Rng rng(seed);
    nn::BatchNorm2d bn(channels);
    bn.gamma().rand_uniform(rng, -2.0f, 2.0f);
    bn.beta().rand_uniform(rng, -1.0f, 1.0f);
    std::vector<Tensor*> stats;
    bn.collect_state(stats);
    stats[0]->rand_uniform(rng, -1.0f, 1.0f);
    stats[1]->rand_uniform(rng, 0.25f, 4.0f);
    bn.set_training(false);
    return bn;
}

TEST(Simd, StoreModeGemmEqualsPrefillAccumulateAndActivation) {
    // With and without a folded eval BatchNorm's affine, whose random
    // statistics give non-zero shifts.
    SimdGuard guard;
    struct Case {
        int M, N, K;
    };
    // Partial tiles at every geometry (M % mr and N % nr != 0), N = 1,
    // M < mr, full tiles, and K = 0 (store mode must still write act(bias)).
    const Case cases[] = {{1, 1, 1}, {3, 1, 4},   {5, 7, 0},   {2, 3, 9},  {6, 16, 8},
                          {12, 32, 5}, {7, 17, 31}, {13, 29, 17}, {4, 4, 3}, {1, 40, 0}};
    const nn::Act acts[] = {nn::Act::kReLU, nn::Act::kReLU6, nn::Act::kLeaky,
                            nn::Act::kSigmoid};
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        int seed = 700;
        for (const Case& tc : cases) {
            // Scaled so outputs cross both ReLU6 clamps.
            auto A = randv(static_cast<std::size_t>(tc.M) * tc.K,
                           static_cast<std::uint64_t>(seed++));
            for (float& v : A) v *= 3.0f;
            const auto B = randv(static_cast<std::size_t>(tc.K) * tc.N,
                                 static_cast<std::uint64_t>(seed++));
            auto bias = randv(static_cast<std::size_t>(tc.M), static_cast<std::uint64_t>(seed++));
            bias[0] = -0.0f;  // act(-0.0) at K = 0 must stay -0.0 where act keeps it
            core::PackedA pa;
            core::PackedB pb;
            core::pack_a(tc.M, tc.K, A.data(), false, pa);
            core::pack_b(tc.K, tc.N, B.data(), false, pb);
            nn::BatchNorm2d bn = random_eval_bn(tc.M, static_cast<std::uint64_t>(seed++));
            const nn::Epilogue affine = *bn.as_epilogue();
            for (int a = -1; a < 4; ++a) {
                nn::Activation act(a < 0 ? nn::Act::kReLU : acts[a], 0.13f);
                act.set_training(false);
                nn::Activation* pass = a < 0 ? nullptr : &act;
                core::Epilogue ep;
                if (pass != nullptr) {
                    ep.act = act.as_epilogue()->act;
                    ep.slope = act.as_epilogue()->slope;
                }
                for (const bool with_bn : {false, true})
                for (const bool with_bias : {false, true}) {
                    ep.bias = with_bias ? bias.data() : nullptr;
                    ep.scale = with_bn ? affine.scale : nullptr;
                    ep.shift = with_bn ? affine.shift : nullptr;
                    core::ThreadPool::set_global_threads(1);
                    const std::vector<float> want = prefill_accumulate_activate(
                        pa, pb, with_bias ? &bias : nullptr, pass, with_bn ? &bn : nullptr);
                    for (int threads : {1, 2, 4}) {
                        core::ThreadPool::set_global_threads(threads);
                        // NaN-filled: store mode must never read C.
                        std::vector<float> got(want.size(),
                                               std::numeric_limits<float>::quiet_NaN());
                        core::sgemm_packed(pa, pb, got.data(), ep);
                        for (std::size_t i = 0; i < want.size(); ++i)
                            ASSERT_EQ(bits(got[i]), bits(want[i]))
                                << core::simd_level_name(lvl) << " " << tc.M << "x"
                                << tc.N << "x" << tc.K << " act " << a << " bias "
                                << with_bias << " bn " << with_bn << " @" << threads
                                << "t idx " << i;
                    }
                }
            }
        }
    }
}

TEST(Simd, StoreModeNegativeZeroProductsGivePositiveZero) {
    // Every product is -0.0: the zero-filled C + acc gave +0.0, and LeakyReLU
    // would keep a -0.0 negative, so the store must add the +0.0 too.
    SimdGuard guard;
    const int M = 7, N = 19, K = 3;
    std::vector<float> A(static_cast<std::size_t>(M) * K, -1.5f);
    std::vector<float> B(static_cast<std::size_t>(K) * N, 0.0f);
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        core::PackedA pa;
        core::PackedB pb;
        core::pack_a(M, K, A.data(), false, pa);
        core::pack_b(K, N, B.data(), false, pb);
        for (const core::EpilogueAct act : {core::EpilogueAct::kNone, core::EpilogueAct::kLeaky}) {
            std::vector<float> c(static_cast<std::size_t>(M) * N, -7.0f);
            core::sgemm_packed(pa, pb, c.data(), core::Epilogue{nullptr, act, 0.1f});
            for (std::size_t i = 0; i < c.size(); ++i)
                ASSERT_EQ(bits(c[i]), bits(0.0f)) << core::simd_level_name(lvl) << " idx " << i;
        }
    }
}

// ------------------------------------------------------------------- packing

TEST(Simd, PackedInterfaceBitwiseEqualsWrapper) {
    SimdGuard guard;
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        core::ThreadPool::set_global_threads(2);
        const int M = 11, N = 21, K = 9;
        const auto A = randv(static_cast<std::size_t>(M) * K, 21);
        const auto B = randv(static_cast<std::size_t>(K) * N, 22);
        // The transposed-storage wrappers pack to the same panels as A and B.
        std::vector<float> c_tn(static_cast<std::size_t>(M) * N, 1.0f), c_nt(c_tn);
        core::sgemm_tn(M, N, K, transpose(A, M, K).data(), B.data(), c_tn.data());
        core::sgemm_nt(M, N, K, A.data(), transpose(B, K, N).data(), c_nt.data());
        core::PackedA pa;
        core::PackedB pb;
        core::pack_a(M, K, A.data(), false, pa);
        core::pack_b(K, N, B.data(), false, pb);
        std::vector<float> c2(c_tn.size(), 1.0f);
        core::sgemm_packed(pa, pb, c2.data());
        for (std::size_t i = 0; i < c2.size(); ++i) {
            ASSERT_EQ(c_tn[i], c2[i]) << core::simd_level_name(lvl) << " tn idx " << i;
            ASSERT_EQ(c_nt[i], c2[i]) << core::simd_level_name(lvl) << " nt idx " << i;
        }
    }
}

TEST(Simd, Im2colPackedEqualsIm2colThenPackB) {
    SimdGuard guard;
    struct Case {
        int C, H, W, k, stride, pad;
    };
    const Case cases[] = {
        {3, 7, 6, 3, 1, 1}, {2, 8, 9, 3, 2, 1}, {4, 5, 5, 1, 1, 0}, {1, 9, 7, 5, 2, 2}};
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        int seed = 300;
        for (const Case& tc : cases) {
            const int OH = (tc.H + 2 * tc.pad - tc.k) / tc.stride + 1;
            const int OW = (tc.W + 2 * tc.pad - tc.k) / tc.stride + 1;
            const auto img = randv(static_cast<std::size_t>(tc.C) * tc.H * tc.W,
                                   static_cast<std::uint64_t>(seed++));
            const std::size_t rows =
                static_cast<std::size_t>(tc.C) * tc.k * tc.k;
            std::vector<float> col(rows * static_cast<std::size_t>(OH) * OW);
            core::im2col(img.data(), tc.C, tc.H, tc.W, tc.k, tc.stride, tc.pad, OH, OW,
                         col.data());
            core::PackedB expect;
            core::pack_b(static_cast<int>(rows), OH * OW, col.data(), false, expect);
            core::PackedB got;
            core::im2col_packed(img.data(), tc.C, tc.H, tc.W, tc.k, tc.stride, tc.pad,
                                OH, OW, got);
            ASSERT_EQ(got.K, expect.K);
            ASSERT_EQ(got.N, expect.N);
            ASSERT_EQ(got.nr, expect.nr);
            ASSERT_EQ(got.data.size(), expect.data.size());
            for (std::size_t i = 0; i < expect.data.size(); ++i)
                ASSERT_EQ(got.data[i], expect.data[i])
                    << core::simd_level_name(lvl) << " k=" << tc.k << " s=" << tc.stride
                    << " idx " << i;
        }
    }
}

TEST(Simd, PackedOperandsFromStaleKernelThrow) {
    // scalar (4x4) and generic (6x8) tiles always differ, so a pack made at
    // one level must be rejected — not silently misread — at the other.
    SimdGuard guard;
    const int M = 8, N = 8, K = 4;
    const auto A = randv(static_cast<std::size_t>(M) * K, 31);
    const auto B = randv(static_cast<std::size_t>(K) * N, 32);
    core::set_simd_level(core::SimdLevel::kScalar);
    core::PackedA pa;
    core::PackedB pb;
    core::pack_a(M, K, A.data(), false, pa);
    core::pack_b(K, N, B.data(), false, pb);
    core::set_simd_level(core::SimdLevel::kGeneric);
    std::vector<float> c(static_cast<std::size_t>(M) * N, 0.0f);
    EXPECT_THROW(core::sgemm_packed(pa, pb, c.data()), std::logic_error);
}

// ------------------------------------------------- thread-count invariance

TEST(Simd, GemmBitwiseThreadInvariantAtEveryLevel) {
    SimdGuard guard;
    const int M = 33, N = 47, K = 25;
    const auto A = randv(static_cast<std::size_t>(M) * K, 41);
    const auto B = randv(static_cast<std::size_t>(K) * N, 42);
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        core::ThreadPool::set_global_threads(1);
        std::vector<float> ref(static_cast<std::size_t>(M) * N, 0.0f);
        packed_nn(M, N, K, A.data(), B.data(), ref.data());
        for (int threads : {2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            std::vector<float> c(ref.size(), 0.0f);
            packed_nn(M, N, K, A.data(), B.data(), c.data());
            for (std::size_t i = 0; i < ref.size(); ++i)
                ASSERT_EQ(c[i], ref[i])
                    << core::simd_level_name(lvl) << " @" << threads << "t idx " << i;
        }
    }
}

TEST(Simd, ConvForwardBitwiseThreadInvariantAtEveryLevel) {
    SimdGuard guard;
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        Rng rng(51);
        nn::Conv2d conv(3, 10, 3, 1, 1, true, rng);
        conv.set_training(false);
        Tensor x = randn_tensor({2, 3, 11, 13}, 52);
        core::ThreadPool::set_global_threads(1);
        const Tensor ref = conv.forward(x);
        for (int threads : {2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            const Tensor y = conv.forward(x);
            ASSERT_EQ(y.shape(), ref.shape());
            for (std::int64_t i = 0; i < y.size(); ++i)
                ASSERT_EQ(y[i], ref[i])
                    << core::simd_level_name(lvl) << " @" << threads << "t idx " << i;
        }
    }
}

// --------------------------------------------------- prepacked-weight layers

TEST(Simd, PrepackedConvBitwiseEqualsPerCallPacking) {
    SimdGuard guard;
    core::ThreadPool::set_global_threads(2);
    Rng rng(61);
    nn::Conv2d conv(4, 7, 3, 2, 1, true, rng);
    Tensor x = randn_tensor({2, 4, 10, 9}, 62);
    conv.set_training(false);  // refreshes the prepacked panels
    const Tensor packed = conv.forward(x);
    (void)conv.weight();  // mutable access drops the pack -> per-call path
    const Tensor fallback = conv.forward(x);
    ASSERT_EQ(packed.shape(), fallback.shape());
    for (std::int64_t i = 0; i < packed.size(); ++i)
        ASSERT_EQ(packed[i], fallback[i]) << "idx " << i;
}

TEST(Simd, MutableWeightAccessKeepsForwardFresh) {
    // Doubling the weights through weight() must double the (bias-free)
    // output even though the panels were prepacked before the mutation.
    SimdGuard guard;
    core::ThreadPool::set_global_threads(1);
    Rng rng(63);
    nn::Conv2d conv(2, 3, 3, 1, 1, false, rng);
    conv.set_training(false);
    Tensor x = randn_tensor({1, 2, 6, 6}, 64);
    const Tensor y1 = conv.forward(x);
    Tensor& w = conv.weight();
    for (std::int64_t i = 0; i < w.size(); ++i) w[i] *= 2.0f;
    conv.set_training(false);  // re-pack the mutated weights while staying in eval
    const Tensor y2 = conv.forward(x);
    for (std::int64_t i = 0; i < y1.size(); ++i)
        ASSERT_NEAR(y2[i], 2.0f * y1[i], 2e-4f) << "idx " << i;
}

TEST(Simd, PrepackedPWConvAndLinearMatchTrainingPath) {
    SimdGuard guard;
    core::ThreadPool::set_global_threads(2);
    Rng rng(71);
    nn::PWConv1 pw(8, 6, true, rng, 2);
    Tensor x = randn_tensor({2, 8, 5, 7}, 72);
    pw.set_training(true);
    const Tensor train_y = pw.forward(x);
    pw.set_training(false);
    const Tensor eval_y = pw.forward(x);
    ASSERT_EQ(train_y.shape(), eval_y.shape());
    for (std::int64_t i = 0; i < train_y.size(); ++i)
        ASSERT_NEAR(eval_y[i], train_y[i], 1e-4f) << "pwconv idx " << i;

    nn::Linear fc(24, 9, rng);
    Tensor fx = randn_tensor({3, 24, 1, 1}, 73);
    fc.set_training(true);
    const Tensor train_f = fc.forward(fx);  // double-precision reference path
    fc.set_training(false);
    const Tensor eval_f = fc.forward(fx);  // packed GEMM path
    ASSERT_EQ(train_f.shape(), eval_f.shape());
    for (std::int64_t i = 0; i < train_f.size(); ++i)
        ASSERT_NEAR(eval_f[i], train_f[i], 1e-4f) << "linear idx " << i;
}

TEST(Simd, PrepackSurvivesLevelSwitchViaFallback) {
    // Packs made for one kernel geometry must not poison forwards after a
    // level switch: the layer detects the mismatch and falls back to
    // per-call packing at the new level.
    SimdGuard guard;
    core::ThreadPool::set_global_threads(1);
    core::set_simd_level(core::SimdLevel::kGeneric);
    Rng rng(81);
    nn::Conv2d conv(3, 5, 3, 1, 1, true, rng);
    conv.set_training(false);  // packs at generic geometry (6x8)
    Tensor x = randn_tensor({1, 3, 8, 8}, 82);
    const Tensor y_generic = conv.forward(x);
    core::set_simd_level(core::SimdLevel::kScalar);  // geometry now 4x4
    const Tensor y_scalar = conv.forward(x);         // must not throw
    ASSERT_EQ(y_generic.shape(), y_scalar.shape());
    for (std::int64_t i = 0; i < y_scalar.size(); ++i)
        ASSERT_NEAR(y_scalar[i], y_generic[i], 1e-4f) << "idx " << i;
}

// ------------------------------------------------------------------ pack_b

/// The sequential pack: panel q holds columns [q*nr, q*nr + nr) of op(B)
/// k-major, zero past N.
std::vector<float> sequential_pack_b(int K, int N, const std::vector<float>& B, bool trans,
                                     int nr) {
    const int np = (N + nr - 1) / nr;
    std::vector<float> out(static_cast<std::size_t>(np) * nr * K, 0.0f);
    for (int q = 0; q < np; ++q)
        for (int k = 0; k < K; ++k)
            for (int j = 0; j < nr && q * nr + j < N; ++j) {
                const std::size_t n = static_cast<std::size_t>(q) * nr + j;
                out[(static_cast<std::size_t>(q) * K + k) * nr + j] =
                    trans ? B[n * K + k] : B[static_cast<std::size_t>(k) * N + n];
            }
    return out;
}

TEST(PackB, EqualsASequentialPackByteForByteAtEveryLevel) {
    SimdGuard guard;
    // K x N: single panels, N past a multiple of every level's nr, and packs
    // large enough to split into pool chunks (a chunk moves >= 4096 floats).
    const int shapes[][2] = {{1, 1}, {3, 5}, {7, 17}, {16, 33}, {5, 1000}, {64, 1021},
                             {300, 37}, {1280, 45}};
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        const int nr = core::gemm_nr();
        for (int threads : {1, 2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            for (const auto& kn : shapes)
                for (bool trans : {false, true}) {
                    const int K = kn[0], N = kn[1];
                    const std::vector<float> B =
                        randv(static_cast<std::size_t>(K) * N, 101 + static_cast<unsigned>(K));
                    const std::vector<float> want = sequential_pack_b(K, N, B, trans, nr);
                    // A larger pack fills the panels last, then every value
                    // turns NaN, so any lane pack_b leaves unwritten shows.
                    const std::vector<float> big =
                        randv(static_cast<std::size_t>(K + 3) * (N + 2 * nr + 1), 102);
                    core::PackedB pb;
                    core::pack_b(K + 3, N + 2 * nr + 1, big.data(), trans, pb);
                    ASSERT_GT(pb.data.size(), want.size());
                    std::fill(pb.data.begin(), pb.data.end(), nan);
                    core::pack_b(K, N, B.data(), trans, pb);
                    const std::string at = std::string(core::simd_level_name(lvl)) + "/" +
                                           std::to_string(threads) + "t K " +
                                           std::to_string(K) + " N " + std::to_string(N) +
                                           (trans ? " trans" : "");
                    EXPECT_EQ(pb.K, K) << at;
                    EXPECT_EQ(pb.N, N) << at;
                    EXPECT_EQ(pb.nr, nr) << at;
                    ASSERT_EQ(pb.data.size(), want.size()) << at;
                    EXPECT_EQ(std::memcmp(pb.data.data(), want.data(), want.size() * sizeof(float)),
                              0)
                        << at;
                }
        }
    }
}

TEST(PackB, ColumnWindowsAndStridedStoresEqualTheirDenseCopies) {
    // A band of a pointwise conv: N columns at offset c0 of K rows `ld`
    // floats apart, packed in place and stored into the same columns of M
    // output rows, must equal the dense pack and store of a copy, and the
    // store must leave every other column of the output untouched.
    SimdGuard guard;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const int M = 13, K = 7, ld = 301;
    const std::vector<float> A = randv(static_cast<std::size_t>(M) * K, 111);
    const std::vector<float> B = randv(static_cast<std::size_t>(K) * ld, 112);
    const std::vector<float> bias = randv(M, 113);
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        core::PackedA pa;
        core::pack_a(M, K, A.data(), /*trans=*/false, pa);
        for (const auto& [c0, N] : {std::pair{0, 256}, std::pair{256, 45}, std::pair{17, 1}}) {
            const std::string at = std::string(core::simd_level_name(lvl)) + " c0 " +
                                   std::to_string(c0) + " N " + std::to_string(N);
            std::vector<float> copy(static_cast<std::size_t>(K) * N);
            for (int k = 0; k < K; ++k)
                std::copy_n(B.data() + static_cast<std::size_t>(k) * ld + c0, N,
                            copy.data() + static_cast<std::size_t>(k) * N);
            core::PackedB window, dense;
            core::pack_b(K, N, B.data() + c0, ld, /*trans=*/false, window);
            core::pack_b(K, N, copy.data(), /*trans=*/false, dense);
            ASSERT_EQ(window.data.size(), dense.data.size()) << at;
            EXPECT_EQ(std::memcmp(window.data.data(), dense.data.data(),
                                  dense.data.size() * sizeof(float)),
                      0)
                << at;
            const core::Epilogue ep{bias.data(), core::EpilogueAct::kReLU6, 0.0f};
            std::vector<float> want(static_cast<std::size_t>(M) * N);
            core::sgemm_packed(pa, dense, want.data(), ep);
            std::vector<float> got(static_cast<std::size_t>(M) * ld, nan);
            core::sgemm_packed(pa, window, got.data() + c0, ld, ep);
            for (int m = 0; m < M; ++m)
                for (int n = 0; n < ld; ++n) {
                    const float v = got[static_cast<std::size_t>(m) * ld + n];
                    if (n < c0 || n >= c0 + N)
                        ASSERT_TRUE(std::isnan(v)) << at << " wrote (" << m << ", " << n << ")";
                    else
                        ASSERT_EQ(v, want[static_cast<std::size_t>(m) * N + n - c0])
                            << at << " (" << m << ", " << n << ")";
                }
        }
    }
}

TEST(PackB, PWConv1AndLinearEvalForwardsBitwiseAcrossThreadCounts) {
    SimdGuard guard;
    Rng rng(91);
    nn::PWConv1 pw(12, 10, true, rng, 2);
    nn::Linear fc(300, 7, rng);
    const Tensor x = randn_tensor({2, 12, 33, 37}, 92);   // 1221 columns per pack
    const Tensor fx = randn_tensor({37, 300, 1, 1}, 93);  // 37 columns of K = 300
    for (core::SimdLevel lvl : testing::runnable_simd_levels()) {
        core::set_simd_level(lvl);
        pw.set_training(false);  // packs the weights at this level's geometry
        fc.set_training(false);
        core::ThreadPool::set_global_threads(1);
        const Tensor pw1 = pw.forward(x);
        const Tensor fc1 = fc.forward(fx);
        for (int threads : {2, 4}) {
            core::ThreadPool::set_global_threads(threads);
            const Tensor pwn = pw.forward(x);
            const Tensor fcn = fc.forward(fx);
            ASSERT_EQ(pwn.shape(), pw1.shape());
            ASSERT_EQ(fcn.shape(), fc1.shape());
            EXPECT_EQ(std::memcmp(pwn.data(), pw1.data(), sizeof(float) * pw1.size()), 0)
                << "PWConv1 @" << core::simd_level_name(lvl) << "/" << threads << "t";
            EXPECT_EQ(std::memcmp(fcn.data(), fc1.data(), sizeof(float) * fc1.size()), 0)
                << "Linear @" << core::simd_level_name(lvl) << "/" << threads << "t";
        }
    }
}

}  // namespace
}  // namespace sky
