// Kernel engine tests: thread-pool semantics, GEMM correctness, layer parity
// with the naive seed kernels, thread-count invariance of every parallelised
// layer, NaN propagation through the GEMM conv path, the
// backward-before-forward guards, and concurrent eval forwards on one pool
// or reorder module (a data race there is the TSan lane's to report).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/gemm.hpp"
#include "core/thread_pool.hpp"
#include "data/synth_detection.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dwconv.hpp"
#include "nn/graph.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "nn/space_to_depth.hpp"
#include "unfused_reference.hpp"

namespace sky {
namespace {

/// Restores the environment-default global pool when a test exits.
struct ThreadGuard {
    ~ThreadGuard() { core::ThreadPool::set_global_threads(0); }
};

Tensor randn_tensor(Shape s, std::uint64_t seed) {
    Rng rng(seed);
    Tensor t(s);
    t.randn(rng, 0.0f, 1.0f);
    return t;
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, CoversRangeExactlyOnce) {
    ThreadGuard guard;
    for (int threads : {1, 2, 4}) {
        core::ThreadPool::set_global_threads(threads);
        std::vector<std::atomic<int>> hits(997);
        core::parallel_for(0, 997, 3, [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i)
                hits[static_cast<std::size_t>(i)].fetch_add(1);
        });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, EmptyAndSingleElementRanges) {
    ThreadGuard guard;
    core::ThreadPool::set_global_threads(4);
    int calls = 0;
    core::parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> count{0};
    core::parallel_for(7, 8, 1, [&](std::int64_t b, std::int64_t e) {
        EXPECT_EQ(b, 7);
        EXPECT_EQ(e, 8);
        ++count;
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, NestedCallsRunInline) {
    ThreadGuard guard;
    core::ThreadPool::set_global_threads(4);
    std::atomic<std::int64_t> total{0};
    core::parallel_for(0, 16, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
            core::parallel_for(0, 10, 1, [&](std::int64_t ib, std::int64_t ie) {
                total.fetch_add(ie - ib);
            });
    });
    EXPECT_EQ(total.load(), 160);
}

TEST(ThreadPool, AThrowingChunkFailsTheCallOnceEveryChunkIsOut) {
    // A body that throws, on a worker, on the calling thread or inside a
    // nested call, fails parallel_for with that exception, and only once no
    // thread is inside the body any more; the pool then runs the next call.
    ThreadGuard guard;
    for (int threads : {1, 2, 4}) {
        core::ThreadPool::set_global_threads(threads);
        for (std::int64_t bad : {0, 31, 63}) {
            std::atomic<int> inside{0};
            struct Leave {
                std::atomic<int>& n;
                ~Leave() { n.fetch_sub(1); }
            };
            try {
                core::parallel_for(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
                    inside.fetch_add(1);
                    const Leave leave{inside};
                    std::this_thread::sleep_for(std::chrono::microseconds(200));
                    for (std::int64_t i = b; i < e; ++i)
                        core::parallel_for(0, 2, 1, [&](std::int64_t, std::int64_t) {
                            if (i == bad) throw std::runtime_error("chunk " + std::to_string(i));
                        });
                });
                ADD_FAILURE() << threads << " threads: chunk " << bad << " threw nothing";
            } catch (const std::runtime_error& err) {
                EXPECT_EQ(std::string(err.what()), "chunk " + std::to_string(bad));
            }
            EXPECT_EQ(inside.load(), 0) << threads << " threads, chunk " << bad;
        }
        std::atomic<std::int64_t> count{0};
        core::parallel_for(0, 100, 1, [&](std::int64_t b, std::int64_t e) {
            count.fetch_add(e - b);
        });
        EXPECT_EQ(count.load(), 100) << threads << " threads";
    }
}

TEST(ThreadPool, EnvThreadsIsPositive) {
    EXPECT_GE(core::ThreadPool::env_threads(), 1);
    EXPECT_GE(core::ThreadPool::global().size(), 1);
}

// ---------------------------------------------------------------------- GEMM

void naive_nn(int M, int N, int K, const float* A, const float* B, float* C) {
    for (int i = 0; i < M; ++i)
        for (int j = 0; j < N; ++j) {
            double acc = C[i * N + j];
            for (int k = 0; k < K; ++k) acc += static_cast<double>(A[i * K + k]) * B[k * N + j];
            C[i * N + j] = static_cast<float>(acc);
        }
}

TEST(Gemm, MatchesNaiveAllVariants) {
    ThreadGuard guard;
    const int M = 13, N = 29, K = 17;
    Rng rng(3);
    std::vector<float> A(static_cast<std::size_t>(M) * K), B(static_cast<std::size_t>(K) * N);
    std::vector<float> At(static_cast<std::size_t>(K) * M), Bt(static_cast<std::size_t>(N) * K);
    for (auto& v : A) v = static_cast<float>(rng.normal());
    for (auto& v : B) v = static_cast<float>(rng.normal());
    for (int i = 0; i < M; ++i)
        for (int k = 0; k < K; ++k) At[static_cast<std::size_t>(k) * M + i] = A[i * K + k];
    for (int k = 0; k < K; ++k)
        for (int j = 0; j < N; ++j) Bt[static_cast<std::size_t>(j) * K + k] = B[k * N + j];

    std::vector<float> ref(static_cast<std::size_t>(M) * N, 0.5f);
    naive_nn(M, N, K, A.data(), B.data(), ref.data());

    for (int threads : {1, 4}) {
        core::ThreadPool::set_global_threads(threads);
        std::vector<float> c_nn(static_cast<std::size_t>(M) * N, 0.5f);
        core::PackedA pa;
        core::PackedB pb;
        core::pack_a(M, K, A.data(), /*trans=*/false, pa);
        core::pack_b(K, N, B.data(), /*trans=*/false, pb);
        core::sgemm_packed(pa, pb, c_nn.data());
        std::vector<float> c_tn(static_cast<std::size_t>(M) * N, 0.5f);
        core::sgemm_tn(M, N, K, At.data(), B.data(), c_tn.data());
        std::vector<float> c_nt(static_cast<std::size_t>(M) * N, 0.5f);
        core::sgemm_nt(M, N, K, A.data(), Bt.data(), c_nt.data());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_NEAR(c_nn[i], ref[i], 1e-4f) << "nn@" << threads << " idx " << i;
            EXPECT_NEAR(c_tn[i], ref[i], 1e-4f) << "tn@" << threads << " idx " << i;
            EXPECT_NEAR(c_nt[i], ref[i], 1e-4f) << "nt@" << threads << " idx " << i;
        }
    }
}

TEST(Gemm, TnHandlesPartialRowPanelsAndDegenerateShapes) {
    // Regression for the old blocked sgemm_tn, whose 4-row blocking misread
    // edge rows when M was not a multiple of 4 near chunk boundaries.  Runs
    // every M in [1, 9] (covering M < 4 and every M % 4) plus N=1 and K=0 at
    // several thread counts against the double-precision reference.
    ThreadGuard guard;
    int seed = 500;
    for (int M : {1, 2, 3, 4, 5, 6, 7, 8, 9}) {
        for (int N : {1, 5, 17}) {
            for (int K : {0, 1, 7}) {
                Rng rng(static_cast<std::uint64_t>(seed++));
                std::vector<float> At(static_cast<std::size_t>(K) * M);
                std::vector<float> B(static_cast<std::size_t>(K) * N);
                for (auto& v : At) v = static_cast<float>(rng.normal());
                for (auto& v : B) v = static_cast<float>(rng.normal());
                std::vector<float> A(static_cast<std::size_t>(M) * K);
                for (int k = 0; k < K; ++k)
                    for (int i = 0; i < M; ++i)
                        A[static_cast<std::size_t>(i) * K + k] =
                            At[static_cast<std::size_t>(k) * M + i];
                std::vector<float> ref(static_cast<std::size_t>(M) * N, 0.125f);
                naive_nn(M, N, K, A.data(), B.data(), ref.data());
                for (int threads : {1, 2, 4}) {
                    core::ThreadPool::set_global_threads(threads);
                    std::vector<float> c(ref.size(), 0.125f);
                    core::sgemm_tn(M, N, K, At.data(), B.data(), c.data());
                    for (std::size_t i = 0; i < ref.size(); ++i)
                        ASSERT_NEAR(c[i], ref[i], 1e-4f)
                            << "tn M=" << M << " N=" << N << " K=" << K << " @"
                            << threads << "t idx " << i;
                }
            }
        }
    }
}

TEST(Gemm, Col2imIsIm2colAdjoint) {
    // <im2col(x), c> == <x, col2im(c)> for random x, c — the defining adjoint
    // identity that conv backward relies on.
    ThreadGuard guard;
    core::ThreadPool::set_global_threads(2);
    const int C = 3, H = 7, W = 6, k = 3, stride = 2, pad = 1;
    const int OH = (H + 2 * pad - k) / stride + 1, OW = (W + 2 * pad - k) / stride + 1;
    Rng rng(11);
    std::vector<float> x(static_cast<std::size_t>(C) * H * W);
    std::vector<float> c(static_cast<std::size_t>(C) * k * k * OH * OW);
    for (auto& v : x) v = static_cast<float>(rng.normal());
    for (auto& v : c) v = static_cast<float>(rng.normal());
    std::vector<float> col(c.size(), 0.0f);
    core::im2col(x.data(), C, H, W, k, stride, pad, OH, OW, col.data());
    std::vector<float> xadj(x.size(), 0.0f);
    core::col2im(c.data(), C, H, W, k, stride, pad, OH, OW, xadj.data());
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < col.size(); ++i)
        lhs += static_cast<double>(col[i]) * c[i];
    for (std::size_t i = 0; i < x.size(); ++i)
        rhs += static_cast<double>(x[i]) * xadj[i];
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

// -------------------------------------------------- seed-kernel parity: conv

/// The seed's naive Conv2d forward (direct 7-deep loop nest), as a reference.
Tensor naive_conv_forward(const nn::Conv2d& conv, const Tensor& x) {
    const Shape in = x.shape();
    const Shape os = conv.out_shape(in);
    const int k = conv.spec().k, stride = conv.spec().stride, pad = conv.spec().pad;
    Tensor y(os);
    for (int n = 0; n < in.n; ++n)
        for (int oc = 0; oc < conv.spec().out_ch; ++oc) {
            float* yp = y.plane(n, oc);
            if (conv.has_bias()) {
                const float b = conv.bias()[oc];
                for (std::int64_t i = 0; i < static_cast<std::int64_t>(os.h) * os.w; ++i)
                    yp[i] = b;
            }
            for (int ic = 0; ic < conv.spec().in_ch; ++ic) {
                const float* xp = x.plane(n, ic);
                const float* wp = conv.weight().plane(oc, ic);
                for (int kh = 0; kh < k; ++kh)
                    for (int kw = 0; kw < k; ++kw) {
                        const float wv = wp[kh * k + kw];
                        for (int oh = 0; oh < os.h; ++oh) {
                            const int ih = oh * stride - pad + kh;
                            if (ih < 0 || ih >= in.h) continue;
                            for (int ow = 0; ow < os.w; ++ow) {
                                const int iw = ow * stride - pad + kw;
                                if (iw < 0 || iw >= in.w) continue;
                                yp[static_cast<std::int64_t>(oh) * os.w + ow] +=
                                    wv * xp[static_cast<std::int64_t>(ih) * in.w + iw];
                            }
                        }
                    }
            }
        }
    return y;
}

TEST(KernelParity, Conv2dForwardMatchesSeed) {
    ThreadGuard guard;
    struct Case {
        int in_ch, out_ch, k, stride, pad;
        bool bias;
        Shape in;
    };
    const Case cases[] = {
        {3, 8, 3, 1, 1, true, {2, 3, 9, 11}},
        {4, 6, 3, 2, 1, false, {2, 4, 8, 10}},
        {6, 4, 1, 1, 0, true, {1, 6, 5, 5}},
        {2, 3, 5, 1, 2, false, {1, 2, 8, 8}},
    };
    int seed = 20;
    for (const Case& tc : cases) {
        Rng rng(static_cast<std::uint64_t>(seed++));
        nn::Conv2d conv(tc.in_ch, tc.out_ch, tc.k, tc.stride, tc.pad, tc.bias, rng);
        conv.set_training(false);
        Tensor x = randn_tensor(tc.in, static_cast<std::uint64_t>(seed++));
        const Tensor ref = naive_conv_forward(conv, x);
        for (int threads : {1, 4}) {
            core::ThreadPool::set_global_threads(threads);
            const Tensor y = conv.forward(x);
            ASSERT_EQ(y.shape(), ref.shape());
            for (std::int64_t i = 0; i < y.size(); ++i)
                ASSERT_NEAR(y[i], ref[i], 1e-5f)
                    << conv.name() << " @" << threads << "t idx " << i;
        }
    }
}

/// The seed's naive PWConv1 forward, as a reference.
Tensor naive_pwconv_forward(const nn::PWConv1& conv, const Tensor& x) {
    const nn::ConvSpec& cs = conv.spec();
    const Shape s = x.shape();
    Tensor y({s.n, cs.out_ch, s.h, s.w});
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    const int ipg = cs.in_ch / cs.groups;
    const int opg = cs.out_ch / cs.groups;
    for (int n = 0; n < s.n; ++n)
        for (int oc = 0; oc < cs.out_ch; ++oc) {
            const int g = oc / opg;
            float* yp = y.plane(n, oc);
            if (conv.has_bias()) {
                const float b = conv.bias()[oc];
                for (std::int64_t i = 0; i < plane; ++i) yp[i] = b;
            }
            const float* wrow = conv.weight().plane(oc, 0);
            for (int k = 0; k < ipg; ++k) {
                const float wv = wrow[k];
                const float* xp = x.plane(n, g * ipg + k);
                for (std::int64_t i = 0; i < plane; ++i) yp[i] += wv * xp[i];
            }
        }
    return y;
}

TEST(KernelParity, PWConv1ForwardMatchesSeed) {
    ThreadGuard guard;
    struct Case {
        int in_ch, out_ch, groups;
        bool bias;
    };
    const Case cases[] = {{8, 5, 1, true}, {8, 6, 2, false}, {12, 12, 4, true}};
    int seed = 40;
    for (const Case& tc : cases) {
        Rng rng(static_cast<std::uint64_t>(seed++));
        nn::PWConv1 conv(tc.in_ch, tc.out_ch, tc.bias, rng, tc.groups);
        conv.set_training(false);
        Tensor x = randn_tensor({2, tc.in_ch, 5, 7}, static_cast<std::uint64_t>(seed++));
        const Tensor ref = naive_pwconv_forward(conv, x);
        for (int threads : {1, 4}) {
            core::ThreadPool::set_global_threads(threads);
            const Tensor y = conv.forward(x);
            for (std::int64_t i = 0; i < y.size(); ++i)
                ASSERT_NEAR(y[i], ref[i], 1e-5f)
                    << conv.name() << " @" << threads << "t idx " << i;
        }
    }
}

// ------------------------------------------- thread-count invariance (exact)

/// Forward + backward under `threads`, returning (y, grad_in, grad_norms).
struct FwdBwd {
    Tensor y, gin;
    std::vector<Tensor> grads;
};

FwdBwd run_fwd_bwd(nn::Module& m, const Tensor& x, int threads) {
    core::ThreadPool::set_global_threads(threads);
    m.set_training(true);
    std::vector<nn::ParamRef> params;
    m.collect_params(params);
    for (auto& p : params) p.grad->zero();
    FwdBwd out;
    out.y = m.forward(x);
    Tensor proj(out.y.shape());
    Rng rng(99);
    proj.randn(rng, 0.0f, 1.0f);
    out.gin = m.backward(proj);
    for (auto& p : params) out.grads.push_back(*p.grad);
    return out;
}

void expect_identical(const Tensor& a, const Tensor& b, const char* what) {
    ASSERT_EQ(a.shape(), b.shape()) << what;
    for (std::int64_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << what << " differs at " << i;
}

TEST(ThreadInvariance, AllLayersBitwiseIdenticalAcrossThreadCounts) {
    ThreadGuard guard;
    Rng rng(7);
    nn::Conv2d conv(4, 6, 3, 1, 1, true, rng);
    nn::DWConv3 dw(6, rng);
    nn::PWConv1 pw(6, 8, true, rng, 2);
    nn::Linear fc(24, 5, rng);
    nn::BatchNorm2d bn(6);
    nn::MaxPool2 pool;
    nn::GlobalAvgPool gap;
    struct Item {
        nn::Module* m;
        Shape in;
    };
    const Item items[] = {
        {&conv, {2, 4, 8, 9}}, {&dw, {2, 6, 7, 8}},   {&pw, {2, 6, 6, 6}},
        {&fc, {3, 24, 1, 1}},  {&bn, {3, 6, 5, 5}},   {&pool, {2, 6, 8, 8}},
        {&gap, {2, 6, 5, 5}},
    };
    int seed = 60;
    for (const Item& it : items) {
        Tensor x = randn_tensor(it.in, static_cast<std::uint64_t>(seed++));
        const FwdBwd a = run_fwd_bwd(*it.m, x, 1);
        const FwdBwd b = run_fwd_bwd(*it.m, x, 4);
        expect_identical(a.y, b.y, it.m->name().c_str());
        expect_identical(a.gin, b.gin, it.m->name().c_str());
        ASSERT_EQ(a.grads.size(), b.grads.size());
        for (std::size_t g = 0; g < a.grads.size(); ++g)
            expect_identical(a.grads[g], b.grads[g], it.m->name().c_str());
    }
}

TEST(ThreadInvariance, DetectionBatchIdenticalAcrossThreadCounts) {
    ThreadGuard guard;
    data::DetectionDataset::Config cfg{24, 48, 2, false, 17};
    core::ThreadPool::set_global_threads(1);
    data::DetectionDataset ds1(cfg);
    const data::DetectionBatch a = ds1.batch(6);
    core::ThreadPool::set_global_threads(4);
    data::DetectionDataset ds4(cfg);
    const data::DetectionBatch b = ds4.batch(6);
    ASSERT_EQ(a.images.size(), b.images.size());
    for (std::int64_t i = 0; i < a.images.size(); ++i)
        ASSERT_EQ(a.images[i], b.images[i]) << "pixel " << i;
    ASSERT_EQ(a.boxes.size(), b.boxes.size());
    for (std::size_t i = 0; i < a.boxes.size(); ++i) {
        EXPECT_EQ(a.boxes[i].cx, b.boxes[i].cx);
        EXPECT_EQ(a.boxes[i].cy, b.boxes[i].cy);
    }
}

// ------------------------------------------------------------ NaN propagation

TEST(NanPropagation, Conv2dDoesNotSkipZeroWeights) {
    // The seed kernel skipped taps with wv == 0, silently dropping NaN/Inf
    // from the input.  The GEMM path must propagate them.
    ThreadGuard guard;
    core::ThreadPool::set_global_threads(1);
    Rng rng(5);
    nn::Conv2d conv(1, 1, 3, 1, 1, false, rng);
    conv.set_training(false);
    conv.weight().zero();  // all taps zero: the old kernel skipped everything
    Tensor x({1, 1, 5, 5});
    x.fill(1.0f);
    x.at(0, 0, 2, 2) = std::nanf("");
    const Tensor y = conv.forward(x);
    // Every output whose 3x3 receptive field covers (2,2) must be NaN.
    for (int oh = 1; oh <= 3; ++oh)
        for (int ow = 1; ow <= 3; ++ow)
            EXPECT_TRUE(std::isnan(y.at(0, 0, oh, ow))) << oh << "," << ow;
    EXPECT_FALSE(std::isnan(y.at(0, 0, 0, 0)));
}

TEST(NanPropagation, PWConv1DoesNotSkipZeroWeights) {
    ThreadGuard guard;
    core::ThreadPool::set_global_threads(1);
    Rng rng(6);
    nn::PWConv1 conv(2, 2, false, rng);
    conv.set_training(false);
    conv.weight().zero();
    Tensor x({1, 2, 3, 3});
    x.fill(0.5f);
    x.at(0, 1, 1, 1) = std::numeric_limits<float>::infinity();
    const Tensor y = conv.forward(x);
    EXPECT_TRUE(std::isnan(y.at(0, 0, 1, 1)));  // 0 * inf = NaN propagates
    EXPECT_FALSE(std::isnan(y.at(0, 0, 0, 0)));
}

// ------------------------------------------------- backward-before-forward

TEST(BackwardGuard, ThrowsWithoutCachedInput) {
    ThreadGuard guard;
    Rng rng(8);
    nn::Conv2d conv(2, 3, 3, 1, 1, false, rng);
    nn::DWConv3 dw(3, rng);
    nn::PWConv1 pw(3, 4, false, rng);
    nn::Linear fc(6, 2, rng);
    nn::MaxPool2 pool;
    Tensor g({1, 3, 4, 4});
    EXPECT_THROW((void)conv.backward(g), std::logic_error);
    EXPECT_THROW((void)dw.backward(g), std::logic_error);
    EXPECT_THROW((void)pw.backward(g), std::logic_error);
    EXPECT_THROW((void)fc.backward(Tensor({1, 2, 1, 1})), std::logic_error);
    nn::SpaceToDepth s2d(2);
    nn::GlobalAvgPool gap;
    for (nn::Module* m : std::initializer_list<nn::Module*>{&pool, &s2d, &gap}) {
        try {
            (void)m->backward(g);
            ADD_FAILURE() << m->name() << "::backward ran without a training forward";
        } catch (const std::logic_error& e) {
            EXPECT_NE(std::string(e.what()).find("without a training forward"),
                      std::string::npos)
                << e.what();
        }
    }
    // A gradient of another shape than the training forward produced.
    (void)pool.forward(randn_tensor({1, 3, 8, 8}, 11));
    EXPECT_NO_THROW((void)pool.backward(g));
    EXPECT_THROW((void)pool.backward(Tensor({1, 3, 4, 3})), std::logic_error);
    EXPECT_THROW((void)pool.backward(Tensor({2, 3, 4, 4})), std::logic_error);
}

TEST(BackwardGuard, EvalForwardDoesNotArmBackward) {
    ThreadGuard guard;
    Rng rng(9);
    nn::Conv2d conv(2, 3, 3, 1, 1, false, rng);
    conv.set_training(false);
    Tensor x = randn_tensor({1, 2, 5, 5}, 10);
    const Tensor y = conv.forward(x);  // eval mode: input not cached
    EXPECT_THROW((void)conv.backward(y), std::logic_error);
    // Training-mode forward arms it.
    conv.set_training(true);
    const Tensor y2 = conv.forward(x);
    EXPECT_NO_THROW((void)conv.backward(y2));

    nn::MaxPool2 pool;
    pool.set_training(false);
    const Tensor p = pool.forward(x);  // eval mode: no argmax recorded
    EXPECT_THROW((void)pool.backward(p), std::logic_error);
    pool.set_training(true);
    const Tensor p2 = pool.forward(x);
    EXPECT_NO_THROW((void)pool.backward(p2));
}

TEST(BackwardGuard, EvalForwardBeforeBackwardKeepsTheTrainingShape) {
    // A training forward at one batch, an eval forward at another, then the
    // backward: it routes the training gradient exactly as without the eval
    // forward in between, and refuses a gradient of the eval output's shape.
    ThreadGuard guard;
    const auto make = [](int kind) -> nn::ModulePtr {
        if (kind == 0) return std::make_unique<nn::SpaceToDepth>(2);
        if (kind == 1) return std::make_unique<nn::GlobalAvgPool>();
        return std::make_unique<nn::MaxPool2>();
    };
    for (int kind = 0; kind < 3; ++kind)
        for (const auto& [train_n, eval_n] : {std::pair{1, 3}, std::pair{3, 1}}) {
            const Tensor x = randn_tensor({train_n, 4, 4, 6}, 40 + static_cast<unsigned>(kind));
            const Tensor xe = randn_tensor({eval_n, 4, 4, 6}, 50);
            nn::ModulePtr fresh = make(kind);
            const Tensor grad = randn_tensor(fresh->out_shape(x.shape()), 60);
            (void)fresh->forward(x);
            const Tensor want = fresh->backward(grad);

            nn::ModulePtr m = make(kind);
            (void)m->forward(x);
            m->set_training(false);
            const Tensor ye = m->forward(xe);
            const std::string what = m->name() + " trained at batch " +
                                     std::to_string(train_n) + ", eval at " +
                                     std::to_string(eval_n);
            const Tensor got = m->backward(grad);
            ASSERT_EQ(got.shape(), x.shape()) << what;
            for (std::int64_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(got[i], want[i]) << what << " idx " << i;
            EXPECT_THROW((void)m->backward(ye), std::logic_error) << what;
        }
}

TEST(ConcurrentEval, PoolAndReorderModulesServeTwoThreadsAtOnce) {
    // An eval forward writes no member of SpaceToDepth, GlobalAvgPool,
    // MaxPool2 or BatchNorm2d (whose cached affine only set_training(false)
    // writes), so two threads may share one module; each must get exactly
    // the outputs it gets alone.  The same holds for the pwconv of an
    // unfolded PW -> BN -> ReLU6 -> pool graph, run as the graph's eval
    // plan runs it: the BN's cached affine, the ReLU6 and the pool folded
    // into its store.  (A Graph itself keeps its node outputs, so it serves
    // one forward at a time.)
    ThreadGuard guard;
    core::ThreadPool::set_global_threads(2);
    nn::SpaceToDepth s2d(2);
    nn::GlobalAvgPool gap;
    nn::MaxPool2 pool;
    nn::BatchNorm2d bn(3);
    Rng rng(72);
    nn::Graph bundle;
    bundle.emplace<nn::PWConv1>(3, 5, false, rng);
    bundle.emplace<nn::BatchNorm2d>(5);
    bundle.emplace<nn::Activation>(nn::Act::kReLU6);
    bundle.emplace<nn::MaxPool2>();
    ASSERT_EQ(testing::randomize_bn(bn, 73) + testing::randomize_bn(bundle, 74), 2);
    bundle.set_training(false);
    const nn::Graph::FusionPlan plan = bundle.fusion_plan();
    for (int node : {2, 3, 4}) ASSERT_EQ(plan.carrier[static_cast<std::size_t>(node)], 1);
    const Tensor xs[2] = {randn_tensor({1, 3, 8, 10}, 70), randn_tensor({3, 3, 6, 4}, 71)};
    std::vector<std::pair<std::string, std::function<Tensor(const Tensor&)>>> cases;
    for (nn::Module* m : std::initializer_list<nn::Module*>{&s2d, &gap, &pool, &bn}) {
        m->set_training(false);
        cases.emplace_back(m->name(), [m](const Tensor& x) { return m->forward(x); });
    }
    cases.emplace_back("PW -> BN -> ReLU6 -> pool", [&](const Tensor& x) {
        Tensor y;
        bundle.node_module(1)->forward_fused(x, plan.epilogue[1], y);
        return y;
    });
    for (const auto& [name, run] : cases) {
        const Tensor want[2] = {run(xs[0]), run(xs[1])};
        int mismatches[2] = {0, 0};
        std::vector<std::thread> workers;
        for (int t = 0; t < 2; ++t)
            workers.emplace_back([&, t] {
                for (int rep = 0; rep < 20; ++rep) {
                    const Tensor y = run(xs[t]);
                    if (!(y.shape() == want[t].shape()) ||
                        !std::equal(y.data(), y.data() + y.size(), want[t].data()))
                        ++mismatches[t];
                }
            });
        for (std::thread& w : workers) w.join();
        EXPECT_EQ(mismatches[0], 0) << name;
        EXPECT_EQ(mismatches[1], 0) << name;
    }
    // What the fused pwconv wrote alone is the unfused graph's value.
    for (const Tensor& x : xs) {
        const Tensor fused = cases.back().second(x), ref = testing::unfused_forward(bundle, x);
        ASSERT_EQ(fused.shape(), ref.shape());
        EXPECT_TRUE(std::equal(fused.data(), fused.data() + fused.size(), ref.data()));
    }
}

}  // namespace
}  // namespace sky
