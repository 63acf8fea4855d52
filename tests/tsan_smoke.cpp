// Concurrency smoke, intended for the TSan lane
// (cmake -DSKYNET_SANITIZE=thread).  Part 1 hammers the global thread pool
// from several dispatcher threads at once (parallel_for serialises them
// internally), interleaves pool reconfiguration, and checks that every index
// is processed exactly once.  Part 2 drives the sky::serve engine — bounded
// queue, dynamic batcher, staged workers — from several submitter threads
// through repeated start/drain-shutdown cycles.  Exits non-zero on any lost
// or duplicated work, or on a throwing chunk that does not fail its call.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "nn/conv.hpp"
#include "nn/dwconv.hpp"
#include "nn/linear.hpp"
#include "nn/pwconv.hpp"
#include "serve/engine.hpp"
#include "skynet/detector.hpp"

namespace {

/// Concurrent eval forward() on ONE module instance from several threads,
/// for every nn::ConvLayer subclass.  The layers used to lower into member
/// scratch (`col_`), so this raced; with thread-local scratch, and the weight
/// pack only read (nn/conv_layer.hpp), every thread must get the same
/// bitwise result as a lone sequential call.
int concurrent_forward_smoke() {
    using namespace sky;
    Rng rng(23);
    nn::Conv2d conv(3, 8, 3, 1, 1, true, rng);
    nn::PWConv1 pw(8, 6, true, rng, 2);
    nn::DWConv3 dw(6, rng);
    nn::Linear fc(6 * 16 * 18, 5, rng);
    std::vector<nn::Module*> chain{&conv, &pw, &dw, &fc};
    for (nn::Module* m : chain) m->set_training(false);
    Tensor x({2, 3, 16, 18});
    x.rand_uniform(rng, 0.0f, 1.0f);
    const auto run = [&] {
        std::vector<Tensor> ys;
        for (nn::Module* m : chain) ys.push_back(m->forward(ys.empty() ? x : ys.back()));
        return ys;
    };
    const std::vector<Tensor> ref = run();
    std::atomic<int> failures{0};
    constexpr int kThreads = 4;
    constexpr int kRounds = 6;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&] {
            for (int round = 0; round < kRounds; ++round) {
                const std::vector<Tensor> ys = run();
                for (std::size_t l = 0; l < ys.size(); ++l)
                    for (std::int64_t i = 0; i < ys[l].size(); ++i)
                        if (ys[l][i] != ref[l][i]) {
                            failures.fetch_add(1, std::memory_order_relaxed);
                            break;
                        }
            }
        });
    for (auto& w : workers) w.join();
    return failures.load();
}

/// Multi-threaded submitters racing the engine's staged workers: `kClients`
/// threads each push `kPerClient` frames, half the runs shut down while
/// requests are still in flight (drain mode must still answer every one).
int serve_engine_smoke() {
    using namespace sky;
    Rng rng(17);
    Detector det({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.15f}, rng);
    constexpr int kClients = 3;
    constexpr int kPerClient = 8;
    int failures = 0;
    for (int round = 0; round < 4; ++round) {
        serve::ServeConfig sc;
        sc.max_batch = 3;
        sc.max_delay_ms = 1.0;
        sc.queue_capacity = 8;  // small: submitters block on backpressure
        serve::Engine engine(det, sc);
        engine.start();
        std::atomic<int> answered{0};
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                Rng img_rng(static_cast<std::uint64_t>(100 + c));
                for (int i = 0; i < kPerClient; ++i) {
                    Tensor img({1, 3, 32, 64});
                    img.rand_uniform(img_rng, 0.0f, 1.0f);
                    try {
                        auto fut = engine.submit(std::move(img));
                        (void)fut.get();
                        answered.fetch_add(1, std::memory_order_relaxed);
                    } catch (const serve::RejectedError&) {
                        // Raced a shutdown — allowed; counted as answered.
                        answered.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            });
        if (round % 2 == 1) engine.shutdown(true);  // drain with clients racing
        for (auto& c : clients) c.join();
        engine.shutdown(true);
        if (answered.load() != kClients * kPerClient) ++failures;
        // Draining shutdown completes every accepted request.
        if (engine.completed() != engine.submitted()) ++failures;
    }
    return failures;
}

}  // namespace

int main() {
    using sky::core::ThreadPool;
    ThreadPool::set_global_threads(4);

    // 1. Exactly-once coverage under contention from 3 dispatcher threads.
    constexpr int kRange = 10000;
    constexpr int kRounds = 50;
    std::atomic<int> mismatches{0};
    auto dispatcher = [&](int tid) {
        std::vector<std::atomic<int>> hits(kRange);
        for (int round = 0; round < kRounds; ++round) {
            for (auto& h : hits) h.store(0, std::memory_order_relaxed);
            sky::core::parallel_for(0, kRange, 7, [&](std::int64_t b, std::int64_t e) {
                for (std::int64_t i = b; i < e; ++i)
                    hits[static_cast<std::size_t>(i)].fetch_add(
                        1, std::memory_order_relaxed);
            });
            for (const auto& h : hits)
                if (h.load(std::memory_order_relaxed) != 1) ++mismatches;
        }
        (void)tid;
    };
    std::vector<std::thread> dispatchers;
    for (int t = 0; t < 3; ++t) dispatchers.emplace_back(dispatcher, t);
    for (auto& d : dispatchers) d.join();

    // 2. Nested parallel_for runs inline and still covers the range.
    std::atomic<std::int64_t> nested_sum{0};
    sky::core::parallel_for(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
            sky::core::parallel_for(0, 8, 1, [&](std::int64_t ib, std::int64_t ie) {
                nested_sum.fetch_add(ie - ib, std::memory_order_relaxed);
            });
    });
    if (nested_sum.load() != 64 * 8) ++mismatches;

    // 3. Reconfigure between jobs (old pool drains and joins cleanly).
    for (int n : {1, 2, 8, 4}) {
        ThreadPool::set_global_threads(n);
        std::atomic<std::int64_t> count{0};
        sky::core::parallel_for(0, 1000, 16, [&](std::int64_t b, std::int64_t e) {
            count.fetch_add(e - b, std::memory_order_relaxed);
        });
        if (count.load() != 1000) ++mismatches;
    }

    // 4. A throwing chunk fails the call, with the exception carried from
    //    whichever thread threw, and the pool keeps working.
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::int64_t> count{0};
        try {
            sky::core::parallel_for(0, 256, 1, [&](std::int64_t b, std::int64_t e) {
                count.fetch_add(e - b, std::memory_order_relaxed);
                if (b <= 97 + round && 97 + round < e) throw std::runtime_error("chunk");
            });
            ++mismatches;
        } catch (const std::runtime_error&) {
        }
        if (count.load() == 0) ++mismatches;
    }

    // 5. Concurrent eval forwards on one module instance (member-scratch
    //    races would show up here and under TSan).
    ThreadPool::set_global_threads(2);
    mismatches += concurrent_forward_smoke();

    // 6. The serving engine under multi-threaded submission and racing
    //    shutdowns.
    mismatches += serve_engine_smoke();

    if (mismatches.load() != 0) {
        std::fprintf(stderr, "threadpool smoke FAILED: %d mismatches\n",
                     mismatches.load());
        return 1;
    }
    std::printf("threadpool + serve smoke ok\n");
    return 0;
}
