// sky::serve — queue backpressure, dynamic batching, pipeline draining, and
// the determinism contract: results are bitwise independent of how requests
// were coalesced into batches and of the kernel-engine thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "serve/engine.hpp"

#include "core/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/queue.hpp"
#include "skynet/detector.hpp"

namespace sky::serve {
namespace {

/// Restores the env-resolved pool size when a test that pins threads exits.
struct ThreadGuard {
    ~ThreadGuard() { core::ThreadPool::set_global_threads(0); }
};

Tensor random_image(std::uint64_t seed, int h = 32, int w = 64) {
    Tensor img({1, 3, h, w});
    Rng rng(seed);
    img.rand_uniform(rng, 0.0f, 1.0f);
    return img;
}

Detector small_detector(std::uint64_t seed = 11) {
    Rng rng(seed);
    return Detector({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.15f}, rng);
}

// ---------------------------------------------------------------- queue ---

TEST(BoundedQueue, TryPushRejectsWhenFull) {
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.try_push(1));
    EXPECT_TRUE(q.try_push(2));
    EXPECT_FALSE(q.try_push(3));  // full: the kReject policy path
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.try_push(3));  // space again
}

TEST(BoundedQueue, CloseDrainsThenStops) {
    BoundedQueue<int> q(8);
    EXPECT_TRUE(q.try_push(1));
    EXPECT_TRUE(q.try_push(2));
    q.close();
    EXPECT_FALSE(q.try_push(3));  // closed to producers
    int v = 0;
    EXPECT_TRUE(q.pop(v));  // but consumers still drain
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_FALSE(q.pop(v));  // closed AND empty
}

TEST(BoundedQueue, OfferReturnsItemOnlyWhenClosed) {
    BoundedQueue<std::unique_ptr<int>> q(2);
    EXPECT_FALSE(q.offer(std::make_unique<int>(1)));  // accepted: nullopt
    q.close();
    auto rejected = q.offer(std::make_unique<int>(2));
    ASSERT_TRUE(rejected.has_value());  // handed back, not moved-from
    ASSERT_TRUE(*rejected != nullptr);
    EXPECT_EQ(**rejected, 2);
    std::unique_ptr<int> v;
    EXPECT_TRUE(q.pop(v));  // the accepted item still drains
    EXPECT_EQ(*v, 1);
}

TEST(BoundedQueue, BlockingPushWaitsForSpace) {
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.try_push(1));
    std::thread consumer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        int v;
        (void)q.pop(v);
    });
    EXPECT_FALSE(q.offer(2));  // blocks until the consumer frees a slot
    consumer.join();
    EXPECT_EQ(q.size(), 1u);
}

// ------------------------------------------------------------ pop_batch ---

const auto any_joins = [](const int&, const int&) { return true; };

double ms_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

TEST(BoundedQueue, CoalescesUpToMaxBatch) {
    BoundedQueue<int> q(32);
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.try_push(int(i)));
    std::vector<int> out;
    // Items are already queued, so max_batch wins long before max_delay.
    ASSERT_TRUE(q.pop_batch(4, 1000.0, out, any_joins));
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
    ASSERT_TRUE(q.pop_batch(4, 1000.0, out, any_joins));
    EXPECT_EQ(out, (std::vector<int>{4, 5, 6, 7}));
    q.close();
    ASSERT_TRUE(q.pop_batch(4, 1000.0, out, any_joins));  // drain mode: no delay wait
    EXPECT_EQ(out, (std::vector<int>{8, 9}));
    EXPECT_FALSE(q.pop_batch(4, 1000.0, out, any_joins));  // closed and empty
}

TEST(BoundedQueue, MaxDelayFlushesPartialBatch) {
    BoundedQueue<int> q(32);
    ASSERT_TRUE(q.try_push(1));
    ASSERT_TRUE(q.try_push(2));
    std::vector<int> out;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(q.pop_batch(8, 50.0, out, any_joins));
    const double waited = ms_since(t0);
    EXPECT_EQ(out.size(), 2u);       // partial batch released...
    EXPECT_GE(waited, 40.0);         // ...but only after ~max_delay_ms
    EXPECT_LT(waited, 2000.0);
}

TEST(BoundedQueue, LateArrivalJoinsWithinDelay) {
    // 1e300 ms and infinity are past the clock's range: the deadline
    // saturates and they wait like any long delay.
    const double inf = std::numeric_limits<double>::infinity();
    for (const double delay : {5000.0, 1e300, inf}) {
        BoundedQueue<int> q(32);
        ASSERT_TRUE(q.try_push(1));
        std::thread producer([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            (void)q.offer(2);
        });
        std::vector<int> out;
        ASSERT_TRUE(q.pop_batch(2, delay, out, any_joins));  // fills to max_batch and returns
        producer.join();
        EXPECT_EQ(out, (std::vector<int>{1, 2})) << delay;
    }
}

TEST(BoundedQueue, NaNOrNegativeDelayDoesNotWait) {
    for (const double delay : {std::numeric_limits<double>::quiet_NaN(), -1e300, 0.0}) {
        BoundedQueue<int> q(32);
        ASSERT_TRUE(q.try_push(1));
        std::vector<int> out;
        const auto t0 = std::chrono::steady_clock::now();
        ASSERT_TRUE(q.pop_batch(2, delay, out, any_joins));
        EXPECT_LT(ms_since(t0), 1000.0) << delay;
        EXPECT_EQ(out, (std::vector<int>{1})) << delay;
    }
}

TEST(BoundedQueue, JoinPredicateBoundsBatch) {
    // Odd/even may not mix: the engine uses the same mechanism to keep
    // mixed input shapes out of a single NCHW tensor.
    const auto same_parity = [](const int& head, const int& cand) {
        return head % 2 == cand % 2;
    };
    BoundedQueue<int> q(32);
    for (int v : {2, 4, 7, 9, 6}) ASSERT_TRUE(q.try_push(int(v)));
    std::vector<int> out;
    ASSERT_TRUE(q.pop_batch(8, 10.0, out, same_parity));
    EXPECT_EQ(out, (std::vector<int>{2, 4}));  // stops at the first odd item
    ASSERT_TRUE(q.pop_batch(8, 10.0, out, same_parity));
    EXPECT_EQ(out, (std::vector<int>{7, 9}));
    ASSERT_TRUE(q.pop_batch(8, 10.0, out, same_parity));
    EXPECT_EQ(out, (std::vector<int>{6}));
}

TEST(BoundedQueue, CloseRacingBlockedOffersAndPopBatchLosesNothing) {
    // Four producers block on a queue of two while one consumer batches
    // out of it; close() lands after a different number of deliveries each
    // round.  Every id is delivered exactly once or handed back by offer()
    // exactly once, and pop_batch() ends only on a closed, drained queue.
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 50;
    constexpr int kIds = kProducers * kPerProducer;
    for (const int close_after : {0, 1, 2, 3, 7, 20, 33, 60, 100, 150, 197, 199, kIds}) {
        BoundedQueue<int> q(2);
        std::atomic<int> delivered_count{0};
        std::vector<int> delivered;
        bool drained_when_done = false;
        std::thread consumer([&] {
            std::vector<int> batch;
            while (q.pop_batch(3, 1.0, batch, any_joins)) {
                EXPECT_GE(batch.size(), 1u);
                EXPECT_LE(batch.size(), 3u);
                delivered.insert(delivered.end(), batch.begin(), batch.end());
                delivered_count.fetch_add(static_cast<int>(batch.size()));
            }
            drained_when_done = q.closed() && q.size() == 0;
        });
        std::vector<std::vector<int>> handed_back(kProducers);
        std::vector<std::thread> producers;
        for (int p = 0; p < kProducers; ++p)
            producers.emplace_back([&, p] {
                for (int i = 0; i < kPerProducer; ++i)
                    if (std::optional<int> back = q.offer(p * kPerProducer + i))
                        handed_back[static_cast<std::size_t>(p)].push_back(*back);
            });
        while (delivered_count.load() < close_after) std::this_thread::yield();
        q.close();
        for (std::thread& t : producers) t.join();
        consumer.join();

        EXPECT_TRUE(drained_when_done) << "close after " << close_after;
        std::vector<int> seen(kIds, 0);
        for (const int id : delivered) ++seen[static_cast<std::size_t>(id)];
        for (const std::vector<int>& ids : handed_back)
            for (const int id : ids) ++seen[static_cast<std::size_t>(id)];
        for (int id = 0; id < kIds; ++id)
            EXPECT_EQ(seen[static_cast<std::size_t>(id)], 1)
                << "id " << id << ", close after " << close_after;
        EXPECT_GE(delivered.size(), static_cast<std::size_t>(close_after));
    }
}

// --------------------------------------------------------------- engine ---

TEST(Engine, RejectPolicyShedsLoadDeterministically) {
    Detector det = small_detector();
    obs::Registry reg;
    ServeConfig cfg;
    cfg.queue_capacity = 2;
    cfg.overflow = OverflowPolicy::kReject;
    cfg.max_batch = 4;
    cfg.metrics = &reg;
    Engine engine(det, cfg);
    // Not started yet: nothing drains, so the queue bound is exact.
    auto f1 = engine.submit(random_image(1));
    auto f2 = engine.submit(random_image(2));
    EXPECT_THROW((void)engine.submit(random_image(3)), RejectedError);
    EXPECT_EQ(engine.rejected(), 1u);
    EXPECT_EQ(engine.submitted(), 2u);
    EXPECT_EQ(reg.counter("serve.rejected"), 1.0);

    engine.start();  // accepted requests now flow through the pipeline
    const DetectResult r1 = f1.get();
    const DetectResult r2 = f2.get();
    EXPECT_GT(r1.batch_size, 0);
    EXPECT_GT(r2.total_ms, 0.0);
    engine.shutdown();
    EXPECT_EQ(engine.completed(), 2u);
    EXPECT_THROW((void)engine.submit(random_image(4)), RejectedError);
}

TEST(Engine, RefusesNonFiniteMaxDelay) {
    Detector det = small_detector();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double delay : {inf, -inf, std::numeric_limits<double>::quiet_NaN()}) {
        ServeConfig cfg;
        cfg.max_delay_ms = delay;
        EXPECT_THROW((Engine(det, cfg)), std::invalid_argument) << delay;
    }
}

TEST(Engine, HugeQueueCapacityGetsFiniteDepthBuckets) {
    // The depth buckets double up to the capacity; past 2^63 a doubling
    // wraps to 0, and the bucket loop must still end.
    Detector det = small_detector();
    obs::Registry reg;
    ServeConfig cfg;
    cfg.queue_capacity = std::numeric_limits<std::size_t>::max();
    cfg.metrics = &reg;
    Engine engine(det, cfg);
    const std::vector<double> bounds = reg.histogram("serve.queue.depth").bounds;
    ASSERT_EQ(bounds.size(), 65u);  // 0, 1, 2, 4, ..., 2^63
    EXPECT_EQ(bounds.front(), 0.0);
    EXPECT_EQ(bounds.back(), std::ldexp(1.0, 63));
    engine.start();
    EXPECT_GE(engine.submit(random_image(3)).get().box.w, 0.0f);
    engine.shutdown();
    EXPECT_EQ(engine.completed(), 1u);
}

TEST(Engine, ShutdownDrainsInflightRequests) {
    Detector det = small_detector();
    ServeConfig cfg;
    cfg.max_batch = 4;
    cfg.max_delay_ms = 1.0;
    cfg.queue_capacity = 32;
    Engine engine(det, cfg);
    engine.start();
    std::vector<std::future<DetectResult>> futures;
    for (int i = 0; i < 12; ++i) futures.push_back(engine.submit(random_image(100 + i)));
    engine.shutdown(/*drain=*/true);  // must complete every accepted request
    for (auto& f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
        const DetectResult r = f.get();  // throws if any request was dropped
        EXPECT_GE(r.box.w, 0.0f);
        EXPECT_GT(r.total_ms, 0.0);
    }
    EXPECT_EQ(engine.completed(), 12u);
    EXPECT_EQ(engine.submitted(), engine.completed() + engine.failed() + engine.discarded());
    EXPECT_EQ(engine.discarded(), 0u);
    EXPECT_GE(engine.batches(), 3u);  // 12 requests / max_batch 4
}

TEST(Engine, NonDrainingShutdownFailsOnlyQueuedRequests) {
    Detector det = small_detector();
    obs::Registry reg;
    ServeConfig cfg;
    cfg.queue_capacity = 16;
    cfg.metrics = &reg;
    Engine engine(det, cfg);
    std::vector<std::future<DetectResult>> futures;
    for (int i = 0; i < 5; ++i) futures.push_back(engine.submit(random_image(i)));
    engine.shutdown(/*drain=*/false);  // never started: all five still queued
    for (auto& f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
        EXPECT_THROW((void)f.get(), RejectedError);
    }
    // Accepted, then discarded: neither completed, failed nor rejected.
    EXPECT_EQ(engine.submitted(), 5u);
    EXPECT_EQ(engine.discarded(), 5u);
    EXPECT_EQ(engine.completed() + engine.failed() + engine.rejected(), 0u);
    EXPECT_EQ(reg.counter("serve.discarded"), 5.0);
    EXPECT_EQ(reg.counter("serve.rejected"), 0.0);
}

TEST(Engine, StartedNonDrainingShutdownAccountsForEveryRequest) {
    // Requests already past preprocess complete and queued ones are
    // discarded; which is which depends on timing, the sum does not.
    Detector det = small_detector();
    obs::Registry reg;
    ServeConfig cfg;
    cfg.max_batch = 2;
    cfg.queue_capacity = 32;
    cfg.metrics = &reg;
    Engine engine(det, cfg);
    engine.start();
    std::vector<std::future<DetectResult>> futures;
    for (int i = 0; i < 12; ++i) futures.push_back(engine.submit(random_image(200 + i)));
    engine.shutdown(/*drain=*/false);
    std::uint64_t completed = 0, discarded = 0;
    for (auto& f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
        try {
            EXPECT_GE(f.get().box.w, 0.0f);
            ++completed;
        } catch (const RejectedError&) {
            ++discarded;
        }
    }
    EXPECT_EQ(engine.submitted(), 12u);
    EXPECT_EQ(engine.completed(), completed);
    EXPECT_EQ(engine.discarded(), discarded);
    EXPECT_EQ(engine.failed(), 0u);
    EXPECT_EQ(engine.submitted(), engine.completed() + engine.failed() + engine.discarded());
    EXPECT_EQ(engine.rejected(), 0u);
    EXPECT_EQ(reg.counter("serve.discarded"), static_cast<double>(discarded));
    EXPECT_EQ(reg.counter("serve.completed"), static_cast<double>(completed));
}

TEST(Engine, NonDrainingShutdownRacingBlockedSubmitsLosesNothing) {
    // Four submitters block on a request queue of two while the engine
    // serves; shutdown(false) lands after a different number of results each
    // round.  Each submit() throws RejectedError or returns a future that is
    // ready once shutdown() has returned, and once no submit() is in flight
    // the counters account for every attempt.
    constexpr int kSubmitters = 4;
    constexpr int kPerSubmitter = 5;
    constexpr std::uint64_t kAttempts = kSubmitters * kPerSubmitter;
    Detector det = small_detector();
    for (const std::uint64_t shutdown_after : {0, 1, 3, 7, 12, 20}) {
        ServeConfig cfg;
        cfg.max_batch = 2;
        cfg.queue_capacity = 2;
        Engine engine(det, cfg);
        engine.start();
        std::vector<std::vector<std::future<DetectResult>>> futures(kSubmitters);
        std::vector<std::uint64_t> refused(kSubmitters, 0);
        std::vector<std::thread> submitters;
        for (int t = 0; t < kSubmitters; ++t)
            submitters.emplace_back([&, t] {
                for (int i = 0; i < kPerSubmitter; ++i) {
                    try {
                        futures[t].push_back(
                            engine.submit(random_image(300 + t * kPerSubmitter + i)));
                    } catch (const RejectedError&) {
                        ++refused[t];
                    }
                }
            });
        while (engine.completed() + engine.failed() < shutdown_after) std::this_thread::yield();
        engine.shutdown(/*drain=*/false);
        for (std::thread& t : submitters) t.join();

        std::uint64_t handed_out = 0, completed = 0, discarded = 0, rejected = 0;
        for (int t = 0; t < kSubmitters; ++t) {
            rejected += refused[t];
            for (std::future<DetectResult>& f : futures[t]) {
                ++handed_out;
                ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
                    << "shutdown after " << shutdown_after;
                try {
                    EXPECT_GE(f.get().box.w, 0.0f);
                    ++completed;
                } catch (const RejectedError&) {
                    ++discarded;
                }
            }
        }
        EXPECT_EQ(handed_out + rejected, kAttempts) << "shutdown after " << shutdown_after;
        EXPECT_EQ(engine.submitted(), handed_out);
        EXPECT_EQ(engine.rejected(), rejected);
        EXPECT_EQ(engine.completed(), completed);
        EXPECT_EQ(engine.discarded(), discarded);
        EXPECT_EQ(engine.failed(), 0u);
        EXPECT_EQ(engine.submitted(), engine.completed() + engine.failed() + engine.discarded());
        EXPECT_GE(completed, shutdown_after);
    }
}

TEST(Engine, BatchedResultsBitwiseEqualSingleDetectAtAnyThreadCount) {
    ThreadGuard guard;
    constexpr int kImages = 6;

    // Reference: single-image detect() at 1 thread.
    std::vector<detect::BBox> reference;
    {
        core::ThreadPool::set_global_threads(1);
        Detector det = small_detector(42);
        for (int i = 0; i < kImages; ++i)
            reference.push_back(det.detect(random_image(500 + i)));
    }

    for (int threads : {1, 3}) {
        core::ThreadPool::set_global_threads(threads);
        Detector det = small_detector(42);  // same seed -> same weights

        // detect_batch on the full batch.
        Tensor batch({kImages, 3, 32, 64});
        for (int i = 0; i < kImages; ++i) {
            const Tensor img = random_image(500 + i);
            std::copy_n(img.data(), img.size(), batch.plane(i, 0));
        }
        const std::vector<detect::BBox> batched = det.detect_batch(batch);
        ASSERT_EQ(batched.size(), reference.size());
        for (int i = 0; i < kImages; ++i) {
            EXPECT_EQ(batched[i].cx, reference[i].cx) << "threads=" << threads << " i=" << i;
            EXPECT_EQ(batched[i].cy, reference[i].cy);
            EXPECT_EQ(batched[i].w, reference[i].w);
            EXPECT_EQ(batched[i].h, reference[i].h);
        }

        // The async engine with dynamic batching must agree bitwise too,
        // whatever batches pop_batch happens to form.
        ServeConfig cfg;
        cfg.max_batch = 4;
        cfg.max_delay_ms = 20.0;
        Engine engine(det, cfg);
        engine.start();
        std::vector<std::future<DetectResult>> futures;
        for (int i = 0; i < kImages; ++i)
            futures.push_back(engine.submit(random_image(500 + i)));
        for (int i = 0; i < kImages; ++i) {
            const DetectResult r = futures[static_cast<std::size_t>(i)].get();
            EXPECT_EQ(r.box.cx, reference[i].cx) << "threads=" << threads << " i=" << i;
            EXPECT_EQ(r.box.cy, reference[i].cy);
            EXPECT_EQ(r.box.w, reference[i].w);
            EXPECT_EQ(r.box.h, reference[i].h);
        }
        engine.shutdown();
    }
}

TEST(Engine, PreprocessResizesToModelInput) {
    Detector det = small_detector();
    ServeConfig cfg;
    cfg.target_h = 32;
    cfg.target_w = 64;
    cfg.max_batch = 2;
    Engine engine(det, cfg);
    engine.start();
    // Submit at 2x the model resolution: preprocess must resize.
    auto fut = engine.submit(random_image(9, 64, 128));
    const DetectResult r = fut.get();
    EXPECT_GE(r.preprocess_ms, 0.0);
    EXPECT_GE(r.box.w, 0.0f);
    engine.shutdown();
}

TEST(Engine, SubmitRefusesEmptyAndNonFiniteImages) {
    // With a target size set, an empty image would reach the resize and a
    // non-finite pixel would come back as a plausible box: submit refuses
    // both, like a wrong n or c, before anything is queued or counted.
    Detector det = small_detector();
    ServeConfig cfg;
    cfg.target_h = 32;
    cfg.target_w = 64;
    Engine engine(det, cfg);
    engine.start();
    EXPECT_THROW((void)engine.submit(Tensor({1, 3, 0, 0})), std::invalid_argument);
    EXPECT_THROW((void)engine.submit(Tensor({1, 3, 0, 64})), std::invalid_argument);
    EXPECT_THROW((void)engine.submit(Tensor({1, 3, 32, 0})), std::invalid_argument);
    const float inf = std::numeric_limits<float>::infinity();
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(), inf, -inf}) {
        Tensor img = random_image(61);
        img[img.size() / 2] = bad;
        EXPECT_THROW((void)engine.submit(std::move(img)), std::invalid_argument) << bad;
    }
    EXPECT_EQ(engine.submitted(), 0u);
    EXPECT_EQ(engine.rejected(), 0u);
    EXPECT_GE(engine.submit(random_image(62)).get().box.w, 0.0f);  // still serving
    engine.shutdown(true);
    EXPECT_EQ(engine.completed(), 1u);
    EXPECT_EQ(engine.failed(), 0u);
}

TEST(Engine, MetricsAndTraceCoverThePipeline) {
    obs::Registry reg;
    obs::TraceSession trace;
    Detector det = small_detector();
    ServeConfig cfg;
    cfg.max_batch = 3;
    cfg.max_delay_ms = 5.0;
    cfg.metrics = &reg;
    {
        obs::TraceGuard tg(trace);
        Engine engine(det, cfg);
        engine.start();
        std::vector<std::future<DetectResult>> futures;
        for (int i = 0; i < 7; ++i) futures.push_back(engine.submit(random_image(i)));
        for (auto& f : futures) (void)f.get();
        engine.shutdown();
    }
    EXPECT_EQ(reg.counter("serve.requests"), 7.0);
    EXPECT_EQ(reg.counter("serve.completed"), 7.0);
    const obs::HistogramSnapshot total = reg.histogram("serve.latency.total_ms");
    EXPECT_EQ(total.count, 7u);
    EXPECT_GT(total.sum, 0.0);
    // Percentile gauges are published on shutdown and must be ordered.
    const double p50 = reg.gauge("serve.latency.total_ms.p50");
    const double p95 = reg.gauge("serve.latency.total_ms.p95");
    const double p99 = reg.gauge("serve.latency.total_ms.p99");
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    const obs::HistogramSnapshot sizes = reg.histogram("serve.batch.size");
    EXPECT_EQ(sizes.count, reg.counter("serve.batches"));
    // Replica precision gauge: this detector serves the float path.
    EXPECT_EQ(reg.gauge("serve.precision_int8"), 0.0);
    // Every pipeline stage shows up in the Chrome trace.
    int pre = 0, infer = 0, post = 0;
    for (const auto& ev : trace.events()) {
        if (ev.name == "serve/preprocess") ++pre;
        if (ev.name == "serve/infer") ++infer;
        if (ev.name == "serve/postprocess") ++post;
    }
    EXPECT_EQ(pre, 7);
    EXPECT_GE(infer, 3);  // 7 requests at max_batch 3 -> >= 3 batches
    EXPECT_EQ(infer, post);
}

void expect_same_box(const detect::BBox& got, const detect::BBox& want) {
    EXPECT_EQ(got.cx, want.cx);
    EXPECT_EQ(got.cy, want.cy);
    EXPECT_EQ(got.w, want.w);
    EXPECT_EQ(got.h, want.h);
}

TEST(Engine, InferenceFaultFailsOnlyItsRequest) {
    // int8 SkyNet-C x0.25 refuses a 6x6 image (its maps collapse) by
    // throwing on the infer thread; the engine must survive it.
    Rng rng(91);
    Detector det({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    (void)det.quantize(quant::QuantConfig{});
    const Tensor good = random_image(92);
    const detect::BBox want = det.detect(good);
    obs::Registry reg;
    ServeConfig cfg;  // target 0: images pass through at their own size
    cfg.metrics = &reg;
    Engine engine(det, cfg);
    std::future<DetectResult> bad = engine.submit(random_image(93, 6, 6));
    std::future<DetectResult> ok = engine.submit(good);
    engine.start();
    try {
        (void)bad.get();
        ADD_FAILURE() << "a collapsing image must fail its request";
    } catch (const InferenceError& e) {
        EXPECT_NE(std::string(e.what()).find("degenerate shape"), std::string::npos)
            << e.what();
        EXPECT_THROW(std::rethrow_exception(e.cause()), std::invalid_argument);
    }
    expect_same_box(ok.get().box, want);
    engine.shutdown(true);
    EXPECT_EQ(engine.failed(), 1u);
    EXPECT_EQ(engine.submitted(), engine.completed() + engine.failed());
    EXPECT_EQ(reg.counter("serve.failed"), 1.0);
}

TEST(Engine, FailingBatchIsRerunOneImageAtATime) {
    // Strict int8 throws on an input outside the declared range, so one bad
    // image fails its whole batch's forward; re-run alone, the good members
    // get exactly Detector::detect's boxes.
    Rng rng(94);
    Detector det({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    (void)det.quantize(quant::QuantConfig{}.with_execution(quant::QExecution::kInt8));
    const Tensor good1 = random_image(95), good2 = random_image(96);
    Tensor out_of_range = random_image(97);
    out_of_range.fill(5.0f);
    const detect::BBox want1 = det.detect(good1), want2 = det.detect(good2);
    ServeConfig cfg;
    cfg.max_batch = 4;
    cfg.max_delay_ms = 200.0;
    Engine engine(det, cfg);
    std::future<DetectResult> f1 = engine.submit(good1);
    std::future<DetectResult> fb = engine.submit(out_of_range);
    std::future<DetectResult> f2 = engine.submit(good2);
    engine.start();
    EXPECT_THROW((void)fb.get(), InferenceError);
    expect_same_box(f1.get().box, want1);
    expect_same_box(f2.get().box, want2);
    engine.shutdown(true);
    EXPECT_EQ(engine.completed(), 2u);
    EXPECT_EQ(engine.failed(), 1u);
}

// ------------------------------------------------------------- detector ---

TEST(Detector, FoldBnPreservesDetection) {
    Rng rng(5);
    Detector det({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.2f}, rng);
    // Warm BN running stats so folding is non-trivial.
    det.net().set_training(true);
    Rng warm(7);
    for (int i = 0; i < 3; ++i) {
        Tensor x({2, 3, 32, 64});
        x.randn(warm, 0.3f, 0.8f);
        (void)det.net().forward(x);
    }
    const Tensor img = random_image(21);
    const detect::BBox before = det.detect(img);
    EXPECT_EQ(det.stage(), DetectorStage::kFloat);
    EXPECT_GT(det.fold_bn(), 0);
    EXPECT_EQ(det.stage(), DetectorStage::kFolded);
    EXPECT_EQ(det.fold_bn(), 0);  // idempotent
    const detect::BBox after = det.detect(img);
    EXPECT_NEAR(before.cx, after.cx, 1e-3f);
    EXPECT_NEAR(before.cy, after.cy, 1e-3f);
    EXPECT_NEAR(before.w, after.w, 1e-3f);
    EXPECT_NEAR(before.h, after.h, 1e-3f);
}

TEST(Detector, QuantizedPathRunsIntegerEngine) {
    Rng rng(6);
    Detector det({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.15f}, rng);
    const Tensor img = random_image(33);
    const detect::BBox float_box = det.detect(img);
    EXPECT_EQ(det.precision(), Precision::kFp32);
    const quant::QuantReport qrep = det.quantize(
        quant::QuantConfig{}.with_bits(16, 16).with_fm_abs_max(8.0f));
    EXPECT_EQ(det.stage(), DetectorStage::kQuantized);
    EXPECT_EQ(det.precision(), Precision::kInt8);
    EXPECT_GT(qrep.weight_bytes, 0);
    const detect::BBox q_box = det.detect(img);
    EXPECT_NEAR(float_box.cx, q_box.cx, 0.05f);
    EXPECT_NEAR(float_box.cy, q_box.cy, 0.05f);
    EXPECT_THROW(det.quantize(quant::QuantConfig{}.with_bits(8, 8)),
                 std::logic_error);
}

TEST(Engine, PrecisionGaugeDistinguishesQuantizedReplicas) {
    obs::Registry reg;
    Detector det = small_detector(17);
    (void)det.quantize(quant::QuantConfig{}.with_bits(9, 11));
    ServeConfig cfg;
    cfg.metrics = &reg;
    Engine engine(det, cfg);  // gauge is published at construction
    EXPECT_EQ(reg.gauge("serve.precision_int8"), 1.0);
    engine.start();
    (void)engine.submit(random_image(3)).get();
    engine.shutdown();
}

TEST(Engine, ReferenceFallbackGaugeCountsOutOfRangeInt8Passes) {
    // Non-strict int8: an image outside the declared [0, 1] input range runs
    // its pass on the scalar reference path (bit-true, slower), and the
    // gauge published after each int8 batch counts those passes.
    obs::Registry reg;
    Detector det = small_detector(18);
    (void)det.quantize(quant::QuantConfig{}.with_execution(quant::QExecution::kAuto));
    ServeConfig cfg;
    cfg.metrics = &reg;
    Engine engine(det, cfg);
    engine.start();
    (void)engine.submit(random_image(4)).get();
    (void)engine.submit(random_image(5)).get();
    bool published = false;
    for (const auto& [name, value] : reg.snapshot().gauges)
        if (name == "quant.reference_fallbacks") {
            published = true;
            EXPECT_EQ(value, 0.0);
        }
    EXPECT_TRUE(published) << "no gauge after two in-range int8 batches";
    Tensor wild({1, 3, 32, 64});
    Rng rng(6);
    wild.rand_uniform(rng, -2.0f, 2.0f);
    (void)engine.submit(wild).get();
    EXPECT_EQ(reg.gauge("quant.reference_fallbacks"), 1.0);
    engine.shutdown();
}

TEST(Engine, QuantizedReplicaServesFromItsPlannedArena) {
    // An int8 replica runs out of QEngine's planned arena.  quantize() plans
    // one 160x320 image; batches of three and four 96x192 frames need more,
    // so the first pass grows the arena and the second, at the same batch
    // sizes, must not.  Every run's measured activation peak is its plan's.
    // max_batch equals the frames sent at once, so each batch closes full
    // instead of on the delay.
    Detector det = small_detector(19);
    (void)det.quantize(quant::QuantConfig{});
    const quant::QEngine* q = det.qengine();
    ASSERT_NE(q, nullptr);
    std::int64_t first_pass_allocs = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (const int batch : {1, 3, 2, 4}) {
            ServeConfig cfg;
            cfg.max_batch = batch;
            cfg.max_delay_ms = 1000.0;
            Engine engine(det, cfg);
            engine.start();
            std::vector<std::future<DetectResult>> futures;
            for (int i = 0; i < batch; ++i)
                futures.push_back(engine.submit(random_image(400 + i, 96, 192)));
            for (std::future<DetectResult>& f : futures) EXPECT_EQ(f.get().batch_size, batch);
            engine.shutdown();
            EXPECT_GT(q->measured_peak_bytes(), 0);
            EXPECT_EQ(q->measured_peak_bytes(), q->report().activation_plan.peak_bytes)
                << "pass " << pass << ", batch " << batch;
        }
        if (pass == 0) first_pass_allocs = q->alloc_events();
    }
    EXPECT_GT(first_pass_allocs, 0);
    EXPECT_EQ(q->alloc_events(), first_pass_allocs);
}

TEST(Detector, RejectsMalformedInputs) {
    Detector det = small_detector();
    EXPECT_THROW((void)det.detect(Tensor({2, 3, 32, 64})), std::invalid_argument);
    EXPECT_THROW((void)det.forward(Tensor({1, 4, 32, 64})), std::invalid_argument);
}

TEST(Detector, DetectNeverIndexesAnEmptyDecode) {
    // Regression: detect() used to do decode(forward(image))[0] with no
    // emptiness check — an empty decode result was undefined behaviour
    // instead of an error.  A valid 1-image input must yield exactly one box
    // through the guarded path, and batch decode of n images must yield n.
    Detector det = small_detector();
    const Tensor img = random_image(44);
    detect::BBox box{};
    ASSERT_NO_THROW(box = det.detect(img));
    EXPECT_GE(box.w, 0.0f);
    EXPECT_GE(box.h, 0.0f);
    const auto batch = det.detect_batch(random_image(45));
    EXPECT_EQ(batch.size(), 1u);
    // DetectorError is a distinct, catchable type for inference-time faults.
    static_assert(std::is_base_of_v<std::runtime_error, DetectorError>);
}

}  // namespace
}  // namespace sky::serve
