#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "data/augment.hpp"
#include "obs/trace.hpp"

namespace sky::serve {
namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Geometric latency buckets 0.01 ms .. ~10 s (x1.5 steps): fine enough for
/// meaningful p50/p95/p99 interpolation across sub-ms decode times and
/// multi-ms batch inference.
std::vector<double> latency_bounds() {
    std::vector<double> b;
    for (double v = 0.01; v < 1.2e4; v *= 1.5) b.push_back(v);
    return b;
}

std::string describe(const std::exception_ptr& cause) {
    try {
        std::rethrow_exception(cause);
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

std::vector<double> depth_bounds(std::size_t capacity) {
    std::vector<double> b{0.0};
    for (std::size_t d = 1; d <= capacity; d *= 2) {
        b.push_back(static_cast<double>(d));
        if (d > capacity / 2) break;  // the next d would pass capacity or wrap to 0
    }
    return b;
}

}  // namespace

Engine::Engine(Detector& detector, ServeConfig cfg)
    : detector_(detector),
      cfg_(cfg),
      requests_(cfg.queue_capacity),
      batch_q_(cfg.queue_capacity),
      post_q_(std::max<std::size_t>(2, cfg.queue_capacity / 4)) {
    if (cfg_.max_batch < 1) throw std::invalid_argument("ServeConfig: max_batch >= 1");
    if (!std::isfinite(cfg_.max_delay_ms))
        throw std::invalid_argument("ServeConfig: max_delay_ms must be finite");
    if (cfg_.max_delay_ms < 0.0) cfg_.max_delay_ms = 0.0;
    if (obs::Registry* reg = cfg_.metrics) {
        for (const char* h :
             {"serve.latency.queue_ms", "serve.latency.preprocess_ms",
              "serve.latency.batch_wait_ms", "serve.latency.infer_ms",
              "serve.latency.postprocess_ms", "serve.latency.total_ms"})
            reg->define_histogram(h, latency_bounds());
        reg->define_histogram("serve.queue.depth", depth_bounds(cfg_.queue_capacity));
        std::vector<double> batch_buckets;
        for (int b = 1; b <= cfg_.max_batch; ++b)
            batch_buckets.push_back(static_cast<double>(b));
        reg->define_histogram("serve.batch.size", std::move(batch_buckets));
        // Replica precision gauge: 1 when this engine serves the quantized
        // int8 datapath, 0 for fp32 — lets a fleet dashboard split latency
        // by precision without scraping logs.
        reg->set("serve.precision_int8",
                 detector_.precision() == Precision::kInt8 ? 1.0 : 0.0);
        // Static activation arena of the quantized plan: the per-replica
        // feature-map memory a capacity planner must budget (0 for fp32
        // replicas, which have no static plan).
        reg->set("serve.activation_plan_bytes",
                 static_cast<double>(detector_.activation_plan_bytes()));
        // Certified |int8 - fp32| bound of the served datapath: 0 for fp32
        // replicas (exact), -1 when quantized but uncertified (E002) — a
        // dashboard can alert on replicas serving outside their error
        // budget without re-running the analysis.
        reg->set("quant.certified_error_bound", detector_.certified_error_bound());
    }
}

Engine::~Engine() { shutdown(true); }

void Engine::start() {
    // The lifecycle lock makes the state check and the thread spawns one
    // atomic step: a concurrent shutdown() cannot observe started_ == true
    // while the worker handles below are still being constructed.
    core::MutexLock lk(lifecycle_mu_);
    if (stopped_.load()) throw std::logic_error("serve::Engine: start() after shutdown");
    if (started_.exchange(true))
        throw std::logic_error("serve::Engine: start() called twice");
    pre_worker_ = std::thread([this] { preprocess_loop(); });
    infer_worker_ = std::thread([this] { infer_loop(); });
    post_worker_ = std::thread([this] { post_loop(); });
}

std::future<DetectResult> Engine::submit(Tensor image) {
    const Shape& s = image.shape();
    if (s.n != 1 || s.c != 3 || s.h <= 0 || s.w <= 0)
        throw std::invalid_argument("serve::Engine::submit: expected one non-empty "
                                    "{1,3,h,w} image, got " +
                                    s.str());
    const float* px = image.data();
    if (!std::all_of(px, px + image.size(), [](float v) { return std::isfinite(v); }))
        throw std::invalid_argument("serve::Engine::submit: image has a non-finite pixel");
    Request r;
    r.image = std::move(image);
    r.submit_tp = Clock::now();
    std::future<DetectResult> fut = r.promise.get_future();

    const bool accepted = cfg_.overflow == OverflowPolicy::kBlock
                              ? !requests_.offer(std::move(r))  // nullopt: accepted
                              : requests_.try_push(std::move(r));
    if (!accepted) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        if (obs::Registry* reg = cfg_.metrics) reg->add("serve.rejected");
        throw RejectedError(requests_.closed()
                                ? "serve::Engine: submit after shutdown"
                                : "serve::Engine: request queue full (kReject)");
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Registry* reg = cfg_.metrics) {
        reg->add("serve.requests");
        const double depth = static_cast<double>(requests_.size());
        reg->set("serve.queue.depth", depth);
        reg->observe("serve.queue.depth", depth);
    }
    return fut;
}

void Engine::preprocess_loop() {
    Request r;
    while (requests_.pop(r)) {
        if (discard_.load(std::memory_order_relaxed)) {
            discard(r, "shut down before preprocessing");
            continue;
        }
        r.pre_start = Clock::now();
        try {
            obs::Span span("serve/preprocess", "serve");
            const Shape& s = r.image.shape();
            if (cfg_.target_h > 0 && cfg_.target_w > 0 &&
                (s.h != cfg_.target_h || s.w != cfg_.target_w)) {
                // Decimations past 2x need the anti-aliased area filter —
                // bilinear's fixed 4 taps would skip source rows entirely.
                const bool heavy_down =
                    s.h >= 2 * cfg_.target_h && s.w >= 2 * cfg_.target_w;
                r.image = heavy_down
                              ? data::resize_area(r.image, cfg_.target_h, cfg_.target_w)
                              : data::resize_bilinear(r.image, cfg_.target_h,
                                                      cfg_.target_w);
            }
        } catch (...) {
            fail(r, "preprocess", std::current_exception());
            continue;
        }
        r.pre_end = Clock::now();
        observe("serve.latency.preprocess_ms", ms_between(r.pre_start, r.pre_end));
        if (std::optional<Request> rejected = batch_q_.offer(std::move(r)))
            discard(*rejected, "batch queue closed mid-flight");
    }
}

void Engine::infer_loop() {
    // One NCHW tensor per batch: only equal image shapes ride together.
    const auto same_shape = [](const Request& head, const Request& candidate) {
        return head.image.shape() == candidate.image.shape();
    };
    std::vector<Request> items;
    while (batch_q_.pop_batch(cfg_.max_batch, cfg_.max_delay_ms, items, same_shape)) {
        try {
            infer_batch(items);
        } catch (...) {
            if (items.size() == 1) {
                fail(items[0], "inference", std::current_exception());
            } else {
                // Re-run the members alone: the good ones get bitwise the
                // results the batch would have given them.
                for (Request& r : items) {
                    std::vector<Request> one;
                    one.push_back(std::move(r));
                    try {
                        infer_batch(one);
                    } catch (...) {
                        fail(one[0], "inference", std::current_exception());
                    }
                }
            }
        }
        items.clear();  // moved-from; pop_batch re-fills it next iteration
    }
}

void Engine::infer_batch(std::vector<Request>& items) {
    InferredBatch batch;
    batch.infer_start = Clock::now();
    const Shape item_shape = items[0].image.shape();
    Tensor input({static_cast<int>(items.size()), item_shape.c, item_shape.h,
                  item_shape.w});
    for (std::size_t i = 0; i < items.size(); ++i)
        std::memcpy(input.plane(static_cast<int>(i), 0), items[i].image.data(),
                    static_cast<std::size_t>(item_shape.per_item()) * sizeof(float));
    {
        obs::Span span("serve/infer", "serve");
        batch.raw = detector_.forward(input);
    }
    batch.infer_ms = ms_between(batch.infer_start, Clock::now());
    batch.items = std::move(items);
    items.clear();
    batches_.fetch_add(1, std::memory_order_relaxed);
    observe("serve.latency.infer_ms", batch.infer_ms);
    if (obs::Registry* reg = cfg_.metrics) {
        reg->add("serve.batches");
        reg->observe("serve.batch.size", static_cast<double>(batch.items.size()));
        // int8 passes whose input left the declared range and so ran every
        // conv on the scalar reference path: bit-true, only slower.
        if (const quant::QEngine* q = detector_.qengine())
            reg->set("quant.reference_fallbacks", static_cast<double>(q->reference_fallbacks()));
    }
    if (std::optional<InferredBatch> rejected = post_q_.offer(std::move(batch)))
        for (Request& r : rejected->items) discard(r, "post queue closed mid-flight");
}

void Engine::post_loop() {
    InferredBatch batch;
    while (post_q_.pop(batch)) {
        const Clock::time_point post_start = Clock::now();
        std::vector<detect::BBox> boxes;
        try {
            obs::Span span("serve/postprocess", "serve");
            boxes = detector_.head().decode(batch.raw);
            if (boxes.size() != batch.items.size())
                throw DetectorError("serve::Engine: decoded " + std::to_string(boxes.size()) +
                                    " boxes for " + std::to_string(batch.items.size()) +
                                    " images (head map " + batch.raw.shape().str() + ")");
        } catch (...) {
            const std::exception_ptr cause = std::current_exception();
            for (Request& r : batch.items) fail(r, "postprocess", cause);
            continue;
        }
        const Clock::time_point done = Clock::now();
        const double post_ms = ms_between(post_start, done);
        observe("serve.latency.postprocess_ms", post_ms);
        for (std::size_t i = 0; i < batch.items.size(); ++i) {
            Request& r = batch.items[i];
            DetectResult res;
            res.box = boxes[i];
            res.batch_size = static_cast<int>(batch.items.size());
            res.queue_ms = ms_between(r.submit_tp, r.pre_start);
            res.preprocess_ms = ms_between(r.pre_start, r.pre_end);
            res.batch_wait_ms = ms_between(r.pre_end, batch.infer_start);
            res.infer_ms = batch.infer_ms;
            res.postprocess_ms = post_ms;
            res.total_ms = ms_between(r.submit_tp, done);
            observe("serve.latency.queue_ms", res.queue_ms);
            observe("serve.latency.batch_wait_ms", res.batch_wait_ms);
            observe("serve.latency.total_ms", res.total_ms);
            completed_.fetch_add(1, std::memory_order_relaxed);
            if (obs::Registry* reg = cfg_.metrics) reg->add("serve.completed");
            r.promise.set_value(res);
        }
    }
}

void Engine::fail(Request& r, const char* stage, const std::exception_ptr& cause) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Registry* reg = cfg_.metrics) reg->add("serve.failed");
    r.promise.set_exception(std::make_exception_ptr(InferenceError(
        std::string("serve::Engine: ") + stage + " failed: " + describe(cause), cause)));
}

void Engine::discard(Request& r, const char* why) {
    discarded_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Registry* reg = cfg_.metrics) reg->add("serve.discarded");
    r.promise.set_exception(
        std::make_exception_ptr(RejectedError(std::string("serve::Engine: ") + why)));
}

void Engine::observe(const char* name, double value) {
    if (obs::Registry* reg = cfg_.metrics) reg->observe(name, value);
}

void Engine::publish_percentiles() {
    obs::Registry* reg = cfg_.metrics;
    if (!reg) return;
    for (const char* h : {"serve.latency.total_ms", "serve.latency.infer_ms",
                          "serve.latency.queue_ms"}) {
        const obs::HistogramSnapshot snap = reg->histogram(h);
        if (snap.count == 0) continue;
        reg->set(std::string(h) + ".p50", snap.percentile(0.50));
        reg->set(std::string(h) + ".p95", snap.percentile(0.95));
        reg->set(std::string(h) + ".p99", snap.percentile(0.99));
    }
}

void Engine::shutdown(bool drain) {
    core::MutexLock lk(lifecycle_mu_);
    if (stopped_.exchange(true)) return;
    if (!drain) discard_.store(true, std::memory_order_relaxed);
    requests_.close();
    if (started_) {
        pre_worker_.join();
        batch_q_.close();
        infer_worker_.join();
        post_q_.close();
        post_worker_.join();
    } else {
        // Never started: nothing will drain the queue — fail what's in it.
        Request r;
        while (requests_.pop(r)) discard(r, "shut down before start()");
    }
    publish_percentiles();
}

}  // namespace sky::serve
