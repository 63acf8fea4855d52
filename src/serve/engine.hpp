// Batched async inference serving engine — the Fig. 10 system design
// (§6.2/§6.3) as a real multi-threaded pipeline instead of a simulation.
//
// Requests enter a bounded MPMC queue (backpressure: block or reject), a
// preprocess stage resizes them to the model input, the inference worker
// pops them from a second queue in batches (up to max_batch /
// max_delay_ms, same shape) into one NCHW tensor and runs the Detector,
// and a postprocess stage decodes boxes and fulfils the per-request
// futures.  Each stage runs on its own worker thread, and the stages are
// joined by serve::BoundedQueue, so fetch/preprocess/inference/postprocess
// overlap exactly as in the paper's pipelined schedule:
//
//   submit() -> [request queue] -> preprocess -> [batch queue] -> infer
//            -> [post queue] -> postprocess -> promise
//
// Determinism: the inference worker calls Detector::detect-equivalent code
// on whatever batch pop_batch formed; since batch forwards are bitwise
// equal to per-image forwards at any SKYNET_THREADS (see
// skynet/detector.hpp), results never depend on how requests were
// coalesced.
//
// Fault containment: a stage that throws fails only the requests it was
// working on, with a typed InferenceError, and the engine keeps serving.
// When a batch forward throws, its members are re-run one at a time — batch
// forwards equal per-image forwards bitwise, so the good members get the
// results they would have had, and only the offending request fails.
//
// Observability: with ServeConfig::metrics set, the engine records
// per-request latency histograms (queue / preprocess / batch-wait / infer /
// postprocess / total), queue-depth and batch-size histograms, and
// publishes p50/p95/p99 gauges on shutdown.  With a TraceSession installed
// (obs::TraceGuard), every stage emits "serve"-category spans whose
// per-thread lanes draw the pipeline overlap in chrome://tracing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/annotations.hpp"
#include "core/mutex.hpp"
#include "obs/registry.hpp"
#include "serve/queue.hpp"
#include "skynet/detector.hpp"

namespace sky::serve {

/// What submit() does when the request queue is at capacity.
enum class OverflowPolicy {
    kBlock,   ///< wait for space (producers feel backpressure as latency)
    kReject,  ///< fail fast: submit() throws RejectedError
};

struct ServeConfig {
    int max_batch = 8;          ///< batch coalescing limit
    double max_delay_ms = 2.0;  ///< max time to wait to fill a batch; finite
    std::size_t queue_capacity = 64;  ///< request-queue bound (backpressure)
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    /// When both are > 0, the preprocess stage bilinear-resizes every input
    /// to {target_h, target_w} (the paper's resize step); otherwise inputs
    /// pass through and only equal shapes share a batch.
    int target_h = 0;
    int target_w = 0;
    obs::Registry* metrics = nullptr;  ///< nullptr records nothing
};

/// Per-request outcome: the decoded box plus the latency breakdown of the
/// pipeline stages this request travelled through.
struct DetectResult {
    detect::BBox box;
    int batch_size = 0;          ///< size of the coalesced batch it rode in
    double queue_ms = 0.0;       ///< submit -> preprocess start
    double preprocess_ms = 0.0;
    double batch_wait_ms = 0.0;  ///< preprocess end -> batch inference start
    double infer_ms = 0.0;       ///< whole-batch forward time
    double postprocess_ms = 0.0;
    double total_ms = 0.0;       ///< submit -> result ready
};

/// Thrown by submit() for a request it refuses (rejected()), and the future
/// of an accepted request a shutdown discards (discarded()).
class RejectedError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// The future of a request whose preprocessing, inference or decoding
/// threw.  what() names the stage and the cause's message; cause() is the
/// original exception.
class InferenceError : public std::runtime_error {
public:
    InferenceError(const std::string& what, std::exception_ptr cause)
        : std::runtime_error(what), cause_(std::move(cause)) {}
    [[nodiscard]] std::exception_ptr cause() const { return cause_; }

private:
    std::exception_ptr cause_;
};

class Engine {
public:
    /// The engine borrows `detector`; it must outlive the engine and must
    /// not be used for inference elsewhere while the engine is running.
    explicit Engine(Detector& detector, ServeConfig cfg = {});
    ~Engine();

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Launch the stage workers.  submit() before start() is allowed — the
    /// requests queue up (and reject when the queue fills).
    void start() SKY_EXCLUDES(lifecycle_mu_);
    [[nodiscard]] bool running() const { return started_ && !stopped_; }

    /// Enqueue one {1,3,h,w} image; the future resolves when the request
    /// has flowed through the whole pipeline, or with InferenceError when a
    /// stage failed on it.  Throws RejectedError under kReject with a full
    /// queue, or after shutdown, and std::invalid_argument (not counted as
    /// rejected) for anything but one non-empty {1,3,h,w} image of finite
    /// pixels.
    [[nodiscard]] std::future<DetectResult> submit(Tensor image);

    /// Graceful shutdown.  With drain=true (default) every accepted request
    /// completes before the workers exit; with drain=false, or before
    /// start(), requests still waiting in the request queue fail with
    /// RejectedError (requests already past preprocess always complete).
    /// Publishes the p50/p95/p99 latency gauges.  Idempotent; concurrent
    /// callers serialise on the lifecycle lock, so when shutdown() returns
    /// every accepted future is resolved.
    void shutdown(bool drain = true) SKY_EXCLUDES(lifecycle_mu_);

    /// After shutdown(), submitted() == completed() + failed() + discarded().
    [[nodiscard]] std::uint64_t submitted() const { return submitted_.load(); }
    [[nodiscard]] std::uint64_t completed() const { return completed_.load(); }
    /// Accepted requests that ended in InferenceError.
    [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }
    /// Accepted requests a shutdown ended in RejectedError.
    [[nodiscard]] std::uint64_t discarded() const { return discarded_.load(); }
    /// Requests submit() refused with RejectedError: never accepted.
    [[nodiscard]] std::uint64_t rejected() const { return rejected_.load(); }
    [[nodiscard]] std::uint64_t batches() const { return batches_.load(); }

    [[nodiscard]] const ServeConfig& config() const { return cfg_; }

private:
    using Clock = std::chrono::steady_clock;

    struct Request {
        Tensor image;
        std::promise<DetectResult> promise;
        Clock::time_point submit_tp;
        Clock::time_point pre_start;
        Clock::time_point pre_end;
    };

    struct InferredBatch {
        std::vector<Request> items;
        Tensor raw;  ///< head map for the whole batch
        Clock::time_point infer_start;
        double infer_ms = 0.0;
    };

    void preprocess_loop();
    void infer_loop();
    /// Forward `items` as one batch and queue it for postprocessing; throws
    /// what the forward throws, with `items` left intact.
    void infer_batch(std::vector<Request>& items);
    void post_loop();
    /// Resolve `r` with an InferenceError for a fault in `stage`.
    void fail(Request& r, const char* stage, const std::exception_ptr& cause);
    /// Resolve `r`, accepted but cut off by a shutdown, with a RejectedError.
    void discard(Request& r, const char* why);
    void observe(const char* name, double value);
    void publish_percentiles();

    Detector& detector_;
    ServeConfig cfg_;

    BoundedQueue<Request> requests_;
    BoundedQueue<Request> batch_q_;
    BoundedQueue<InferredBatch> post_q_;

    // Serialises start()/shutdown() — without it a concurrent pair could
    // interleave the started_/stopped_ checks with the spawn/join below and
    // join threads that are still being constructed.  Guards
    // pre_worker_/infer_worker_/post_worker_; taken before the stage
    // queues' leaf locks (close() runs under it), never by the workers.
    core::Mutex lifecycle_mu_;
    std::thread pre_worker_ SKY_GUARDED_BY(lifecycle_mu_);
    std::thread infer_worker_ SKY_GUARDED_BY(lifecycle_mu_);
    std::thread post_worker_ SKY_GUARDED_BY(lifecycle_mu_);

    std::atomic<bool> started_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<bool> discard_{false};
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> discarded_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> batches_{0};
};

}  // namespace sky::serve
