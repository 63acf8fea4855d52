// Shared kernel-execution thread pool for the sky::nn hot loops.
//
// A deliberately simple, work-stealing-free pool: one parallel_for at a time,
// the caller participates, and index ranges are handed out as fixed-size
// chunks from an atomic cursor.  Every parallel kernel in this repo writes
// disjoint output tiles per index and performs any floating-point reduction
// sequentially *within* a single body invocation, so results are bitwise
// independent of the thread count — `SKYNET_THREADS=1` and `=16` produce the
// same tensors (see docs/KERNELS.md for the determinism contract).
//
// Thread count resolution, in priority order: explicit constructor argument /
// set_global_threads(), the SKYNET_THREADS environment variable, then
// std::thread::hardware_concurrency().  With one thread parallel_for runs the
// body inline on the caller with zero synchronisation — exactly the seed
// behaviour.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/annotations.hpp"
#include "core/mutex.hpp"

namespace sky::core {

class ThreadPool {
public:
    /// `threads` <= 0 resolves via env_threads().
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Worker count including the calling thread (>= 1).
    [[nodiscard]] int size() const { return threads_; }

    /// Run body(b, e) over disjoint sub-ranges covering [begin, end).  `grain`
    /// is the minimum number of indices per chunk; ranges at or below it run
    /// inline.  Nested calls from inside a pool body also run inline, so
    /// kernels may compose without deadlock.  If a body call throws, the
    /// chunks not yet started are skipped, and once no thread is inside the
    /// body any more the first exception is rethrown to the caller.
    void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                      const std::function<void(std::int64_t, std::int64_t)>& body)
        SKY_EXCLUDES(submit_mu_, mu_);

    /// Process-wide pool used by all sky::nn kernels (created on first use).
    static ThreadPool& global();
    /// Replace the global pool with an `n`-thread one (<= 0 re-reads the
    /// environment).  Must not be called while kernels are running.
    static void set_global_threads(int threads);
    /// SKYNET_THREADS env var if set and positive, else hardware concurrency.
    static int env_threads();

private:
    // One dispatched parallel_for.  Each job owns its cursor/progress state:
    // a worker that wakes late and still holds a previous (finished) job sees
    // that job's exhausted cursor and exits without ever touching the body,
    // so recycled pool state can never route it into the wrong dispatch.
    struct Job {
        const std::function<void(std::int64_t, std::int64_t)>* body = nullptr;
        std::int64_t end = 0;
        std::int64_t chunk = 1;
        std::int64_t total = 0;                   // indices in [begin, end)
        std::atomic<std::int64_t> cursor{0};      // next index to hand out
        std::atomic<std::int64_t> completed{0};   // indices finished
        std::atomic<bool> failed{false};          // a body call has thrown
        // Written once, by the chunk that set `failed`, before it advances
        // `completed`; read by the caller after `completed` covers the range.
        std::exception_ptr error;
    };

    void worker_loop();
    void run_chunks(Job& job);

    int threads_ = 1;
    std::vector<std::thread> workers_;

    // Lock order: submit_mu_ strictly before mu_ (parallel_for holds the
    // submit lock across the whole dispatch and takes mu_ inside it).
    Mutex submit_mu_;  // serialises external parallel_for calls
    Mutex mu_ SKY_ACQUIRED_AFTER(submit_mu_);  // guards job_/job_id_/stop_ + cv waits
    CondVar work_cv_;  // signalled on new job / stop; predicate: stop_ || job_id_ changed
    CondVar done_cv_;  // signalled when a job's last chunk finishes
    bool stop_ SKY_GUARDED_BY(mu_) = false;

    std::uint64_t job_id_ SKY_GUARDED_BY(mu_) = 0;  // bumped per dispatch (worker wake key)
    std::shared_ptr<Job> job_ SKY_GUARDED_BY(mu_);  // current job; workers copy under mu_
};

/// parallel_for on the global pool — the form the layer kernels use.
inline void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                         const std::function<void(std::int64_t, std::int64_t)>& body) {
    ThreadPool::global().parallel_for(begin, end, grain, body);
}

}  // namespace sky::core
