#include "core/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>

namespace sky::core {
namespace {

// Set while a thread is executing inside a pool body; nested parallel_for
// calls from such a thread run inline instead of re-entering the pool.
thread_local bool tls_in_pool_body = false;

Mutex& global_mu() {
    // Guards the global pool slot; taken before any ThreadPool-internal
    // lock (global() may construct a pool while holding it).
    static Mutex mu;
    return mu;
}

std::unique_ptr<ThreadPool>& global_slot() {
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

}  // namespace

int ThreadPool::env_threads() {
    if (const char* env = std::getenv("SKYNET_THREADS")) {
        char* end = nullptr;
        const long n = std::strtol(env, &end, 10);
        if (end != env && n > 0 && n <= 1 << 16) return static_cast<int>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) : threads_(threads > 0 ? threads : env_threads()) {
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int i = 1; i < threads_; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        MutexLock lk(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
    tls_in_pool_body = true;  // nested parallel_for from kernels runs inline
    std::uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            MutexLock lk(mu_);
            work_cv_.wait(mu_, [&] {
                mu_.assert_held();
                return stop_ || job_id_ != seen;
            });
            if (stop_) return;
            seen = job_id_;
            job = job_;
        }
        if (job) run_chunks(*job);
    }
}

void ThreadPool::run_chunks(Job& job) {
    // The cursor belongs to this Job object, so a worker holding a finished
    // job sees an exhausted cursor and returns without calling the body.  The
    // body reference is safe for the whole call: parallel_for cannot return
    // (and the caller's function object cannot die) until `completed` covers
    // the range, and `completed` is only advanced after a body call finishes,
    // whether it returned or threw.
    for (;;) {
        const std::int64_t b = job.cursor.fetch_add(job.chunk, std::memory_order_relaxed);
        if (b >= job.end) return;
        const std::int64_t e = std::min(job.end, b + job.chunk);
        if (!job.failed.load()) {
            try {
                (*job.body)(b, e);
            } catch (...) {
                if (!job.failed.exchange(true))
                    job.error = std::current_exception();
            }
        }
        if (job.completed.fetch_add(e - b, std::memory_order_acq_rel) + (e - b) ==
            job.total) {
            MutexLock lk(mu_);
            done_cv_.notify_all();
        }
    }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                              const std::function<void(std::int64_t, std::int64_t)>& body) {
    const std::int64_t range = end - begin;
    if (range <= 0) return;
    grain = std::max<std::int64_t>(1, grain);
    if (threads_ <= 1 || tls_in_pool_body || range <= grain) {
        body(begin, end);
        return;
    }
    MutexLock submit(submit_mu_);
    auto job = std::make_shared<Job>();
    job->body = &body;
    job->end = end;
    // ~4 chunks per thread for load balance; never below the grain.
    job->chunk = std::max<std::int64_t>(
        grain, (range + static_cast<std::int64_t>(threads_) * 4 - 1) /
                   (static_cast<std::int64_t>(threads_) * 4));
    job->total = range;
    job->cursor.store(begin, std::memory_order_relaxed);
    {
        MutexLock lk(mu_);
        job_ = job;
        ++job_id_;
    }
    work_cv_.notify_all();
    const bool was_inside = tls_in_pool_body;
    tls_in_pool_body = true;  // the caller's own chunks must not re-dispatch
    run_chunks(*job);
    tls_in_pool_body = was_inside;
    MutexLock lk(mu_);
    done_cv_.wait(mu_, [&] {
        return job->completed.load(std::memory_order_acquire) == range;
    });
    if (job_ == job) job_.reset();  // drop the pool's reference promptly
    if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& ThreadPool::global() {
    MutexLock lk(global_mu());
    auto& slot = global_slot();
    if (!slot) slot = std::make_unique<ThreadPool>(env_threads());
    return *slot;
}

void ThreadPool::set_global_threads(int threads) {
    MutexLock lk(global_mu());
    global_slot() = std::make_unique<ThreadPool>(threads);
}

}  // namespace sky::core
