// Bounded MPMC queue — the one queue between the serving engine's stages.
//
// A mutex + two condition variables over a deque: deliberately boring, since
// every item that passes through it is a whole inference request (the
// per-item cost is microseconds of queueing against milliseconds of DNN
// work).  What matters for serving is the *policy* surface:
//
//  - `offer` blocks while the queue is at capacity (the kBlock overflow
//    policy: producers feel backpressure as latency) and hands the item
//    back once the queue is closed;
//  - `try_push` never blocks (the kReject policy: producers shed load and
//    the caller turns the failure into a rejection error);
//  - `pop` takes one item, `pop_batch` a batch: the dynamic batcher in
//    front of the DNN stage (§6.2/§6.3);
//  - `close` initiates graceful shutdown: producers are refused from then
//    on, but consumers drain everything already accepted — `pop` and
//    `pop_batch` only return false once the queue is both closed and
//    empty, and `pop_batch` stops waiting on the delay, so no accepted
//    request is ever dropped or held back by the queue itself.
//
// The locking discipline is compiler-verified: q_/closed_ carry
// SKY_GUARDED_BY(mu_), so any access outside the lock is a Clang
// -Wthread-safety error, not a latent race (see core/annotations.hpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "core/mutex.hpp"

namespace sky::serve {

template <typename T>
class BoundedQueue {
public:
    explicit BoundedQueue(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

    BoundedQueue(const BoundedQueue&) = delete;
    BoundedQueue& operator=(const BoundedQueue&) = delete;

    /// Non-blocking push; false when full or closed.
    bool try_push(T&& item) SKY_EXCLUDES(mu_) {
        core::MutexLock lk(mu_);
        if (closed_ || q_.size() >= capacity_) return false;
        q_.push_back(std::move(item));
        not_empty_.notify_one();
        return true;
    }

    /// Blocking push; waits for space.  Hands the item BACK on failure
    /// instead of leaving the caller with a formally moved-from object:
    /// returns nullopt when accepted, or the item itself when the queue is
    /// closed — for producers that must still fulfil the item's promise.
    [[nodiscard]] std::optional<T> offer(T&& item) SKY_EXCLUDES(mu_) {
        core::MutexLock lk(mu_);
        not_full_.wait(mu_, [&] {
            mu_.assert_held();
            return q_.size() < capacity_ || closed_;
        });
        if (closed_) return std::optional<T>(std::move(item));
        q_.push_back(std::move(item));
        not_empty_.notify_one();
        return std::nullopt;
    }

    /// Blocking pop.  Returns false only when the queue is closed AND fully
    /// drained; until then every accepted item is delivered exactly once.
    bool pop(T& out) SKY_EXCLUDES(mu_) {
        core::MutexLock lk(mu_);
        not_empty_.wait(mu_, [&] {
            mu_.assert_held();
            return !q_.empty() || closed_;
        });
        if (q_.empty()) return false;
        out = std::move(q_.front());
        q_.pop_front();
        not_full_.notify_one();
        return true;
    }

    /// Coalesce the next batch into `out` (cleared first): block for the
    /// first item, then collect more until EITHER `out` holds `max_batch`
    /// items OR `max_delay_ms` has passed since the first, whichever comes
    /// first (no wait after close(); a NaN or non-positive delay waits 0).
    /// `joins(head, candidate)` says whether `candidate` may ride with the
    /// batch whose first item is `head`; collection stops at the first
    /// queued item that may not, which stays queued and heads the next
    /// batch.  It runs under the lock, so it must not touch the queue.
    /// Returns false only when the queue is closed and drained.
    template <typename Joins>
    bool pop_batch(int max_batch, double max_delay_ms, std::vector<T>& out, const Joins& joins)
        SKY_EXCLUDES(mu_) {
        out.clear();
        if (max_batch < 1) max_batch = 1;
        core::MutexLock lk(mu_);
        not_empty_.wait(mu_, [&] {
            mu_.assert_held();
            return !q_.empty() || closed_;
        });
        if (q_.empty()) return false;

        const Clock::time_point deadline = deadline_after(Clock::now(), max_delay_ms);
        out.push_back(std::move(q_.front()));
        q_.pop_front();
        not_full_.notify_one();

        while (static_cast<int>(out.size()) < max_batch) {
            if (q_.empty()) {
                if (closed_) break;  // drain mode: never wait on the delay
                if (!not_empty_.wait_until(mu_, deadline, [&] {
                        mu_.assert_held();
                        return !q_.empty() || closed_;
                    }))
                    break;  // max_delay elapsed with nothing more pending
                if (q_.empty()) break;  // woken by close()
            }
            if (!joins(out.front(), q_.front()))
                break;  // batch boundary: leave it to head the next batch
            out.push_back(std::move(q_.front()));
            q_.pop_front();
            not_full_.notify_one();
        }
        return true;
    }

    /// Refuse new items; wake all waiters.  Idempotent.
    void close() SKY_EXCLUDES(mu_) {
        core::MutexLock lk(mu_);
        closed_ = true;
        not_empty_.notify_all();
        not_full_.notify_all();
    }

    [[nodiscard]] std::size_t size() const SKY_EXCLUDES(mu_) {
        core::MutexLock lk(mu_);
        return q_.size();
    }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] bool closed() const SKY_EXCLUDES(mu_) {
        core::MutexLock lk(mu_);
        return closed_;
    }

private:
    using Clock = std::chrono::steady_clock;

    /// `now + max_delay_ms`, saturated to the clock's range: converting a
    /// NaN, infinite or centuries-long double delay to the clock's integer
    /// ticks, or adding it past time_point::max(), is undefined behaviour.
    static Clock::time_point deadline_after(Clock::time_point now, double max_delay_ms) {
        if (!(max_delay_ms > 0.0)) return now;
        const double room_ms =
            std::chrono::duration<double, std::milli>(Clock::time_point::max() - now).count();
        // 1 ms of slack absorbs the double rounding of room_ms and the cast.
        if (max_delay_ms >= room_ms - 1.0) return Clock::time_point::max();
        return now + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(max_delay_ms));
    }

    const std::size_t capacity_;
    mutable core::Mutex mu_;   // guards q_/closed_ + both cv waits; leaf lock,
                               // held across pop_batch's joins() only, never
                               // while fulfilling promises
    core::CondVar not_empty_;  // signalled by offer/try_push/close;
                               // predicate: !q_.empty() || closed_
    core::CondVar not_full_;   // signalled by pop/pop_batch/close;
                               // predicate: q_.size() < capacity_ || closed_
    std::deque<T> q_ SKY_GUARDED_BY(mu_);
    bool closed_ SKY_GUARDED_BY(mu_) = false;
};

}  // namespace sky::serve
