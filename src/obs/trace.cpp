#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/json.hpp"

namespace sky::obs {
namespace {

std::atomic<TraceSession*> g_session{nullptr};

std::string num(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return buf;
}

}  // namespace

TraceSession::TraceSession() : origin_(std::chrono::steady_clock::now()) {}

int TraceSession::thread_slot_locked() {
    const std::thread::id self = std::this_thread::get_id();
    const auto it = std::find(threads_.begin(), threads_.end(), self);
    if (it != threads_.end()) return static_cast<int>(it - threads_.begin());
    threads_.push_back(self);
    return static_cast<int>(threads_.size()) - 1;
}

void TraceSession::record(std::string name, std::string cat, double ts_us, double dur_us,
                          int tid) {
    core::MutexLock lock(mu_);
    events_.push_back({std::move(name), std::move(cat), ts_us, dur_us, tid});
}

void TraceSession::record_span(const char* name, const char* cat,
                               std::chrono::steady_clock::time_point start,
                               std::chrono::steady_clock::time_point end) {
    const double ts_us =
        std::chrono::duration<double, std::micro>(start - origin_).count();
    const double dur_us = std::chrono::duration<double, std::micro>(end - start).count();
    core::MutexLock lock(mu_);
    events_.push_back({name, cat, ts_us, dur_us, thread_slot_locked()});
}

std::size_t TraceSession::size() const {
    core::MutexLock lock(mu_);
    return events_.size();
}

std::vector<TraceEvent> TraceSession::events() const {
    core::MutexLock lock(mu_);
    return events_;
}

std::string TraceSession::to_json() const {
    const std::vector<TraceEvent> evs = events();
    std::ostringstream os;
    os << "{\n\"traceEvents\": [";
    for (std::size_t i = 0; i < evs.size(); ++i) {
        const TraceEvent& e = evs[i];
        os << (i ? "," : "") << "\n  {\"name\": \"" << core::json_escape(e.name)
           << "\", \"cat\": \"" << core::json_escape(e.cat)
           << "\", \"ph\": \"X\", \"ts\": " << num(e.ts_us)
           << ", \"dur\": " << num(e.dur_us) << ", \"pid\": 0, \"tid\": " << e.tid << "}";
    }
    os << (evs.empty() ? "" : "\n") << "],\n\"displayTimeUnit\": \"ms\"\n}\n";
    return os.str();
}

bool TraceSession::save(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << to_json();
    return static_cast<bool>(out);
}

void TraceSession::clear() {
    core::MutexLock lock(mu_);
    events_.clear();
    threads_.clear();
}

void set_trace_session(TraceSession* session) {
    g_session.store(session, std::memory_order_release);
}

TraceSession* trace_session() { return g_session.load(std::memory_order_acquire); }

TraceGuard::TraceGuard(TraceSession& session) : previous_(trace_session()) {
    set_trace_session(&session);
}

TraceGuard::~TraceGuard() { set_trace_session(previous_); }

Span::Span(const char* name, const char* cat)
    : session_(trace_session()), name_(name), cat_(cat) {
    if (session_) start_ = std::chrono::steady_clock::now();
}

void Span::end() {
    if (!session_) return;
    session_->record_span(name_, cat_, start_, std::chrono::steady_clock::now());
    session_ = nullptr;
}

}  // namespace sky::obs
