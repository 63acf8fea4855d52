#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/json.hpp"

namespace sky::obs {
namespace {

// JSON number or null for non-finite values (NaN losses must not produce an
// unparseable document).
std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// RFC 4180 CSV field: quoted (with doubled inner quotes) whenever the name
// contains a comma, quote or line break, so a metric named `a,b` cannot
// corrupt the row structure.
std::string csv_field(const std::string& s) {
    if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

}  // namespace

double HistogramSnapshot::percentile(double q) const {
    if (count == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(count);
    double cum = 0.0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        const double in_bucket = static_cast<double>(counts[b]);
        if (in_bucket == 0.0) continue;
        if (cum + in_bucket >= rank) {
            // Interpolate within [lo, hi): lo is the previous bound (or the
            // observed min for the first bucket), hi the bucket's own bound
            // (or the observed max for the overflow bucket).
            const double lo = b == 0 ? min : std::max(min, bounds[b - 1]);
            const double hi = b < bounds.size() ? std::min(max, bounds[b]) : max;
            const double frac = in_bucket > 0.0 ? (rank - cum) / in_bucket : 1.0;
            return std::clamp(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0), min, max);
        }
        cum += in_bucket;
    }
    return max;
}

void Registry::add(const std::string& name, double delta) {
    core::MutexLock lock(mu_);
    counters_[name] += delta;
}

void Registry::set(const std::string& name, double value) {
    core::MutexLock lock(mu_);
    gauges_[name] = value;
}

void Registry::define_histogram(const std::string& name, std::vector<double> bounds) {
    std::sort(bounds.begin(), bounds.end());
    core::MutexLock lock(mu_);
    Histogram& h = histograms_[name];
    h = Histogram{};
    h.bounds = std::move(bounds);
    h.counts.assign(h.bounds.size() + 1, 0);
}

void Registry::observe(const std::string& name, double value) {
    core::MutexLock lock(mu_);
    Histogram& h = histograms_[name];
    if (h.counts.empty()) {
        h.bounds = default_bounds();
        h.counts.assign(h.bounds.size() + 1, 0);
    }
    std::size_t bucket = 0;
    while (bucket < h.bounds.size() && value > h.bounds[bucket]) ++bucket;
    ++h.counts[bucket];
    if (h.count == 0) {
        h.min = value;
        h.max = value;
    } else {
        h.min = std::min(h.min, value);
        h.max = std::max(h.max, value);
    }
    ++h.count;
    h.sum += value;
}

double Registry::counter(const std::string& name) const {
    core::MutexLock lock(mu_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

double Registry::gauge(const std::string& name) const {
    core::MutexLock lock(mu_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

HistogramSnapshot Registry::histogram(const std::string& name) const {
    core::MutexLock lock(mu_);
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) return {};
    const Histogram& h = it->second;
    return {h.bounds, h.counts, h.count, h.sum, h.min, h.max};
}

RegistrySnapshot Registry::snapshot() const {
    core::MutexLock lock(mu_);
    RegistrySnapshot snap;
    for (const auto& [name, v] : counters_) snap.counters.emplace_back(name, v);
    for (const auto& [name, v] : gauges_) snap.gauges.emplace_back(name, v);
    for (const auto& [name, h] : histograms_)
        snap.histograms.emplace_back(
            name, HistogramSnapshot{h.bounds, h.counts, h.count, h.sum, h.min, h.max});
    return snap;
}

std::string Registry::to_json() const {
    const RegistrySnapshot snap = snapshot();
    std::ostringstream os;
    os << "{\n  \"counters\": {";
    for (std::size_t i = 0; i < snap.counters.size(); ++i)
        os << (i ? "," : "") << "\n    \"" << core::json_escape(snap.counters[i].first)
           << "\": " << num(snap.counters[i].second);
    os << (snap.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
    for (std::size_t i = 0; i < snap.gauges.size(); ++i)
        os << (i ? "," : "") << "\n    \"" << core::json_escape(snap.gauges[i].first)
           << "\": " << num(snap.gauges[i].second);
    os << (snap.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
        const auto& [name, h] = snap.histograms[i];
        os << (i ? "," : "") << "\n    \"" << core::json_escape(name)
           << "\": {\"count\": " << h.count
           << ", \"sum\": " << num(h.sum) << ", \"min\": " << num(h.min)
           << ", \"max\": " << num(h.max) << ", \"bounds\": [";
        for (std::size_t j = 0; j < h.bounds.size(); ++j)
            os << (j ? ", " : "") << num(h.bounds[j]);
        os << "], \"counts\": [";
        for (std::size_t j = 0; j < h.counts.size(); ++j)
            os << (j ? ", " : "") << h.counts[j];
        os << "]}";
    }
    os << (snap.histograms.empty() ? "" : "\n  ") << "}\n}\n";
    return os.str();
}

std::string Registry::to_csv() const {
    const RegistrySnapshot snap = snapshot();
    std::ostringstream os;
    os << "type,name,value,count,sum,min,max\n";
    for (const auto& [name, v] : snap.counters)
        os << "counter," << csv_field(name) << "," << v << ",,,,\n";
    for (const auto& [name, v] : snap.gauges)
        os << "gauge," << csv_field(name) << "," << v << ",,,,\n";
    for (const auto& [name, h] : snap.histograms)
        os << "histogram," << csv_field(name) << ",," << h.count << "," << h.sum << ","
           << h.min << "," << h.max << "\n";
    return os.str();
}

bool Registry::save_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << to_json();
    return static_cast<bool>(out);
}

void Registry::clear() {
    core::MutexLock lock(mu_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

std::vector<double> Registry::default_bounds() {
    return {0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0};
}

Registry& default_registry() {
    static Registry registry;
    return registry;
}

}  // namespace sky::obs
