#include "bench/report.hpp"

#include <fstream>
#include <sstream>

#include "bench/json.hpp"

namespace sky::bench {

const char* to_string(Direction d) {
    switch (d) {
        case Direction::kLowerIsBetter: return "lower_is_better";
        case Direction::kHigherIsBetter: return "higher_is_better";
        case Direction::kInfo: break;
    }
    return "info";
}

void Report::record(const std::string& name, RepeatStats stats, std::string unit,
                    Direction direction) {
    metrics_[name] = MetricRecord{std::move(unit), direction, std::move(stats)};
}

void Report::record(const std::string& name, double value, std::string unit,
                    Direction direction) {
    record(name, RepeatStats::from_value(value), std::move(unit), direction);
}

void Report::merge_registry(const obs::Registry& registry, const std::string& prefix) {
    const obs::RegistrySnapshot snap = registry.snapshot();
    for (const auto& [name, v] : snap.counters) counters_[prefix + name] = v;
    for (const auto& [name, v] : snap.gauges) gauges_[prefix + name] = v;
    for (const auto& [name, h] : snap.histograms) histograms_[prefix + name] = h;
}

const MetricRecord* Report::find(const std::string& name) const {
    const auto it = metrics_.find(name);
    return it == metrics_.end() ? nullptr : &it->second;
}

std::string Report::to_json(const Fingerprint& fp) const {
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": \"" << kSchema << "\",\n";
    os << "  \"bench\": \"" << json::escape(name_) << "\",\n";
    os << "  \"fingerprint\": " << bench::to_json(fp, 2) << ",\n";

    os << "  \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
        os << (first ? "" : ",") << "\n    \"" << json::escape(name) << "\": {";
        os << "\"value\": " << json::num(m.stats.median);
        os << ", \"unit\": \"" << json::escape(m.unit) << "\"";
        os << ", \"direction\": \"" << to_string(m.direction) << "\"";
        os << ", \"repeats\": " << m.stats.repeats();
        os << ", \"median\": " << json::num(m.stats.median);
        os << ", \"mad\": " << json::num(m.stats.mad);
        os << ", \"min\": " << json::num(m.stats.min);
        os << ", \"max\": " << json::num(m.stats.max);
        os << ", \"mean\": " << json::num(m.stats.mean);
        os << ", \"samples\": [";
        for (std::size_t i = 0; i < m.stats.samples.size(); ++i)
            os << (i ? ", " : "") << json::num(m.stats.samples[i]);
        os << "]}";
        first = false;
    }
    os << (metrics_.empty() ? "" : "\n  ") << "},\n";

    os << "  \"registry\": {\n    \"counters\": {";
    first = true;
    for (const auto& [name, v] : counters_) {
        os << (first ? "" : ",") << "\n      \"" << json::escape(name)
           << "\": " << json::num(v);
        first = false;
    }
    os << (counters_.empty() ? "" : "\n    ") << "},\n    \"gauges\": {";
    first = true;
    for (const auto& [name, v] : gauges_) {
        os << (first ? "" : ",") << "\n      \"" << json::escape(name)
           << "\": " << json::num(v);
        first = false;
    }
    os << (gauges_.empty() ? "" : "\n    ") << "},\n    \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
        os << (first ? "" : ",") << "\n      \"" << json::escape(name) << "\": {";
        os << "\"count\": " << h.count << ", \"sum\": " << json::num(h.sum);
        os << ", \"min\": " << json::num(h.min) << ", \"max\": " << json::num(h.max);
        os << ", \"p50\": " << json::num(h.percentile(0.50));
        os << ", \"p95\": " << json::num(h.percentile(0.95));
        os << ", \"p99\": " << json::num(h.percentile(0.99)) << "}";
        first = false;
    }
    os << (histograms_.empty() ? "" : "\n    ") << "}\n  }\n}\n";
    return os.str();
}

bool Report::save_json(const std::string& path, const Fingerprint& fp) const {
    std::ofstream out(path);
    if (!out) return false;
    out << to_json(fp);
    return static_cast<bool>(out);
}

void Report::clear() {
    name_.clear();
    metrics_.clear();
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

}  // namespace sky::bench
