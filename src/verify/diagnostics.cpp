#include "verify/diagnostics.hpp"

#include <utility>

namespace sky::verify {

const char* severity_name(Severity s) {
    switch (s) {
        case Severity::kWarning: return "warning";
        case Severity::kError: return "error";
    }
    return "?";
}

std::string Diagnostic::str() const {
    std::string out = severity_name(severity);
    out += ' ';
    out += code;
    if (node >= 0) out += " @node " + std::to_string(node);
    out += ": " + message;
    if (!hint.empty()) out += " (fix: " + hint + ")";
    return out;
}

void Report::error(std::string code, int node, std::string message, std::string hint) {
    diagnostics.push_back({Severity::kError, std::move(code), node, std::move(message),
                           std::move(hint)});
}

void Report::warn(std::string code, int node, std::string message, std::string hint) {
    diagnostics.push_back({Severity::kWarning, std::move(code), node, std::move(message),
                           std::move(hint)});
}

int Report::error_count() const {
    int n = 0;
    for (const Diagnostic& d : diagnostics)
        if (d.severity == Severity::kError) ++n;
    return n;
}

int Report::warning_count() const {
    return static_cast<int>(diagnostics.size()) - error_count();
}

bool Report::has(const std::string& code) const {
    for (const Diagnostic& d : diagnostics)
        if (d.code == code) return true;
    return false;
}

std::string Report::str() const {
    std::string out;
    for (const Diagnostic& d : diagnostics) {
        out += d.str();
        out += '\n';
    }
    return out;
}

const std::vector<CatalogEntry>& catalog() {
    static const std::vector<CatalogEntry> kCatalog = {
        {"G001", Severity::kError, "dangling edge (input id out of range)"},
        {"G002", Severity::kError, "cyclic edge (node consumes itself or a later node)"},
        {"G003", Severity::kError, "concat inputs disagree on batch/spatial dims"},
        {"G004", Severity::kError, "add inputs disagree on shape"},
        {"G005", Severity::kError, "channel mismatch between producer and consumer"},
        {"G006", Severity::kError, "feature map collapses to a non-positive dimension"},
        {"G007", Severity::kWarning,
         "stride/padding/pool/reorder silently truncates rows or cols"},
        {"G008", Severity::kWarning, "node unreachable from the output"},
        {"G009", Severity::kError, "output node id invalid"},
        {"G010", Severity::kError, "module shape inference threw"},
        {"G011", Severity::kError, "join node has too few inputs"},
        {"G012", Severity::kError, "channel count incompatible with a shuffle's groups"},
        {"M001", Severity::kError, "SkyNetModel feature tap node invalid"},
        {"M002", Severity::kWarning,
         "feature tap channel metadata disagrees with the graph"},
        {"M003", Severity::kError, "SkyNetModel has no network"},
        {"Q001", Severity::kError, "BatchNorm layer left unfolded ahead of quantization"},
        {"Q002", Severity::kError, "layer the integer engine cannot compile"},
        {"Q003", Severity::kError, "calibrated activation range exceeds the FM format"},
        {"Q004", Severity::kWarning, "ReLU6 clip constant saturates in the FM format"},
        {"Q005", Severity::kError,
         "degenerate scheme (bit-widths / fm_abs_max out of range)"},
        {"Q006", Severity::kWarning, "FM format has no fractional bits (integer-only grid)"},
        {"A001", Severity::kWarning,
         "value interval exceeds fp32 range: Inf/NaN statically reachable"},
        {"A002", Severity::kWarning, "activation clamp provably never fires (dead clamp)"},
        {"A003", Severity::kWarning,
         "activation always saturates (output provably constant)"},
        {"A004", Severity::kWarning,
         "int32 accumulator bound K * max|w| * span reaches 2^31"},
        {"E001", Severity::kWarning,
         "certified |int8 - fp32| bound exceeds the per-layer error budget"},
        {"E002", Severity::kWarning,
         "certified error bound unbounded (error tracking lost)"},
        {"E003", Severity::kWarning,
         "dominant-error layer report (top contributors to the output bound)"},
        {"E004", Severity::kWarning,
         "error budget infeasible at this bit-width (minimum fractional bits)"},
    };
    return kCatalog;
}

namespace {

std::string verify_error_message(const Report& r) {
    std::string msg = "model verification failed with " +
                      std::to_string(r.error_count()) + " error(s):\n" + r.str();
    if (!msg.empty() && msg.back() == '\n') msg.pop_back();
    return msg;
}

}  // namespace

VerifyError::VerifyError(Report report)
    : std::runtime_error(verify_error_message(report)), report_(std::move(report)) {}

const Report& enforce(const Report& report) {
    if (!report.ok()) throw VerifyError(report);
    return report;
}

}  // namespace sky::verify
