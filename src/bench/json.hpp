// Minimal JSON reader/writer helpers for the bench subsystem.
//
// The harness *emits* BENCH documents and `bench_e2e --summarize` *reads*
// them back, so the repo needs one (small) JSON implementation it fully
// controls: a recursive-descent parser into an ordered DOM plus the two
// formatting helpers every exporter in this codebase otherwise re-implements
// (number formatting that round-trips doubles and emits `null` for
// non-finite values, and string escaping).  It parses the full JSON grammar — objects,
// arrays, strings with escapes, numbers, literals — but is tuned for
// machine-written documents: no comments, no trailing commas, UTF-8 passed
// through verbatim.  Like RFC 8259 §7 it refuses a raw control character
// inside a string.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/json.hpp"

namespace sky::bench::json {

/// One parsed JSON value.  Object members keep document order so diffs and
/// error messages read in the same order as the file.
class Value {
public:
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
    [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
    [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
    [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

    /// Object member lookup; nullptr when absent or not an object.
    [[nodiscard]] const Value* get(const std::string& key) const;
    /// Member `key` as a number, or `fallback` when absent / wrong type.
    [[nodiscard]] double num_or(const std::string& key, double fallback) const;
    /// Member `key` as a string, or `fallback` when absent / wrong type.
    [[nodiscard]] std::string str_or(const std::string& key,
                                     const std::string& fallback) const;
};

/// Parse `text` into `out`.  On failure returns false and sets `err` to a
/// "line:col: message" description of the first error.
bool parse(const std::string& text, Value& out, std::string& err);

/// Parse the file at `path`; false on I/O or parse error (described in `err`).
bool parse_file(const std::string& path, Value& out, std::string& err);

/// JSON number literal that round-trips a double; non-finite values become
/// `null` so emitted documents always parse.
[[nodiscard]] std::string num(double v);

/// `s` with JSON string escapes applied (quotes, backslashes, control
/// chars): core::json_escape, the one escaper every emitter calls.
[[nodiscard]] inline std::string escape(const std::string& s) {
    return core::json_escape(s);
}

}  // namespace sky::bench::json
