// JSON string escaping: the one copy every JSON emitter in src calls (obs
// traces, metrics and layer profiles, io graph exports, bench reports).
#pragma once

#include <string>

namespace sky::core {

/// `s` as the body of a JSON string (RFC 8259 §7): `"` and `\` escaped,
/// \n, \r and \t by name, every other character below U+0020 as \u00XX.
/// Bytes from 0x20 up, UTF-8 included, pass through verbatim.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace sky::core
