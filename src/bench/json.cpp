#include "bench/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace sky::bench::json {
namespace {

/// Cursor over the input with line/column tracking for error messages.
struct Parser {
    const std::string& text;
    std::size_t pos = 0;
    std::string err;

    [[nodiscard]] bool at_end() const { return pos >= text.size(); }
    [[nodiscard]] char peek() const { return at_end() ? '\0' : text[pos]; }

    bool fail(const std::string& message) {
        if (!err.empty()) return false;  // keep the first error
        int line = 1, col = 1;
        for (std::size_t i = 0; i < pos && i < text.size(); ++i) {
            if (text[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        err = std::to_string(line) + ":" + std::to_string(col) + ": " + message;
        return false;
    }

    void skip_ws() {
        while (!at_end()) {
            const char c = text[pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos;
        }
    }

    bool literal(const char* word, std::size_t n) {
        if (text.compare(pos, n, word) != 0) return fail("invalid literal");
        pos += n;
        return true;
    }

    bool parse_string(std::string& out) {
        ++pos;  // opening quote
        while (true) {
            if (at_end()) return fail("unterminated string");
            const char c = text[pos++];
            if (c == '"') return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (at_end()) return fail("unterminated escape");
            const char esc = text[pos++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos + 4 > text.size()) return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                        else return fail("bad \\u escape digit");
                    }
                    // UTF-8 encode the BMP code point (surrogate pairs are not
                    // produced by any exporter in this repo).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    break;
                }
                default: return fail("unknown escape");
            }
        }
    }

    bool parse_value(Value& out, int depth) {
        if (depth > 64) return fail("nesting too deep");
        skip_ws();
        if (at_end()) return fail("unexpected end of input");
        const char c = peek();
        if (c == '{') {
            out.kind = Value::Kind::kObject;
            ++pos;
            skip_ws();
            if (peek() == '}') {
                ++pos;
                return true;
            }
            while (true) {
                skip_ws();
                if (peek() != '"') return fail("expected object key");
                std::string key;
                if (!parse_string(key)) return false;
                skip_ws();
                if (peek() != ':') return fail("expected ':'");
                ++pos;
                Value member;
                if (!parse_value(member, depth + 1)) return false;
                out.object.emplace_back(std::move(key), std::move(member));
                skip_ws();
                if (peek() == ',') {
                    ++pos;
                    continue;
                }
                if (peek() == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            out.kind = Value::Kind::kArray;
            ++pos;
            skip_ws();
            if (peek() == ']') {
                ++pos;
                return true;
            }
            while (true) {
                Value element;
                if (!parse_value(element, depth + 1)) return false;
                out.array.push_back(std::move(element));
                skip_ws();
                if (peek() == ',') {
                    ++pos;
                    continue;
                }
                if (peek() == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind = Value::Kind::kString;
            return parse_string(out.str);
        }
        if (c == 't') {
            out.kind = Value::Kind::kBool;
            out.boolean = true;
            return literal("true", 4);
        }
        if (c == 'f') {
            out.kind = Value::Kind::kBool;
            out.boolean = false;
            return literal("false", 5);
        }
        if (c == 'n') {
            out.kind = Value::Kind::kNull;
            return literal("null", 4);
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            const char* begin = text.c_str() + pos;
            char* end = nullptr;
            out.kind = Value::Kind::kNumber;
            out.number = std::strtod(begin, &end);
            if (end == begin) return fail("invalid number");
            pos += static_cast<std::size_t>(end - begin);
            return true;
        }
        return fail("unexpected character");
    }
};

}  // namespace

const Value* Value::get(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [name, value] : object)
        if (name == key) return &value;
    return nullptr;
}

double Value::num_or(const std::string& key, double fallback) const {
    const Value* v = get(key);
    return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string Value::str_or(const std::string& key, const std::string& fallback) const {
    const Value* v = get(key);
    return v != nullptr && v->is_string() ? v->str : fallback;
}

bool parse(const std::string& text, Value& out, std::string& err) {
    Parser p{text, 0, {}};
    out = Value{};
    if (!p.parse_value(out, 0)) {
        err = p.err;
        return false;
    }
    p.skip_ws();
    if (!p.at_end()) {
        p.fail("trailing content after document");
        err = p.err;
        return false;
    }
    return true;
}

bool parse_file(const std::string& path, Value& out, std::string& err) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err = "cannot open " + path;
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str(), out, err);
}

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace sky::bench::json
