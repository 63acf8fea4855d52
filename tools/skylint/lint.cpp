#include "skylint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sarif/sarif.hpp"
#include "skylint/layers.hpp"

namespace skylint {
namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
    return s.rfind(prefix, 0) == 0;
}

bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Does `line` contain `token` as a whole identifier?
bool has_token(const std::string& line, const std::string& token) {
    std::size_t pos = 0;
    while ((pos = line.find(token, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
        const std::size_t end = pos + token.size();
        const bool right_ok = end >= line.size() || !is_ident_char(line[end]);
        if (left_ok && right_ok) return true;
        pos = end;
    }
    return false;
}

std::vector<std::string> split_lines(const std::string& s) {
    std::vector<std::string> lines;
    std::string cur;
    for (const char c : s) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    lines.push_back(cur);
    return lines;
}

/// Index just past the `#include` keyword, or npos for non-include lines.
std::size_t include_keyword_end(const std::string& line) {
    std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] != '#') return std::string::npos;
    i = line.find_first_not_of(" \t", i + 1);
    if (i == std::string::npos || line.compare(i, 7, "include") != 0)
        return std::string::npos;
    return i + 7;
}

/// `#include "..."` / `#include <...>` payload of a line, or empty.
std::string include_path(const std::string& line, bool& angled) {
    const std::size_t kw = include_keyword_end(line);
    if (kw == std::string::npos) return "";
    std::size_t i = line.find_first_not_of(" \t", kw);
    if (i == std::string::npos) return "";
    const char open = line[i];
    const char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
    if (close == '\0') return "";
    const std::size_t end = line.find(close, i + 1);
    if (end == std::string::npos) return "";
    angled = open == '<';
    return line.substr(i + 1, end - i - 1);
}

/// The synchronisation member types the mutex-doc rule covers.  `annotatable`
/// marks the wrapper types Clang's thread-safety analysis understands — for
/// those, fields the doc comment names as guarded must carry SKY_GUARDED_BY.
struct SyncType {
    const char* spelling;
    bool annotatable;
    const char* kind;  // for the diagnostic message
};

constexpr SyncType kSyncTypes[] = {
    {"core::Mutex", true, "mutex"},
    {"Mutex", true, "mutex"},
    {"std::mutex", false, "mutex"},
    {"std::shared_mutex", false, "mutex"},
    {"std::recursive_mutex", false, "mutex"},
    {"std::timed_mutex", false, "mutex"},
    {"core::CondVar", false, "condition variable"},
    {"CondVar", false, "condition variable"},
    {"std::condition_variable", false, "condition variable"},
    {"std::condition_variable_any", false, "condition variable"},
};

/// Member-style declaration: `<type> name [SKY_...(...) ...];` (optionally
/// mutable/static), but not references, pointers, locks or parameters.  On
/// match fills `name` and returns the matched type, else nullptr.
const SyncType* declares_sync_member(const std::string& line, std::string& name) {
    for (const SyncType& type : kSyncTypes) {
        const std::string spelling = type.spelling;
        std::size_t pos = 0;
        while ((pos = line.find(spelling, pos)) != std::string::npos) {
            // Token boundaries: reject MutexLock, core::MutexLock, and the
            // qualified spellings when a shorter one is a prefix (the table
            // is ordered so qualified names match first anyway).
            const bool left_ok =
                pos == 0 || (!is_ident_char(line[pos - 1]) && line[pos - 1] != ':');
            std::size_t i = pos + spelling.size();
            const bool right_ok = i >= line.size() || (!is_ident_char(line[i]) &&
                                                       line[i] != ':');
            pos = i;
            if (!left_ok || !right_ok) continue;
            if (i < line.size() && (line[i] == '&' || line[i] == '*')) continue;
            while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])) != 0)
                ++i;
            const std::size_t name_begin = i;
            while (i < line.size() && is_ident_char(line[i])) ++i;
            if (i == name_begin) continue;  // no declared name (cast, friend decl)
            name = line.substr(name_begin, i - name_begin);
            // Skip any trailing SKY_*(...) thread-safety attribute macros.
            for (;;) {
                while (i < line.size() &&
                       std::isspace(static_cast<unsigned char>(line[i])) != 0)
                    ++i;
                if (line.compare(i, 4, "SKY_") != 0) break;
                while (i < line.size() && is_ident_char(line[i])) ++i;
                if (i >= line.size() || line[i] != '(') break;
                int depth = 0;
                while (i < line.size()) {
                    if (line[i] == '(') ++depth;
                    if (line[i] == ')' && --depth == 0) {
                        ++i;
                        break;
                    }
                    ++i;
                }
            }
            if (i < line.size() && line[i] == ';') return &type;
        }
    }
    return nullptr;
}

bool line_has_comment(const std::string& original_line) {
    return original_line.find("//") != std::string::npos ||
           original_line.find("/*") != std::string::npos ||
           original_line.find("*/") != std::string::npos ||
           starts_with(original_line.substr(original_line.find_first_not_of(" \t") ==
                                                    std::string::npos
                                                ? 0
                                                : original_line.find_first_not_of(" \t")),
                       "*");
}

/// Trailing-underscore identifiers the doc comment claims are guarded: the
/// text after a (case-insensitive) "guards", up to the first ';' — e.g.
/// "guards q_/closed_ + both cv waits; leaf lock" names q_ and closed_.
std::vector<std::string> guarded_names(const std::string& comment) {
    std::string lower = comment;
    std::transform(lower.begin(), lower.end(), lower.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    std::size_t pos = 0;
    while ((pos = lower.find("guards", pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !is_ident_char(lower[pos - 1]);
        const std::size_t end = pos + 6;
        const bool right_ok = end >= lower.size() || !is_ident_char(lower[end]);
        if (left_ok && right_ok) break;
        pos = end;
    }
    if (pos == std::string::npos) return {};
    std::size_t stop = comment.find(';', pos);
    if (stop == std::string::npos) stop = comment.size();

    std::vector<std::string> names;
    std::size_t i = pos + 6;
    while (i < stop) {
        if (!is_ident_char(comment[i])) {
            ++i;
            continue;
        }
        const std::size_t begin = i;
        while (i < stop && is_ident_char(comment[i])) ++i;
        const std::string ident = comment.substr(begin, i - begin);
        if (ident.size() > 1 && ident.back() == '_') names.push_back(ident);
    }
    return names;
}

bool is_source_file(const std::filesystem::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

}  // namespace

std::string Violation::str() const {
    return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

std::string Violation::json() const {
    return "{\"file\": \"" + sarif::json_escape(file) + "\", \"line\": " +
           std::to_string(line) + ", \"rule\": \"" + sarif::json_escape(rule) +
           "\", \"message\": \"" + sarif::json_escape(message) + "\"}";
}

std::string strip_comments_and_strings(const std::string& src) {
    std::string out(src.size(), ' ');
    enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
    State state = State::kCode;
    for (std::size_t i = 0; i < src.size(); ++i) {
        const char c = src[i];
        const char next = i + 1 < src.size() ? src[i + 1] : '\0';
        if (c == '\n') {
            out[i] = '\n';
            if (state == State::kLineComment) state = State::kCode;
            continue;
        }
        switch (state) {
            case State::kCode:
                if (c == '/' && next == '/') {
                    state = State::kLineComment;
                } else if (c == '/' && next == '*') {
                    state = State::kBlockComment;
                    ++i;
                    if (i < src.size() && src[i] == '\n') out[i] = '\n';
                } else if (c == '"') {
                    state = State::kString;
                } else if (c == '\'') {
                    state = State::kChar;
                } else {
                    out[i] = c;
                }
                break;
            case State::kLineComment:
                break;
            case State::kBlockComment:
                if (c == '*' && next == '/') {
                    state = State::kCode;
                    ++i;
                }
                break;
            case State::kString:
                if (c == '\\') {
                    ++i;
                    if (i < src.size() && src[i] == '\n') out[i] = '\n';
                } else if (c == '"') {
                    state = State::kCode;
                }
                break;
            case State::kChar:
                if (c == '\\') {
                    ++i;
                    if (i < src.size() && src[i] == '\n') out[i] = '\n';
                } else if (c == '\'') {
                    state = State::kCode;
                }
                break;
        }
    }
    return out;
}

std::vector<IncludeRef> scan_includes(const std::string& content) {
    // The stripper blanks quoted payloads, so parse them off the raw line —
    // but only when the stripped line still carries the directive (a
    // commented-out include must not count).
    const std::vector<std::string> lines = split_lines(strip_comments_and_strings(content));
    const std::vector<std::string> raw_lines = split_lines(content);
    std::vector<IncludeRef> out;
    for (std::size_t li = 0; li < lines.size(); ++li) {
        if (include_keyword_end(lines[li]) == std::string::npos) continue;
        bool angled = false;
        std::string inc = include_path(lines[li], angled);
        if (inc.empty()) inc = include_path(raw_lines[li], angled);
        if (!inc.empty())
            out.push_back({inc, static_cast<int>(li) + 1, angled});
    }
    return out;
}

std::vector<Violation> scan_file(const std::string& path, const std::string& content) {
    std::vector<Violation> out;
    const bool in_src = starts_with(path, "src/");
    const bool allocator_layer =
        starts_with(path, "src/tensor/") || starts_with(path, "src/core/");

    const std::string stripped = strip_comments_and_strings(content);
    const std::vector<std::string> lines = split_lines(stripped);
    const std::vector<std::string> raw_lines = split_lines(content);

    for (std::size_t li = 0; li < lines.size(); ++li) {
        const std::string& line = lines[li];
        const int lineno = static_cast<int>(li) + 1;

        // --- suppression ----------------------------------------------
        // `// skylint-ok: <reason>` waives every rule on its line — for code
        // that violates a rule on purpose (tests seeding broken models).
        if (raw_lines[li].find("skylint-ok") != std::string::npos) continue;

        // --- raw-new-delete -------------------------------------------
        if (in_src && !allocator_layer) {
            if (has_token(line, "new"))
                out.push_back({path, lineno, "raw-new-delete",
                               "raw 'new' outside src/tensor|src/core; own memory "
                               "through containers or std::make_unique"});
            if (has_token(line, "delete") && line.find("= delete") == std::string::npos)
                out.push_back({path, lineno, "raw-new-delete",
                               "raw 'delete' outside src/tensor|src/core; let the "
                               "owning container release it"});
        }

        // --- raw-sync -------------------------------------------------
        // All locking in src/ routes through the capability-annotated
        // wrappers in core/mutex.hpp (core::Mutex / MutexLock / CondVar) so
        // clang's thread-safety analysis sees every acquisition; the raw
        // std types are invisible to it.  Only the wrapper file itself may
        // name them.
        if (in_src && path != "src/core/mutex.hpp") {
            for (const char* banned :
                 {"std::mutex", "std::lock_guard", "std::condition_variable",
                  "std::condition_variable_any"})
                if (has_token(line, banned))
                    out.push_back({path, lineno, "raw-sync",
                                   std::string("raw ") + banned +
                                       " outside src/core/mutex.hpp; use the "
                                       "annotated core::Mutex / core::MutexLock / "
                                       "core::CondVar wrappers"});
        }

        // --- mutex-doc ------------------------------------------------
        std::string sync_name;
        const SyncType* sync = in_src ? declares_sync_member(line, sync_name) : nullptr;
        if (sync != nullptr) {
            // Doc comment: same line, or the contiguous comment block above.
            std::string comment;
            if (line_has_comment(raw_lines[li])) comment = raw_lines[li];
            std::size_t first = li;
            while (first > 0 && line_has_comment(raw_lines[first - 1]) &&
                   lines[first - 1].find_first_not_of(" \t") == std::string::npos)
                --first;
            for (std::size_t ci = first; ci < li; ++ci)
                comment += "\n" + raw_lines[ci];
            if (comment.empty()) {
                out.push_back({path, lineno, "mutex-doc",
                               std::string(sync->spelling) + " member without a comment "
                               "documenting what it guards / its lock order"});
            } else if (sync->annotatable) {
                // The comment and the compiler-checked contract must agree:
                // every field the comment names as guarded carries
                // SKY_GUARDED_BY (on this mutex) somewhere in the file.
                for (const std::string& field : guarded_names(comment)) {
                    bool declared = false, annotated = false;
                    for (std::size_t oi = 0; oi < lines.size(); ++oi) {
                        if (!has_token(lines[oi], field)) continue;
                        declared = true;
                        // A wrapped declaration may carry the attribute on
                        // its continuation line.
                        std::string decl = lines[oi];
                        if (oi + 1 < lines.size()) decl += lines[oi + 1];
                        if (decl.find("SKY_GUARDED_BY") != std::string::npos ||
                            decl.find("SKY_PT_GUARDED_BY") != std::string::npos) {
                            annotated = true;
                            break;
                        }
                    }
                    if (declared && !annotated)
                        out.push_back({path, lineno, "mutex-doc",
                                       "comment on '" + sync_name + "' names '" + field +
                                           "' as guarded, but its declaration lacks "
                                           "SKY_GUARDED_BY(" + sync_name + ")"});
                }
            }
        }

        // --- using-namespace-std --------------------------------------
        {
            // Whitespace-normalise so `using  namespace   std ;` still hits,
            // but `using Clock = std::...` / `using namespace std::literals`
            // do not.
            std::string squashed;
            for (const char c : line)
                if (std::isspace(static_cast<unsigned char>(c)) != 0) {
                    if (!squashed.empty() && squashed.back() != ' ') squashed += ' ';
                } else {
                    squashed += c;
                }
            const std::size_t pos = squashed.find("using namespace std");
            if (pos != std::string::npos) {
                const std::size_t after = pos + std::string("using namespace std").size();
                const char next = after < squashed.size() ? squashed[after] : ';';
                if (next == ';' || next == ' ')
                    out.push_back({path, lineno, "using-namespace-std",
                                   "'using namespace std' pollutes every translation "
                                   "unit that includes this"});
            }
        }

        // --- include-hygiene ------------------------------------------
        // The stripper blanks quoted payloads, so parse them off the raw
        // line — but only when the stripped line still carries the
        // directive (a commented-out include must not fire).
        bool angled = false;
        std::string inc = include_path(line, angled);
        if (inc.empty() && include_keyword_end(line) != std::string::npos)
            inc = include_path(raw_lines[li], angled);
        if (!inc.empty()) {
            if (inc.find("../") != std::string::npos)
                out.push_back({path, lineno, "include-hygiene",
                               "relative '../' include; include project headers "
                               "rooted at src/"});
            if (angled && inc == "bits/stdc++.h")
                out.push_back({path, lineno, "include-hygiene",
                               "<bits/stdc++.h> is non-standard; include what you use"});
            if (!angled && in_src && inc.find('/') == std::string::npos)
                out.push_back({path, lineno, "include-hygiene",
                               "quoted include not rooted at src/ ('" + inc +
                                   "'); spell it as \"subsystem/header.hpp\""});
        }
    }
    return out;
}

std::vector<Violation> scan_tree(const std::string& repo_root) {
    namespace fs = std::filesystem;
    std::vector<Violation> out;
    std::vector<SourceFile> src_files;  // for the include-graph analyzer
    const fs::path root(repo_root);
    for (const char* dir : {"src", "tools", "tests", "bench", "examples"}) {
        const fs::path base = root / dir;
        if (!fs::exists(base)) continue;
        for (const auto& entry : fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file() || !is_source_file(entry.path())) continue;
            std::ifstream in(entry.path(), std::ios::binary);
            std::ostringstream ss;
            ss << in.rdbuf();
            const std::string rel =
                fs::relative(entry.path(), root).generic_string();
            const std::vector<Violation> found = scan_file(rel, ss.str());
            out.insert(out.end(), found.begin(), found.end());
            if (rel.rfind("src/", 0) == 0) src_files.push_back({rel, ss.str()});
        }
    }

    // --- include-graph layering (L001/L002/L003) ----------------------
    const fs::path manifest_path = root / "tools" / "skylint" / "layers.txt";
    LayerManifest manifest;
    bool have_manifest = false;
    if (fs::exists(manifest_path)) {
        std::ifstream in(manifest_path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        manifest = parse_manifest("tools/skylint/layers.txt", ss.str(), out);
        have_manifest = true;
    }
    const std::vector<Violation> layering =
        check_layering(src_files, have_manifest ? &manifest : nullptr);
    out.insert(out.end(), layering.begin(), layering.end());

    std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
        if (a.file != b.file) return a.file < b.file;
        if (a.line != b.line) return a.line < b.line;
        return a.rule < b.rule;
    });
    return out;
}

}  // namespace skylint
