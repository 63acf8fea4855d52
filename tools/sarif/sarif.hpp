// Minimal SARIF 2.1.0 writer shared by the repo's analysis tools (skylint,
// skyanalyze).  SARIF (Static Analysis Results Interchange Format) is the
// interchange JSON GitHub code scanning and most editors ingest; one shared
// emitter means every tool serialises rules/results identically and the
// format is pinned by one set of tests (tests/test_sarif.cpp).
//
// Deliberately small: one run per document, physical and logical locations,
// no taxonomies/fixes/graphs.  Pure std — the emitter must stay linkable
// from skylint, which cannot depend on the model library.
#pragma once

#include <string>
#include <vector>

namespace sarif {

/// One reportingDescriptor in tool.driver.rules.
struct Rule {
    std::string id;           ///< stable rule id, e.g. "E002" or "raw-sync"
    std::string description;  ///< shortDescription.text
};

/// One result in runs[0].results.
struct Result {
    std::string rule_id;
    std::string level = "warning";  ///< "error" | "warning" | "note"
    std::string message;
    std::string file;     ///< artifactLocation.uri; empty = no physical location
    int line = 0;         ///< 1-based region.startLine; 0 = no region
    std::string logical;  ///< logicalLocations[0].fullyQualifiedName; empty = none
};

/// One complete sarif-log document with a single run.
struct Log {
    std::string tool_name;
    std::string tool_version;  ///< optional driver.version
    std::string info_uri;      ///< optional driver.informationUri
    std::vector<Rule> rules;
    std::vector<Result> results;

    /// The full SARIF 2.1.0 document, pretty-printed, trailing newline.
    [[nodiscard]] std::string str() const;
};

/// JSON string escaping; also the escaper of skylint --json and skyanalyze
/// --json, so every tool escapes alike.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace sarif
