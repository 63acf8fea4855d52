// skyanalyze driver: run the static checking layer (verify::check_graph +
// verify::analyze abstract interpretation + the activation memory planner)
// over every graph the repo ships — the full backbone zoo and the three
// SkyNet variants — and report the findings.
//
//   skyanalyze                 text report, one line per diagnostic
//   skyanalyze --json          machine-readable report for other tooling
//   skyanalyze --plan <file>   additionally write the per-model activation
//                              memory plans to <file> (the CI artifact)
//   skyanalyze --sarif <file>  additionally write a SARIF 2.1.0 log
//   skyanalyze --deny CODES    promote comma-separated codes to errors
//                              (the CI lint lane denies E002: a shipped
//                              model must never lose its certified bound)
//   skyanalyze --budget <f>    per-layer |int8 - fp32| error budget — arms
//                              E001/E003/E004 against the certified bounds
//   skyanalyze --catalog       print the diagnostic catalog and exit
//
// Text diagnostics print as `model: severity CODE @node N: message`, matched
// in CI by .github/problem-matchers/skyanalyze.json (mirroring skylint).
// Exit status: 0 clean, 1 warnings only, 2 errors (including denied codes),
// 3 usage error.
//
// SkyNet variants additionally run the deployment pipeline the Detector
// uses: deploy::fold_graph_bn then verify::check_qmodel under the default
// quantization scheme.  check_qmodel and analyze each lower the folded
// graph (quant::lower) into the op program QEngine compiles, so the
// Q-codes, the A004 proofs, the certified error bounds and the activation
// plan (quant::plan_activations) judge exactly what the engine would run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "backbones/registry.hpp"
#include "deploy/fold_bn.hpp"
#include "nn/graph.hpp"
#include "quant/ranges.hpp"
#include "sarif/sarif.hpp"
#include "skynet/skynet_model.hpp"
#include "verify/analyze.hpp"
#include "verify/check_graph.hpp"
#include "verify/check_qmodel.hpp"

namespace {

using namespace sky;

/// Keep full-depth backbones (VGG-16, ResNet-50) tractable for a lint-lane
/// run: channel widths scale, topology — what the analyses exercise — does
/// not.
constexpr float kBackboneWidth = 0.25f;

struct ModelResult {
    std::string name;
    verify::Report report;           // merged: check_graph (+qmodel) + analyze
    deploy::MemoryPlan plan;
    bool has_plan = false;
    int word_bytes = 0;              // the plan's FM grid word (2: int16, 4: int32)
    Shape input{};
    bool has_bound = false;          // the error domain ran (the graph was well-formed)
    bool bound_known = false;        // certified bound exists (no E002)
    double bound = 0.0;              // certified |int8 - fp32| at the output
};

void merge(verify::Report& into, const verify::Report& from) {
    for (const verify::Diagnostic& d : from.diagnostics) into.diagnostics.push_back(d);
}

ModelResult analyze_graph(std::string name, const nn::Graph& g, const Shape& input,
                          bool qmodel, float budget) {
    ModelResult r;
    r.name = std::move(name);
    r.input = input;
    r.report = verify::check_graph(g, input);
    if (qmodel) merge(r.report, verify::check_qmodel(g, quant::QuantConfig{}));
    if (r.report.ok()) {  // value/liveness domains assume a well-formed graph
        verify::AnalyzeOptions opts;
        if (budget > 0.0f)
            opts.qconfig = opts.qconfig.with_error_budget(budget);
        const verify::Analysis a = verify::analyze(g, input, opts);
        merge(r.report, a.report);
        r.plan = a.plan;
        r.has_plan = a.has_plan;
        r.word_bytes = quant::activation_word_bytes(opts.qconfig.fm_bits);
        r.has_bound = true;
        r.bound_known = a.errors.output_known;
        r.bound = a.errors.output_bound;
    }
    return r;
}

void print_json(const std::vector<ModelResult>& results, int errors, int warnings) {
    std::printf("{\n  \"models\": [");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ModelResult& r = results[i];
        std::printf("%s\n    {\"name\": \"%s\", \"input\": \"%s\",\n     \"diagnostics\": [",
                    i == 0 ? "" : ",", r.name.c_str(), r.input.str().c_str());
        const auto& ds = r.report.diagnostics;
        for (std::size_t j = 0; j < ds.size(); ++j) {
            const verify::Diagnostic& d = ds[j];
            std::printf("%s\n      {\"severity\": \"%s\", \"code\": \"%s\", \"node\": %d, "
                        "\"message\": \"%s\", \"hint\": \"%s\"}",
                        j == 0 ? "" : ",", verify::severity_name(d.severity),
                        d.code.c_str(), d.node, sarif::json_escape(d.message).c_str(),
                        sarif::json_escape(d.hint).c_str());
        }
        std::printf("%s],\n", ds.empty() ? "" : "\n     ");
        if (r.has_bound && r.bound_known)
            std::printf("     \"certified_error_bound\": %.9g,\n", r.bound);
        else
            std::printf("     \"certified_error_bound\": null,\n");
        if (r.has_plan)
            std::printf("     \"plan\": {\"peak_bytes\": %lld, \"arena_bytes\": %lld, "
                        "\"total_bytes\": %lld, \"slots\": %zu}}",
                        static_cast<long long>(r.plan.peak_bytes),
                        static_cast<long long>(r.plan.arena_bytes),
                        static_cast<long long>(r.plan.total_bytes), r.plan.slots.size());
        else
            std::printf("     \"plan\": null}");
    }
    std::printf("\n  ],\n  \"errors\": %d,\n  \"warnings\": %d\n}\n", errors, warnings);
}

void write_plan_report(const std::vector<ModelResult>& results, const char* path) {
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "skyanalyze: cannot write %s\n", path);
        return;
    }
    std::fprintf(f,
                 "# skyanalyze activation memory plans, in FM grid words (int16 up to "
                 "16-bit FMs, int32 above)\n");
    for (const ModelResult& r : results) {
        if (!r.has_plan) {
            std::fprintf(f, "%-24s @%s: no plan (graph has errors or is degenerate)\n",
                         r.name.c_str(), r.input.str().c_str());
            continue;
        }
        std::fprintf(f, "%-24s @%s: int%d words (%d B): %s\n", r.name.c_str(),
                     r.input.str().c_str(), 8 * r.word_bytes, r.word_bytes,
                     r.plan.summary().c_str());
    }
    std::fclose(f);
}

int write_sarif(const std::vector<ModelResult>& results, const char* path) {
    sarif::Log log;
    log.tool_name = "skyanalyze";
    log.info_uri = "docs/STATIC_ANALYSIS.md";
    for (const verify::CatalogEntry& e : verify::catalog())
        log.rules.push_back({e.code, e.summary});
    for (const ModelResult& r : results)
        for (const verify::Diagnostic& d : r.report.diagnostics) {
            sarif::Result res;
            res.rule_id = d.code;
            res.level =
                d.severity == verify::Severity::kError ? "error" : "warning";
            res.message = r.name + ": " + d.message;
            res.logical = r.name + "/node/" + std::to_string(d.node);
            log.results.push_back(std::move(res));
        }
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "skyanalyze: cannot write %s\n", path);
        return 1;
    }
    const std::string doc = log.str();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    return 0;
}

/// --deny E002,A004: promote the named codes to errors before counting, so
/// CI can fail a lane on findings that are only warnings by default.
std::set<std::string> parse_deny(const std::string& codes) {
    std::set<std::string> out;
    std::string cur;
    for (const char c : codes) {
        if (c == ',') {
            if (!cur.empty()) out.insert(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty()) out.insert(cur);
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    bool json = false;
    const char* plan_path = nullptr;
    const char* sarif_path = nullptr;
    std::set<std::string> deny;
    float budget = 0.0f;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: skyanalyze [--json] [--plan <file>] [--sarif <file>]\n"
                "                  [--deny CODE[,CODE...]] [--budget <f>] [--catalog]\n"
                "checks: G001-G012 M001-M003 Q001-Q006 (structure/scheme)\n"
                "        A001-A004 E001-E004 (abstract interpretation)\n"
                "exit:   0 clean, 1 warnings, 2 errors, 3 usage\n"
                "see docs/STATIC_ANALYSIS.md for the catalog\n");
            return 0;
        }
        if (arg == "--catalog") {
            for (const verify::CatalogEntry& e : verify::catalog())
                std::printf("%s %-7s %s\n", e.code, verify::severity_name(e.severity),
                            e.summary);
            return 0;
        }
        if (arg == "--json") {
            json = true;
            continue;
        }
        if (arg == "--plan" && i + 1 < argc) {
            plan_path = argv[++i];
            continue;
        }
        if (arg == "--sarif" && i + 1 < argc) {
            sarif_path = argv[++i];
            continue;
        }
        if (arg == "--deny" && i + 1 < argc) {
            const std::set<std::string> more = parse_deny(argv[++i]);
            deny.insert(more.begin(), more.end());
            continue;
        }
        if (arg == "--budget" && i + 1 < argc) {
            budget = std::strtof(argv[++i], nullptr);
            if (!(budget > 0.0f)) {
                std::fprintf(stderr, "skyanalyze: --budget needs a positive float\n");
                return 3;
            }
            continue;
        }
        std::fprintf(stderr, "skyanalyze: unknown argument '%s'\n", arg.c_str());
        return 3;
    }

    const Shape input = verify::default_input_shape();
    std::vector<ModelResult> results;

    for (const std::string& bname : backbones::backbone_names()) {
        Rng rng(7);  // fixed seed: diagnostics depend on shapes, not weights
        const backbones::Backbone b = backbones::build_by_name(bname, kBackboneWidth, rng);
        results.push_back(analyze_graph(bname, *b.net, input, /*qmodel=*/false, budget));
    }
    for (SkyNetVariant v : {SkyNetVariant::kA, SkyNetVariant::kB, SkyNetVariant::kC}) {
        Rng rng(7);
        SkyNetModel m = build_skynet({v, nn::Act::kReLU6, 2, 1.0f}, rng);
        deploy::fold_graph_bn(*m.net);  // analyze the graph QEngine would compile
        m.net->set_training(false);
        results.push_back(analyze_graph(std::string("skynet-") + variant_name(v),
                                        *m.net, input, /*qmodel=*/true, budget));
    }

    // Denied codes become errors before anything is counted or serialised.
    if (!deny.empty())
        for (ModelResult& r : results)
            for (verify::Diagnostic& d : r.report.diagnostics)
                if (deny.count(d.code) != 0) d.severity = verify::Severity::kError;

    int errors = 0, warnings = 0;
    for (const ModelResult& r : results) {
        errors += r.report.error_count();
        warnings += r.report.warning_count();
    }

    if (json) {
        print_json(results, errors, warnings);
    } else {
        for (const ModelResult& r : results) {
            for (const verify::Diagnostic& d : r.report.diagnostics)
                std::printf("%s: %s\n", r.name.c_str(), d.str().c_str());
            if (r.has_bound)
                std::printf("%s: certified |int8 - fp32| %s\n", r.name.c_str(),
                            r.bound_known
                                ? ("<= " + std::to_string(r.bound)).c_str()
                                : "unbounded (error tracking lost)");
            if (r.has_plan)
                std::printf("%s: activations @%s: %s\n", r.name.c_str(),
                            r.input.str().c_str(), r.plan.summary().c_str());
        }
        std::printf("skyanalyze: %zu model(s), %d error(s), %d warning(s)\n",
                    results.size(), errors, warnings);
    }
    if (plan_path) write_plan_report(results, plan_path);
    if (sarif_path && write_sarif(results, sarif_path) != 0) return 3;
    if (errors) return 2;
    return warnings ? 1 : 0;
}
