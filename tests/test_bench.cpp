// The sky::bench measurement harness: robust repeat statistics (median/MAD),
// the scaled step budget, the BENCH document schema (fingerprint, units,
// repeat stats) round-tripped through the subsystem's own JSON parser, and
// finish()'s --json contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/fingerprint.hpp"
#include "bench/harness.hpp"
#include "bench/json.hpp"
#include "bench/report.hpp"
#include "bench/stats.hpp"
#include "io/export_graph.hpp"
#include "nn/graph.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sky::bench {
namespace {

// --- repeat statistics -----------------------------------------------------

TEST(RepeatStats, MedianOfOddAndEvenSamples) {
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(RepeatStats, MadResistsASingleOutlier) {
    // One wild sample moves the mean far more than the median/MAD.
    const RepeatStats s = RepeatStats::from_samples({10.0, 10.5, 9.5, 10.2, 100.0});
    EXPECT_DOUBLE_EQ(s.median, 10.2);
    EXPECT_LE(s.mad, 0.5);
    EXPECT_GT(s.mean, 20.0);
    EXPECT_DOUBLE_EQ(s.min, 9.5);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_EQ(s.repeats(), 5);
}

TEST(RepeatStats, FromValueIsASingleSample) {
    const RepeatStats s = RepeatStats::from_value(42.0);
    EXPECT_EQ(s.repeats(), 1);
    EXPECT_DOUBLE_EQ(s.median, 42.0);
    EXPECT_DOUBLE_EQ(s.mad, 0.0);
}

// --- scaled step budget ----------------------------------------------------

TEST(Steps, ScaleOneIsExactlyTheBaseBudget) {
    ::setenv("SKYNET_BENCH_SCALE", "1", 1);
    EXPECT_EQ(steps(260), 260);  // the old +1 off-by-one made this 261
    EXPECT_EQ(steps(1), 1);
    ::unsetenv("SKYNET_BENCH_SCALE");
}

TEST(Steps, ScalesRoundToNearestAndClampToOne) {
    ::setenv("SKYNET_BENCH_SCALE", "0.1", 1);
    EXPECT_EQ(steps(260), 26);
    EXPECT_EQ(steps(26), 3);   // 2.6 rounds to 3
    EXPECT_EQ(steps(1), 1);    // 0.1 clamps up to 1
    ::setenv("SKYNET_BENCH_SCALE", "4", 1);
    EXPECT_EQ(steps(50), 200);
    ::unsetenv("SKYNET_BENCH_SCALE");
}

TEST(Steps, UnsetOrNonPositiveScaleUsesTheBase) {
    ::unsetenv("SKYNET_BENCH_SCALE");
    EXPECT_EQ(steps(120), 120);
    ::setenv("SKYNET_BENCH_SCALE", "0", 1);
    EXPECT_EQ(steps(120), 120);
    ::setenv("SKYNET_BENCH_SCALE", "-2", 1);
    EXPECT_EQ(steps(120), 120);
    ::unsetenv("SKYNET_BENCH_SCALE");
}

// --- JSON parser -----------------------------------------------------------

TEST(Json, ParsesNestedDocument) {
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(
        R"({"a": [1, 2.5, -3e2], "b": {"c": "x\n\"y\""}, "t": true, "n": null})", v,
        err))
        << err;
    ASSERT_TRUE(v.is_object());
    const json::Value* a = v.get("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
    const json::Value* b = v.get("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->str_or("c", ""), "x\n\"y\"");
    EXPECT_TRUE(v.get("t")->boolean);
    EXPECT_EQ(v.get("n")->kind, json::Value::Kind::kNull);
    EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse("{\"a\": }", v, err));
    EXPECT_FALSE(json::parse("[1, 2", v, err));
    EXPECT_FALSE(json::parse("{} trailing", v, err));
    EXPECT_FALSE(json::parse("", v, err));
    EXPECT_FALSE(err.empty());
}

TEST(Json, RejectsRawControlCharactersInStrings) {
    // RFC 8259 §7: a control character inside a string must be escaped.
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse("\"a\tb\"", v, err));
    EXPECT_NE(err.find("control character"), std::string::npos) << err;
    EXPECT_FALSE(json::parse(std::string("{\"a\x01\": 1}"), v, err));
    ASSERT_TRUE(json::parse("\"a\\tb\\u0001\"", v, err)) << err;
    EXPECT_EQ(v.str, std::string("a\tb\x01"));
}

TEST(Json, EscapeAndNumHelpers) {
    EXPECT_EQ(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(json::num(std::nan("")), "null");
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(json::num(0.1), v, err));
    EXPECT_DOUBLE_EQ(v.number, 0.1);  // %.17g round-trips
}

// --- report schema ---------------------------------------------------------

Fingerprint test_fingerprint() {
    Fingerprint fp;
    fp.git_sha = "deadbeef";
    fp.compiler = "testc 1.0";
    fp.flags = "-O2";
    fp.build_type = "Release";
    fp.threads = 2;
    fp.bench_scale = 1.0;
    fp.cpu_cores = 8;
    return fp;
}

/// True when `s` is a string or an object key anywhere in `v`.
bool holds_string(const json::Value& v, const std::string& s) {
    if (v.is_string() && v.str == s) return true;
    for (const json::Value& e : v.array)
        if (holds_string(e, s)) return true;
    for (const auto& [key, e] : v.object)
        if (key == s || holds_string(e, s)) return true;
    return false;
}

/// A pass-through layer whose name and kind are `name`.
class NamedLayer : public nn::Module {
public:
    explicit NamedLayer(std::string name) : name_(std::move(name)) {}
    Tensor forward(const Tensor& x) override { return x; }
    Tensor backward(const Tensor& g) override { return g; }
    [[nodiscard]] std::string name() const override { return name_; }
    [[nodiscard]] std::string kind() const override { return name_; }
    [[nodiscard]] Shape out_shape(const Shape& in) const override { return in; }

private:
    std::string name_;
};

TEST(Json, EveryEmitterRoundTripsControlCharacters) {
    // A name with every character class core::json_escape treats apart.
    const std::string name = "a\tb\nc\r\"q\"\\\x01\x1f";
    std::vector<std::pair<std::string, std::string>> docs;

    obs::Registry reg;
    reg.add(name);
    reg.set(name + "g", 1.0);
    reg.observe(name + "h", 2.0);
    docs.emplace_back("registry", reg.to_json());
    obs::TraceSession trace;
    trace.record(name, name, 0.0, 1.0);
    docs.emplace_back("trace", trace.to_json());
    nn::Graph g;
    g.add(std::make_unique<NamedLayer>(name), 0);
    docs.emplace_back("export_layers", io::export_layers_json(g, {1, 1, 2, 2}));
    docs.emplace_back("export_graph", io::export_graph_json(g, {1, 1, 2, 2}));
    {
        obs::GraphProfiler prof(g);
        docs.emplace_back("profiler", prof.to_json());
    }
    Report rep;
    rep.set_name(name);
    rep.record(name, 1.0, name, Direction::kLowerIsBetter);
    Fingerprint fp = test_fingerprint();
    fp.compiler = name;
    docs.emplace_back("report", rep.to_json(fp));

    for (const auto& [emitter, text] : docs) {
        json::Value v;
        std::string err;
        ASSERT_TRUE(json::parse(text, v, err)) << emitter << ": " << err << "\n" << text;
        EXPECT_TRUE(holds_string(v, name)) << emitter << ":\n" << text;
    }
}

TEST(Report, EmitsVersionedSchemaWithUnitsAndRepeatStats) {
    Report rep;
    rep.set_name("bench_unit");
    rep.record("m.latency", RepeatStats::from_samples({10.0, 12.0, 11.0}), "ms",
               Direction::kLowerIsBetter);
    rep.record("m.fps", 90.0, "fps", Direction::kHigherIsBetter);

    obs::Registry reg;
    reg.add("requests", 3.0);
    reg.observe("lat", 5.0);
    rep.merge_registry(reg, "engine.");

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(rep.to_json(test_fingerprint()), doc, err)) << err;

    EXPECT_EQ(doc.str_or("schema", ""), kSchema);
    EXPECT_EQ(doc.str_or("bench", ""), "bench_unit");
    const json::Value* fp = doc.get("fingerprint");
    ASSERT_NE(fp, nullptr);
    EXPECT_EQ(fp->str_or("git_sha", ""), "deadbeef");
    EXPECT_DOUBLE_EQ(fp->num_or("skynet_threads", 0), 2.0);
    EXPECT_DOUBLE_EQ(fp->num_or("cpu_cores", 0), 8.0);

    const json::Value* metrics = doc.get("metrics");
    ASSERT_NE(metrics, nullptr);
    const json::Value* lat = metrics->get("m.latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->str_or("unit", ""), "ms");
    EXPECT_EQ(lat->str_or("direction", ""), "lower_is_better");
    EXPECT_DOUBLE_EQ(lat->num_or("repeats", 0), 3.0);
    EXPECT_DOUBLE_EQ(lat->num_or("median", 0), 11.0);
    EXPECT_DOUBLE_EQ(lat->num_or("mad", -1), 1.0);
    ASSERT_NE(lat->get("samples"), nullptr);
    EXPECT_EQ(lat->get("samples")->array.size(), 3u);

    const json::Value* reg_sec = doc.get("registry");
    ASSERT_NE(reg_sec, nullptr);
    EXPECT_DOUBLE_EQ(reg_sec->get("counters")->num_or("engine.requests", 0), 3.0);
    const json::Value* hist = reg_sec->get("histograms")->get("engine.lat");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->num_or("count", 0), 1.0);
    EXPECT_DOUBLE_EQ(hist->num_or("p50", 0), 5.0);
}

TEST(Report, ReRecordingANameReplacesIt) {
    Report rep;
    rep.record("m", 1.0, "ms", Direction::kLowerIsBetter);
    rep.record("m", 2.0, "ms", Direction::kLowerIsBetter);
    ASSERT_EQ(rep.metric_count(), 1u);
    EXPECT_DOUBLE_EQ(rep.find("m")->stats.median, 2.0);
}

// --- harness run()/finish() ------------------------------------------------

TEST(Harness, RunRecordsRepeatStatsIntoTheReport) {
    report().clear();
    const RepeatStats s = run("t.sleepless", "ms", Direction::kLowerIsBetter,
                              [] { /* ~0ms body */ }, RunOptions{3, 1, 2, 0.25});
    EXPECT_EQ(s.repeats(), 3);
    const MetricRecord* m = report().find("t.sleepless");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->unit, "ms");
    EXPECT_EQ(m->direction, Direction::kLowerIsBetter);
    EXPECT_EQ(m->stats.repeats(), 3);
    report().clear();
}

TEST(Harness, FinishWithTrailingJsonFlagIsAUsageError) {
    report().clear();
    char prog[] = "bench_x";
    char flag[] = "--json";
    char* argv[] = {prog, flag};
    EXPECT_EQ(finish(2, argv), 2);  // the old loop bound silently ignored this
    report().clear();
}

TEST(Harness, FinishWritesAParseableDocumentNamedAfterTheBinary) {
    report().clear();
    record("t.v", 1.5, "ms", Direction::kLowerIsBetter);
    std::string path = ::testing::TempDir() + "bench_finish_test.json";
    std::string flag = "--json";
    char prog[] = "/some/dir/bench_finish";
    std::vector<char*> argv = {prog, flag.data(), path.data()};
    EXPECT_EQ(finish(static_cast<int>(argv.size()), argv.data()), 0);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse_file(path, doc, err)) << err;
    EXPECT_EQ(doc.str_or("bench", ""), "bench_finish");
    EXPECT_NE(doc.get("fingerprint"), nullptr);
    EXPECT_NE(doc.get("metrics")->get("t.v"), nullptr);
    std::remove(path.c_str());
    report().clear();
}

}  // namespace
}  // namespace sky::bench
