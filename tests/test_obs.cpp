// The obs subsystem: metrics registry semantics (counters/gauges/histograms,
// thread safety), tracing spans (nesting, guard semantics, Chrome trace-event
// JSON well-formedness), the per-layer Graph profiler (layer counts vs
// Graph::node_count, transparency, detach), the pipeline-schedule trace, and
// the trainer/search integration points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "backbones/backbone.hpp"
#include "data/synth_classification.hpp"
#include "data/synth_detection.hpp"
#include "hwsim/pipeline.hpp"
#include "obs/logger.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "search/flow.hpp"
#include "skynet/detector.hpp"
#include "skynet/skynet_model.hpp"
#include "tracking/siamese.hpp"
#include "train/trainer.hpp"

namespace sky::obs {
namespace {

// --- Minimal recursive-descent JSON well-formedness checker.  Accepts
// objects/arrays/strings/numbers/true/false/null; no semantic validation.
class JsonChecker {
public:
    explicit JsonChecker(const std::string& text) : s_(text) {}

    bool valid() {
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return pos_ == s_.size();
    }

private:
    bool value() {
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }
    bool object() {
        ++pos_;  // {
        skip_ws();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (peek() != ':') return false;
            ++pos_;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }
    bool array() {
        ++pos_;  // [
        skip_ws();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }
    bool string() {
        if (peek() != '"') return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') ++pos_;
            ++pos_;
        }
        if (pos_ >= s_.size()) return false;
        ++pos_;  // closing quote
        return true;
    }
    bool number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }
    bool literal(const char* lit) {
        const std::string_view want(lit);
        if (s_.compare(pos_, want.size(), want) != 0) return false;
        pos_ += want.size();
        return true;
    }
    void skip_ws() {
        while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }
    [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    const std::string& s_;
    std::size_t pos_ = 0;
};

bool json_valid(const std::string& text) { return JsonChecker(text).valid(); }

class CaptureLogger final : public Logger {
public:
    void write(LogLevel, const std::string& msg) override { lines.push_back(msg); }
    std::vector<std::string> lines;
};

TEST(JsonChecker, SelfTest) {
    EXPECT_TRUE(json_valid(R"({"a": [1, -2.5e3, null, true], "b": {"c": "d\"e"}})"));
    EXPECT_FALSE(json_valid(R"({"a": 1)"));
    EXPECT_FALSE(json_valid(R"({"a": nan})"));
    EXPECT_FALSE(json_valid("{} trailing"));
}

// ---------------------------------------------------------------- Registry

TEST(Registry, CounterAccumulates) {
    Registry r;
    EXPECT_EQ(r.counter("hits"), 0.0);
    r.add("hits");
    r.add("hits", 2.5);
    EXPECT_DOUBLE_EQ(r.counter("hits"), 3.5);
}

TEST(Registry, GaugeOverwrites) {
    Registry r;
    r.set("loss", 1.5);
    r.set("loss", 0.25);
    EXPECT_DOUBLE_EQ(r.gauge("loss"), 0.25);
    EXPECT_DOUBLE_EQ(r.gauge("absent"), 0.0);
}

TEST(Registry, HistogramBucketsAndStats) {
    Registry r;
    r.define_histogram("ms", {1.0, 10.0, 100.0});
    r.observe("ms", 0.5);    // bucket 0 (<= 1)
    r.observe("ms", 1.0);    // bucket 0 (boundary lands low)
    r.observe("ms", 7.0);    // bucket 1
    r.observe("ms", 500.0);  // overflow bucket
    const HistogramSnapshot h = r.histogram("ms");
    ASSERT_EQ(h.counts.size(), 4u);
    EXPECT_EQ(h.counts[0], 2u);
    EXPECT_EQ(h.counts[1], 1u);
    EXPECT_EQ(h.counts[2], 0u);
    EXPECT_EQ(h.counts[3], 1u);
    EXPECT_EQ(h.count, 4u);
    EXPECT_DOUBLE_EQ(h.sum, 508.5);
    EXPECT_DOUBLE_EQ(h.min, 0.5);
    EXPECT_DOUBLE_EQ(h.max, 500.0);
    EXPECT_DOUBLE_EQ(h.mean(), 508.5 / 4.0);
}

TEST(Registry, UndeclaredHistogramGetsDefaultBounds) {
    Registry r;
    r.observe("t", 5.0);
    const HistogramSnapshot h = r.histogram("t");
    EXPECT_EQ(h.bounds, Registry::default_bounds());
    EXPECT_EQ(h.counts.size(), h.bounds.size() + 1);
    EXPECT_EQ(h.count, 1u);
}

TEST(Registry, JsonIsWellFormedAndComplete) {
    Registry r;
    r.add("count \"quoted\"", 2);
    r.set("gauge", -1.5);
    r.set("nonfinite", std::numeric_limits<double>::quiet_NaN());
    r.observe("hist", 3.0);
    const std::string json = r.to_json();
    EXPECT_TRUE(json_valid(json)) << json;
    EXPECT_NE(json.find("\"gauge\": -1.5"), std::string::npos);
    EXPECT_NE(json.find("null"), std::string::npos);  // NaN serialised as null
    // Empty registry is also a valid document.
    EXPECT_TRUE(json_valid(Registry{}.to_json()));
}

TEST(Registry, CsvHasOneLinePerMetric) {
    Registry r;
    r.add("a");
    r.set("b", 2.0);
    r.observe("c", 1.0);
    const std::string csv = r.to_csv();
    EXPECT_NE(csv.find("counter,a,1"), std::string::npos);
    EXPECT_NE(csv.find("gauge,b,2"), std::string::npos);
    EXPECT_NE(csv.find("histogram,c,,1,"), std::string::npos);
    EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 4);  // header+3
}

TEST(Registry, CsvQuotesNamesPerRfc4180) {
    Registry r;
    r.set("plain.name", 1.0);
    r.set("with,comma", 2.0);
    r.set("with\"quote", 3.0);
    r.add("multi\nline");
    const std::string csv = r.to_csv();
    // Unremarkable names stay bare; names with separators are quoted with
    // doubled inner quotes, so every row still has exactly 6 commas.
    EXPECT_NE(csv.find("gauge,plain.name,1"), std::string::npos);
    EXPECT_NE(csv.find("gauge,\"with,comma\",2"), std::string::npos);
    EXPECT_NE(csv.find("gauge,\"with\"\"quote\",3"), std::string::npos);
    EXPECT_NE(csv.find("counter,\"multi\nline\",1"), std::string::npos);
    std::istringstream rows(csv);
    std::string row;
    std::getline(rows, row);  // header
    EXPECT_EQ(static_cast<int>(std::count(row.begin(), row.end(), ',')), 6);
}

TEST(HistogramPercentile, EmptyHistogramIsZero) {
    const HistogramSnapshot empty;
    EXPECT_EQ(empty.percentile(0.0), 0.0);
    EXPECT_EQ(empty.percentile(0.5), 0.0);
    EXPECT_EQ(empty.percentile(1.0), 0.0);
}

TEST(HistogramPercentile, SingleObservationReturnsThatValue) {
    Registry r;
    r.observe("h", 7.5);
    const HistogramSnapshot h = r.histogram("h");
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 7.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 7.5);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 7.5);
}

TEST(HistogramPercentile, OutOfRangeQuantilesClampToObservedMinMax) {
    Registry r;
    for (const double v : {1.0, 2.0, 3.0, 50.0, 900.0}) r.observe("h", v);
    const HistogramSnapshot h = r.histogram("h");
    // q outside [0,1] clamps, and q=0 / q=1 never escape the observed range.
    EXPECT_DOUBLE_EQ(h.percentile(-0.5), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(1.5), h.percentile(1.0));
    EXPECT_GE(h.percentile(0.0), 1.0);
    EXPECT_LE(h.percentile(1.0), 900.0);
    for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        EXPECT_GE(h.percentile(q), h.min) << q;
        EXPECT_LE(h.percentile(q), h.max) << q;
    }
    // Monotone in q.
    EXPECT_LE(h.percentile(0.25), h.percentile(0.75));
}

TEST(Registry, ClearEmptiesEverything) {
    Registry r;
    r.add("a");
    r.set("b", 1.0);
    r.observe("c", 1.0);
    r.clear();
    const RegistrySnapshot snap = r.snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.gauges.empty());
    EXPECT_TRUE(snap.histograms.empty());
}

TEST(Registry, ConcurrentCountersDontDropIncrements) {
    Registry r;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&r] {
            for (int i = 0; i < kPerThread; ++i) {
                r.add("shared");
                r.observe("obs", 1.0);
            }
        });
    for (auto& th : threads) th.join();
    EXPECT_DOUBLE_EQ(r.counter("shared"), kThreads * kPerThread);
    EXPECT_EQ(r.histogram("obs").count,
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

// ---------------------------------------------------------------- Tracing

TEST(Trace, SpanWithoutSessionIsNoop) {
    set_trace_session(nullptr);
    { Span span("orphan"); }  // must not crash or record anywhere
    TraceSession session;
    EXPECT_EQ(session.size(), 0u);
}

TEST(Trace, SpansNestWithinEnclosingInterval) {
    TraceSession session;
    {
        TraceGuard guard(session);
        Span outer("outer", "test");
        {
            Span inner("inner", "test");
        }
    }
    const std::vector<TraceEvent> evs = session.events();
    ASSERT_EQ(evs.size(), 2u);
    // Inner span ends (and records) first.
    EXPECT_EQ(evs[0].name, "inner");
    EXPECT_EQ(evs[1].name, "outer");
    EXPECT_GE(evs[0].ts_us, evs[1].ts_us);
    EXPECT_LE(evs[0].ts_us + evs[0].dur_us, evs[1].ts_us + evs[1].dur_us + 1e-6);
    EXPECT_GE(evs[0].dur_us, 0.0);
}

TEST(Trace, GuardRestoresPreviousSession) {
    TraceSession a, b;
    TraceGuard ga(a);
    {
        TraceGuard gb(b);
        EXPECT_EQ(trace_session(), &b);
        Span span("in-b");
    }
    EXPECT_EQ(trace_session(), &a);
    Span span("in-a");
    span.end();
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(a.size(), 1u);
}

TEST(Trace, JsonIsChromeTraceEventFormat) {
    TraceSession session;
    session.record("stage \"x\"", "pipeline", 1.5, 2.5, 3);
    {
        TraceGuard guard(session);
        Span span("measured");
    }
    const std::string json = session.to_json();
    EXPECT_TRUE(json_valid(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": "), std::string::npos);
    EXPECT_NE(json.find("\"dur\": "), std::string::npos);
    EXPECT_TRUE(json_valid(TraceSession{}.to_json()));  // empty session too
}

TEST(Trace, ExplicitEndRecordsOnceAndClearWorks) {
    TraceSession session;
    TraceGuard guard(session);
    {
        Span span("once");
        span.end();
        span.end();  // second end is a no-op
    }
    EXPECT_EQ(session.size(), 1u);
    session.clear();
    EXPECT_EQ(session.size(), 0u);
}

// ------------------------------------------------------- Pipeline schedule

TEST(PipelineTrace, ExportsOneEventPerStagePerBatch) {
    const std::vector<hwsim::PipelineStage> stages = {
        {"fetch", 2.0}, {"infer", 5.0}, {"post", 1.0}};
    TraceSession trace;
    const hwsim::PipelineReport with =
        hwsim::simulate_pipeline(stages, 4, 6, &trace);
    const hwsim::PipelineReport without = hwsim::simulate_pipeline(stages, 4, 6);
    EXPECT_EQ(trace.size(), stages.size() * 6);
    // The trace is an observer: the report must be identical.
    EXPECT_DOUBLE_EQ(with.makespan_ms, without.makespan_ms);
    EXPECT_DOUBLE_EQ(with.speedup, without.speedup);

    const std::vector<TraceEvent> evs = trace.events();
    // Batch 1 of the bottleneck stage starts exactly when batch 0 finishes,
    // and downstream stages overlap upstream ones — the Fig. 10 schedule.
    double infer_b0_end = 0.0, infer_b1_start = -1.0;
    for (const TraceEvent& e : evs) {
        if (e.name == "infer b0") infer_b0_end = e.ts_us + e.dur_us;
        if (e.name == "infer b1") infer_b1_start = e.ts_us;
        EXPECT_GE(e.dur_us, 0.0);
    }
    EXPECT_DOUBLE_EQ(infer_b1_start, infer_b0_end);
    EXPECT_TRUE(json_valid(trace.to_json()));
}

// ------------------------------------------------------------- Profiler

int module_node_count(const nn::Graph& g) {
    int n = 0;
    for (std::size_t i = 0; i < g.node_count(); ++i)
        if (g.node_kind(i) == nn::Graph::NodeKind::kModule) ++n;
    return n;
}

TEST(GraphProfiler, LayerCountMatchesGraphIntrospection) {
    Rng rng(3);
    SkyNetModel model = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    GraphProfiler profiler(*model.net);
    EXPECT_EQ(static_cast<int>(profiler.layer_count()), module_node_count(*model.net));
    EXPECT_LT(profiler.layer_count(), model.net->node_count());  // input/concat unwrapped
}

TEST(GraphProfiler, RecordsForwardBackwardAndMacs) {
    Rng rng(4);
    SkyNetModel model = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    const Shape in{1, 3, 32, 64};
    GraphProfiler profiler(*model.net);
    Rng dr(5);
    Tensor x({1, 3, 32, 64});
    x.rand_uniform(dr, 0.0f, 1.0f);
    Tensor y = model.net->forward(x);
    Tensor grad(y.shape());
    grad.rand_uniform(dr, -1.0f, 1.0f);
    (void)model.net->backward(grad);

    std::int64_t macs_sum = 0;
    for (const LayerProfile& p : profiler.profiles()) {
        EXPECT_EQ(p.fwd_calls, 1) << p.name;
        EXPECT_EQ(p.bwd_calls, 1) << p.name;
        EXPECT_GE(p.fwd_ms, 0.0);
        macs_sum += p.macs;
    }
    // Per-layer MACs at the observed shapes sum to the graph total (concat /
    // add nodes cost no MACs).
    EXPECT_EQ(macs_sum, model.net->macs(in));
    EXPECT_GT(profiler.total_forward_ms(), 0.0);
    EXPECT_GT(profiler.total_backward_ms(), 0.0);
    EXPECT_TRUE(json_valid(profiler.to_json()));
}

TEST(GraphProfiler, IsTransparentAndDetachRestores) {
    Rng rng(6);
    SkyNetModel model = build_skynet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    model.net->set_training(false);
    Rng dr(7);
    Tensor x({1, 3, 32, 64});
    x.rand_uniform(dr, 0.0f, 1.0f);
    const Tensor before = model.net->forward(x);
    const std::int64_t params_before = model.net->param_count();

    {
        GraphProfiler profiler(*model.net);
        const Tensor during = model.net->forward(x);
        ASSERT_EQ(during.size(), before.size());
        for (std::int64_t i = 0; i < before.size(); ++i)
            ASSERT_EQ(during[i], before[i]) << "profiled forward diverged at " << i;
        EXPECT_EQ(model.net->param_count(), params_before);
    }  // destructor detaches

    const Tensor after = model.net->forward(x);
    for (std::int64_t i = 0; i < before.size(); ++i)
        ASSERT_EQ(after[i], before[i]) << "detached forward diverged at " << i;
    // All shims are gone: module names are the originals.
    for (std::size_t i = 0; i < model.net->node_count(); ++i) {
        if (const nn::Module* m = model.net->node_module(i)) {
            EXPECT_EQ(m->name().find("Profiled"), std::string::npos);
        }
    }
}

TEST(GraphProfiler, ShowsFusedEpiloguesAndKeepsTheForwardBitwise) {
    Rng rng(12);
    Detector det({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.25f}, rng);
    (void)det.fold_bn();
    nn::Graph& g = det.net();
    Rng dr(13);
    Tensor x({1, 3, 32, 64});
    x.rand_uniform(dr, 0.0f, 1.0f);
    const Tensor plain = det.forward(x);
    GraphProfiler profiler(g);
    const Tensor profiled = det.forward(x);
    ASSERT_EQ(profiled.shape(), plain.shape());
    for (std::int64_t i = 0; i < plain.size(); ++i)
        ASSERT_EQ(profiled[i], plain[i]) << "profiled forward diverged at " << i;
    // The shims pass the graph's tensors through: a second profiled forward
    // writes every node value into the buffer the first one wrote.
    const auto node_buffers = [&g] {
        std::vector<const float*> out;
        for (std::size_t i = 0; i < g.node_count(); ++i) {
            try {
                out.push_back(g.node_output(static_cast<int>(i)).data());
            } catch (const std::logic_error&) {  // overwritten by a fused epilogue
                out.push_back(nullptr);
            }
        }
        return out;
    };
    const std::vector<const float*> first = node_buffers();
    const Tensor again = det.forward(x);
    EXPECT_EQ(node_buffers(), first);
    for (std::int64_t i = 0; i < plain.size(); ++i)
        ASSERT_EQ(again[i], plain[i]) << "second profiled forward diverged at " << i;
    int fused = 0, pools = 0;
    for (const LayerProfile& p : profiler.profiles()) {
        const bool epilogue = p.kind == "act" || p.kind == "identity";
        EXPECT_EQ(p.fwd_calls == 0, p.fused_into >= 0) << p.node << " " << p.name;
        // The pools of Bundles 1 and 2 fold into their pwconvs; Bundle 3's
        // output also feeds the bypass, so its pool runs.
        if (p.kind == "pool") {
            pools += p.fused_into >= 0 ? 1 : 0;
        } else {
            EXPECT_EQ(p.fused_into >= 0, epilogue) << p.node << " " << p.name;
        }
        if (p.fused_into >= 0) {
            ++fused;
            // The carrier is the producer that ran and applied the epilogue.
            EXPECT_EQ(p.fused_into, g.node_carrier(p.node));
            const nn::Module* carrier = g.node_module(static_cast<std::size_t>(p.fused_into));
            EXPECT_FALSE(carrier->as_epilogue());
            if (p.kind == "pool") {
                EXPECT_EQ(carrier->kind(), "pwconv") << p.node;
            }
        }
    }
    EXPECT_GT(fused, 0);
    EXPECT_EQ(pools, 2);
    const std::string json = profiler.to_json();
    EXPECT_NE(json.find("\"fused_into\": -1"), std::string::npos);
    EXPECT_NE(json.find("\"fused_into\": 1}"), std::string::npos);  // identity -> dwconv 1
    // The shim reads no output value: no output statistics are reported.
    EXPECT_EQ(json.find("out_mean"), std::string::npos);
    EXPECT_EQ(json.find("out_absmax"), std::string::npos);
    EXPECT_TRUE(json_valid(json));
}

/// node_carrier of every node of `g` after its last forward.
std::vector<int> carriers(const nn::Graph& g) {
    std::vector<int> out;
    for (std::size_t i = 0; i < g.node_count(); ++i)
        out.push_back(g.node_carrier(static_cast<int>(i)));
    return out;
}

TEST(GraphProfiler, AttachingLeavesTheFusionPlanAsItWas) {
    // The shim forwards as_epilogue(), accepts_affine() and accepts_pool(),
    // so nn::Graph's plan sees through it: every node has the same carrier
    // with a profiler attached as without, and each eval BatchNorm of an
    // unfolded model reports fused_into the conv that ran it.
    Rng dr(14);
    Tensor x({1, 3, 32, 64});
    x.rand_uniform(dr, 0.0f, 1.0f);
    const auto check_bns = [](const GraphProfiler& profiler, const nn::Graph& g,
                              const std::string& what) -> int {
        int bns = 0;
        for (const LayerProfile& p : profiler.profiles()) {
            if (p.kind != "bn") continue;
            ++bns;
            EXPECT_EQ(p.fwd_calls, 0) << what << " node " << p.node;
            EXPECT_GE(p.fused_into, 0) << what << " node " << p.node;
            if (p.fused_into < 0) continue;
            const std::string conv =
                g.node_module(static_cast<std::size_t>(p.fused_into))->kind();
            EXPECT_TRUE(conv == "dwconv" || conv == "pwconv") << what << " " << conv;
        }
        return bns;
    };
    for (SkyNetVariant v : {SkyNetVariant::kA, SkyNetVariant::kB, SkyNetVariant::kC})
        for (bool folded : {false, true}) {
            Rng rng(15);
            Detector det({v, nn::Act::kReLU6, 2, 0.25f}, rng);
            if (folded) (void)det.fold_bn();
            const std::string what = std::string(variant_name(v)) + (folded ? "/folded" : "");
            (void)det.forward(x);
            const std::vector<int> plain = carriers(det.net());
            GraphProfiler profiler(det.net());
            (void)det.forward(x);
            EXPECT_EQ(carriers(det.net()), plain) << what;
            const int bns = folded ? 0 : v == SkyNetVariant::kA ? 10 : 12;
            EXPECT_EQ(check_bns(profiler, det.net(), what), bns) << what;
        }
    Rng rng(16);
    SkyNetModel bb = build_skynet_backbone(0.25f, nn::Act::kReLU6, rng);
    const int channels = bb.feature_channels();
    const nn::Graph& backbone = *bb.net;
    tracking::SiameseEmbed embed(std::move(bb.net), channels, 16, rng);
    embed.set_training(false);
    Tensor crop({1, 3, 32, 32});
    crop.rand_uniform(dr, 0.0f, 1.0f);
    (void)embed.forward(crop);
    const std::vector<int> plain = carriers(embed.net()), plain_bb = carriers(backbone);
    GraphProfiler profiler(embed.net());
    (void)embed.forward(crop);
    EXPECT_EQ(carriers(embed.net()), plain);
    EXPECT_EQ(carriers(backbone), plain_bb);
    EXPECT_EQ(check_bns(profiler, embed.net(), "embed"), 1);  // the neck's
}

TEST(GraphProfiler, ResetZeroesAccumulators) {
    Rng rng(8);
    SkyNetModel model = build_skynet({SkyNetVariant::kA, nn::Act::kReLU, 2, 0.25f}, rng);
    GraphProfiler profiler(*model.net);
    Rng dr(9);
    Tensor x({1, 3, 16, 32});
    x.rand_uniform(dr, 0.0f, 1.0f);
    (void)model.net->forward(x);
    profiler.reset();
    for (const LayerProfile& p : profiler.profiles()) {
        EXPECT_EQ(p.fwd_calls, 0);
        EXPECT_EQ(p.fwd_ms, 0.0);
    }
}

TEST(GraphProfiler, EmitsLayerSpansIntoInstalledTrace) {
    Rng rng(10);
    SkyNetModel model = build_skynet({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.25f}, rng);
    GraphProfiler profiler(*model.net);
    TraceSession session;
    {
        TraceGuard guard(session);
        Rng dr(11);
        Tensor x({1, 3, 16, 32});
        x.rand_uniform(dr, 0.0f, 1.0f);
        (void)model.net->forward(x);
    }
    EXPECT_EQ(session.size(), profiler.layer_count());
    EXPECT_TRUE(json_valid(session.to_json()));
}

// ---------------------------------------------------------- Logger / train

TEST(Logger, ResolvePrecedence) {
    CaptureLogger capture;
    EXPECT_EQ(&resolve(&capture, false), &capture);  // explicit sink wins
    EXPECT_EQ(&resolve(nullptr, false), &null_logger());
    EXPECT_EQ(&resolve(nullptr, true), &stdout_logger());
}

TEST(Logger, FormatsMessages) {
    CaptureLogger capture;
    capture.infof("step %d loss %.2f", 7, 0.5);
    ASSERT_EQ(capture.lines.size(), 1u);
    EXPECT_EQ(capture.lines[0], "step 7 loss 0.50");
}

TEST(TrainObs, DetectorEmitsMetricsLogsAndSpans) {
    Rng rng(12);
    SkyNetModel model = build_skynet({SkyNetVariant::kA, nn::Act::kReLU6, 2, 0.25f}, rng);
    data::DetectionDataset ds({32, 64, 1, false, 13});
    train::DetectTrainConfig cfg;
    cfg.steps = 3;
    cfg.batch = 2;
    cfg.val_images = 4;
    cfg.multi_scale = false;
    Registry metrics;
    CaptureLogger log;
    cfg.metrics = &metrics;
    cfg.log = &log;
    TraceSession session;
    Rng tr(14);
    {
        TraceGuard guard(session);
        (void)train::train_detector(*model.net, model.head, ds, cfg, tr);
    }
    EXPECT_DOUBLE_EQ(metrics.counter("train.detect.steps"), 3.0);
    EXPECT_EQ(metrics.histogram("train.detect.step_ms").count, 3u);
    EXPECT_GT(metrics.histogram("train.detect.step_ms").sum, 0.0);
    EXPECT_NE(metrics.gauge("train.detect.val_iou"), 0.0);
    EXPECT_FALSE(log.lines.empty());
    EXPECT_NE(log.lines[0].find("step"), std::string::npos);
    // 3 step spans + 1 validation span.
    EXPECT_EQ(session.size(), 4u);
    EXPECT_TRUE(json_valid(session.to_json()));
}

TEST(TrainObs, ClassifierEmitsMetrics) {
    Rng rng(15);
    nn::ModulePtr net = backbones::build_alexnet_classifier(10, 16, 0.12f, rng);
    data::ClassificationDataset ds({16, 10, 0.05f, 0.4f, 17});
    train::ClassifyTrainConfig cfg;
    cfg.steps = 2;
    cfg.batch = 4;
    cfg.val_images = 8;
    Registry metrics;
    CaptureLogger log;
    cfg.metrics = &metrics;
    cfg.log = &log;
    (void)train::train_classifier(*net, ds, cfg);
    EXPECT_DOUBLE_EQ(metrics.counter("train.classify.steps"), 2.0);
    EXPECT_EQ(metrics.histogram("train.classify.step_ms").count, 2u);
    EXPECT_NE(metrics.gauge("train.classify.loss"), 0.0);
    EXPECT_FALSE(log.lines.empty());
}

// ------------------------------------------------------------- run_flow

TEST(FlowObs, RunFlowEmitsStageSpansAndTraceJson) {
    data::DetectionDataset dataset({32, 64, 1, false, 21});
    hwsim::GpuModel gpu(hwsim::tx2());
    hwsim::FpgaModel fpga(hwsim::ultra96());

    search::FlowConfig cfg;
    cfg.stage1.train_steps = 2;
    cfg.stage1.train_batch = 2;
    cfg.stage1.sketch_stacks = 1;
    cfg.stage2.iterations = 1;
    cfg.stage2.particles_per_group = 1;
    cfg.stage2.stack_len = 2;
    cfg.stage2.base_train_steps = 2;
    cfg.stage2.train_batch = 2;
    cfg.stage2.val_images = 4;
    cfg.stage3_train_steps = 2;
    cfg.stage3_batch = 2;
    cfg.max_groups = 1;
    CaptureLogger log;
    cfg.log = &log;

    TraceSession session;
    {
        TraceGuard guard(session);
        const search::FlowResult res = search::run_flow(dataset, gpu, fpga, cfg);
        EXPECT_EQ(res.stage3.size(), 3u);
    }
    const std::string json = session.to_json();
    EXPECT_TRUE(json_valid(json)) << json;
    std::vector<std::string> want = {"flow/stage1-bundle-selection", "flow/stage2-pso",
                                     "flow/stage3-feature-addition", "flow"};
    std::vector<TraceEvent> evs = session.events();
    for (const std::string& name : want) {
        bool found = false;
        for (const TraceEvent& e : evs) found = found || e.name == name;
        EXPECT_TRUE(found) << "missing span " << name;
    }
    // The stage spans sit inside the whole-flow span.
    double flow_dur = 0.0, stage_sum = 0.0;
    for (const TraceEvent& e : evs) {
        if (e.name == "flow") flow_dur = e.dur_us;
        if (e.name.rfind("flow/", 0) == 0) stage_sum += e.dur_us;
    }
    EXPECT_GT(flow_dur, 0.0);
    EXPECT_LE(stage_sum, flow_dur);
    // The explicit logger captured every stage's progress lines.
    EXPECT_FALSE(log.lines.empty());
    bool saw_stage1 = false;
    for (const auto& line : log.lines) saw_stage1 = saw_stage1 || line.find("Stage 1") == 0;
    EXPECT_TRUE(saw_stage1);
}

}  // namespace
}  // namespace sky::obs
