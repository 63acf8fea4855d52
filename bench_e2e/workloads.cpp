// The three bench_e2e workloads: construction (setup_s), the timed traffic,
// the oracle checks, and the per-layer numbers only the workload itself can
// give — serve stage times, resize at its frame size and the setup
// breakdown.  README.md records why each workload exists.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "core/simd.hpp"
#include "core/thread_pool.hpp"
#include "data/augment.hpp"
#include "data/synth_detection.hpp"
#include "data/synth_tracking.hpp"
#include "e2e.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "skynet/detector.hpp"
#include "tracking/tracker.hpp"

namespace e2e {
namespace {

using namespace sky;
using bench::Direction;

enum class Kind { kClosedLoop, kTrack };

struct Spec {
    const char* name = "";
    Kind kind = Kind::kClosedLoop;
    bool int8 = false;  ///< serve Detector::quantize(QuantConfig{})
    int frame_h = 0;
    int frame_w = 0;
    int pool = 0;        ///< distinct input frames (tracking: sequences)
    int seq_frames = 0;  ///< tracking sequence length
};

const Spec kSpecs[] = {
    {.name = "dacsdc_fp32", .kind = Kind::kClosedLoop, .int8 = false, .frame_h = 360,
     .frame_w = 640, .pool = 16},
    {.name = "dacsdc_int8", .kind = Kind::kClosedLoop, .int8 = true, .frame_h = 360,
     .frame_w = 640, .pool = 16},
    {.name = "track_siam", .kind = Kind::kTrack, .frame_h = 256, .frame_w = 256, .pool = 4,
     .seq_frames = 48},
};

// serve::Engine settings of the closed loop.  A full queue blocks submit()
// (kBlock), so no request fails.
constexpr int kMaxBatch = 4;
constexpr double kMaxDelayMs = 2.0;
constexpr std::size_t kQueue = 16;
constexpr int kInFlight = 16;  ///< requests kept outstanding

/// Frames checked against the slow oracles: int8 against the reference
/// interpreter, fp32 against the scalar kernels.
constexpr int kOracleFrames = 2;

/// Closed loop: throughput is the median rate over slices of this many
/// consecutive results — four full batches — so a stall of the host moves
/// one slice, not the run's number.
constexpr int kSliceResults = 16;

const Spec& find_spec(const std::string& name) {
    for (const Spec& s : kSpecs)
        if (name == s.name) return s;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

bool same_box(const detect::BBox& a, const detect::BBox& b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_tensor(const Tensor& a, const Tensor& b) {
    const auto bytes = static_cast<std::size_t>(a.size()) * sizeof(float);
    return a.shape() == b.shape() && std::memcmp(a.data(), b.data(), bytes) == 0;
}

/// Inputs come from the repo's synthetic datasets at the run's seed, so every
/// pixel lies in [0, 1] — the range the int8 engine is compiled for — and the
/// same seed always gives the same frames.
std::vector<Tensor> make_frames(const Spec& s, std::uint64_t seed) {
    data::DetectionDataset::Config dc;
    dc.height = s.frame_h;
    dc.width = s.frame_w;
    dc.seed = seed;
    const data::DetectionDataset ds(dc);
    Rng rng(seed);
    std::vector<Tensor> frames;
    for (int i = 0; i < s.pool; ++i) frames.push_back(ds.sample(rng).image);
    return frames;
}

std::vector<data::TrackingSequence> make_sequences(const Spec& s, std::uint64_t seed) {
    data::TrackingDataset::Config tc;
    tc.height = s.frame_h;
    tc.width = s.frame_w;
    tc.frames = s.seq_frames;
    tc.seed = seed;
    data::TrackingDataset ds(tc);
    std::vector<data::TrackingSequence> seqs;
    for (int i = 0; i < s.pool; ++i) seqs.push_back(ds.next());
    return seqs;
}

/// Wall time of one construction, by stage.
struct SetupTimes {
    double build_ms = 0.0;  ///< build + verify + prepack (+ BN fold)
    double quantize_ms = 0.0;
    double engine_start_ms = 0.0;
    double first_result_ms = 0.0;

    [[nodiscard]] double total_s() const {
        return (build_ms + quantize_ms + engine_start_ms + first_result_ms) / 1e3;
    }
};

/// The served detector.  Weights are random from the seed: the cost of a
/// forward pass does not depend on them.
std::unique_ptr<Detector> make_detector(const Spec& s, std::uint64_t seed,
                                        quant::QExecution execution, SetupTimes& t) {
    const Clock::time_point t0 = Clock::now();
    Rng rng(seed);
    auto det = std::make_unique<Detector>(skynet_c(), rng);
    det->fold_bn();
    const Clock::time_point t1 = Clock::now();
    if (s.int8) (void)det->quantize(quant::QuantConfig{}.with_execution(execution));
    t.build_ms = ms_between(t0, t1);
    t.quantize_ms = ms_between(t1, Clock::now());
    return det;
}

serve::ServeConfig serve_config(obs::Registry* metrics) {
    serve::ServeConfig c;
    c.max_batch = kMaxBatch;
    c.max_delay_ms = kMaxDelayMs;
    c.queue_capacity = kQueue;
    c.target_h = kModelH;
    c.target_w = kModelW;
    c.metrics = metrics;
    return c;
}

struct DetectStack {
    std::unique_ptr<Detector> det;
    std::unique_ptr<serve::Engine> engine;  // borrows *det

    void reset() {
        engine.reset();
        det.reset();
    }
};

/// Construction to first box: detector, engine start, one warm-up result.
DetectStack construct(const Spec& s, std::uint64_t seed, const Tensor& frame, SetupTimes& t) {
    DetectStack st;
    st.det = make_detector(s, seed, quant::QExecution::kAuto, t);
    const Clock::time_point t0 = Clock::now();
    st.engine = std::make_unique<serve::Engine>(*st.det, serve_config(nullptr));
    st.engine->start();
    const Clock::time_point t1 = Clock::now();
    Tensor img = frame;
    (void)st.engine->submit(std::move(img)).get();
    t.engine_start_ms = ms_between(t0, t1);
    t.first_result_ms = ms_between(t1, Clock::now());
    return st;
}

std::unique_ptr<tracking::SiamTracker> make_tracker(std::uint64_t seed) {
    Rng rng(seed);
    SkyNetModel backbone = build_skynet_backbone(1.0f, nn::Act::kReLU6, rng);
    const int channels = backbone.feature_channels();
    tracking::SiameseEmbed embed(std::move(backbone.net), channels, kTrackEmbedDim, rng);
    tracking::TrackerConfig tc;
    tc.crop_size = kTrackCrop;
    tc.kernel_cells = kTrackKernelCells;
    return std::make_unique<tracking::SiamTracker>(std::move(embed), tc, rng);
}

/// One request (tracking: one track() call) of a timed window.
struct Outcome {
    int frame = 0;            ///< pool index (tracking: sequence index)
    bool ok = false;          ///< resolved with a result
    bool in_window = false;   ///< counts towards the window's metrics
    double latency_ms = 0.0;  ///< sent -> result; tracking: call time per tracked frame
    serve::DetectResult result;
    std::vector<detect::BBox> boxes;  ///< tracking only
};

struct Window {
    std::vector<Outcome> outcomes;  ///< every request sent, in send order
    /// Results per second of each slice of the window: kSliceResults
    /// consecutive results (tracking: one track() call).
    std::vector<double> slice_fps;
};

/// DAC-SDC offline stream: kInFlight requests outstanding, a new frame sent
/// the moment the oldest result returns (the engine completes in FIFO order),
/// so one thread is the whole load generator.  The window opens once the
/// first kInFlight results are back — the pipeline is full and warm — and
/// closes at the first result `seconds` later; what is still in flight then
/// drains outside it.
Window closed_loop(serve::Engine& engine, const std::vector<Tensor>& pool, double seconds) {
    struct Pending {
        std::future<serve::DetectResult> fut;
        Clock::time_point sent;
        int frame = 0;
        std::int64_t index = 0;
    };
    std::deque<Pending> pending;
    Window w;
    std::int64_t sent = 0;
    std::int64_t done = 0;
    Clock::time_point open{};
    Clock::time_point slice_start{};
    int in_slice = 0;
    bool opened = false;
    bool closed = false;
    for (;;) {
        if (!closed && pending.size() < static_cast<std::size_t>(kInFlight)) {
            Pending p;
            p.frame = static_cast<int>(sent % static_cast<std::int64_t>(pool.size()));
            p.index = sent++;
            Tensor img = pool[static_cast<std::size_t>(p.frame)];  // not part of the latency
            BenchSpan span("submit", p.index, kLaneGenerator);
            p.sent = Clock::now();
            p.fut = engine.submit(std::move(img));
            pending.push_back(std::move(p));
            continue;
        }
        if (pending.empty()) break;
        Pending p = std::move(pending.front());
        pending.pop_front();
        Outcome o;
        o.frame = p.frame;
        {
            BenchSpan span("get", p.index, kLaneGenerator);
            try {
                o.result = p.fut.get();
                o.ok = true;
            } catch (const std::exception&) {
                o.ok = false;
            }
        }
        const Clock::time_point now = Clock::now();
        o.latency_ms = ms_between(p.sent, now);
        if (++done == kInFlight) {
            opened = true;
            open = slice_start = now;
        } else if (opened && !closed) {
            o.in_window = true;
            if (o.ok && ++in_slice == kSliceResults) {
                w.slice_fps.push_back(in_slice * 1e3 / ms_between(slice_start, now));
                slice_start = now;
                in_slice = 0;
            }
            closed = ms_between(open, now) >= seconds * 1e3;
        }
        w.outcomes.push_back(std::move(o));
    }
    return w;
}

/// Siamese tracking: whole sequences through track(), cycling over the pool
/// until `seconds` have passed.  Latency is each call's time per tracked
/// frame (frame 0 only initialises the exemplar).
Window track_loop(tracking::SiamTracker& tracker,
                  const std::vector<data::TrackingSequence>& seqs, double seconds) {
    Window w;
    const Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    for (std::int64_t call = 0; ms_between(start, now) < seconds * 1e3; ++call) {
        const auto si = static_cast<std::size_t>(call) % seqs.size();
        const Clock::time_point t0 = Clock::now();
        Outcome o;
        {
            BenchSpan span("track", call, kLaneGenerator);
            o.boxes = tracker.track(seqs[si]);
        }
        now = Clock::now();
        const auto tracked = static_cast<double>(seqs[si].size() - 1);
        o.frame = static_cast<int>(si);
        o.ok = true;
        o.in_window = true;
        o.latency_ms = ms_between(t0, now) / tracked;
        w.slice_fps.push_back(tracked * 1e3 / ms_between(t0, now));
        w.outcomes.push_back(std::move(o));
    }
    return w;
}

/// Restores the kernel SIMD level on scope exit.
struct SimdLevelGuard {
    core::SimdLevel level = core::active_simd_level();
    ~SimdLevelGuard() { core::set_simd_level(level); }
};

/// Restores the kernel pool size on scope exit.
struct PoolSizeGuard {
    int threads = core::ThreadPool::global().size();
    ~PoolSizeGuard() { core::ThreadPool::set_global_threads(threads); }
};

/// Oracle checks of the detection workloads, run after every timed window.
void check_detect(const Spec& s, std::uint64_t seed, Detector& det,
                  const std::vector<Tensor>& pool, const std::vector<const Window*>& windows,
                  Tally& tally) {
    // Batch invariance: every engine result equals, bitwise, a serial
    // detect() of its pool frame.  Every workload frame is at least twice the
    // model input in both dimensions, which is when the engine's preprocess
    // stage area-resizes.
    std::vector<Tensor> inputs;
    std::vector<detect::BBox> expected;
    for (const Tensor& f : pool) {
        inputs.push_back(data::resize_area(f, kModelH, kModelW));
        expected.push_back(det.detect(inputs.back()));
    }
    std::int64_t wrong = 0;
    for (const Window* w : windows)
        for (const Outcome& o : w->outcomes)
            if (o.ok && !same_box(o.result.box, expected[static_cast<std::size_t>(o.frame)]))
                ++wrong;
    if (wrong > 0)
        tally.fail(std::to_string(wrong) + " engine results differ from a serial detect()",
                   wrong);

    // int8: bit-true against the reference integer interpreter.
    if (s.int8) {
        SetupTimes unused;
        const std::unique_ptr<Detector> reference =
            make_detector(s, seed, quant::QExecution::kReference, unused);
        for (int i = 0; i < kOracleFrames; ++i) {
            const Tensor& x = inputs[static_cast<std::size_t>(i)];
            if (!same_tensor(det.forward(x), reference->forward(x)))
                tally.fail("int8 head map of frame " + std::to_string(i) +
                           " differs from the reference interpreter");
        }
        return;
    }

    // fp32: the SIMD kernels against the scalar ones, within tolerance.
    for (int i = 0; i < kOracleFrames; ++i) {
        const Tensor& x = inputs[static_cast<std::size_t>(i)];
        const Tensor fast = det.forward(x);
        Tensor slow;
        {
            SimdLevelGuard restore;
            core::set_simd_level(core::SimdLevel::kScalar);
            slow = det.forward(x);
        }
        float diff = 0.0f;
        for (std::int64_t k = 0; k < fast.size(); ++k)
            diff = std::max(diff, std::abs(fast[k] - slow[k]));
        const float iou = detect::iou(det.head().decode(fast)[0], det.head().decode(slow)[0]);
        if (diff > 1e-4f * (1.0f + slow.abs_max()) || iou < 0.99f)
            tally.fail("fp32 frame " + std::to_string(i) + ": SIMD vs scalar max |diff| " +
                       std::to_string(diff) + ", box IoU " + std::to_string(iou));
    }
}

/// track() is a pure function of the sequence and the weights: every call on
/// a sequence must give the same boxes, bitwise, and so must one kernel
/// thread against the pool.
void check_track(tracking::SiamTracker& tracker,
                 const std::vector<data::TrackingSequence>& seqs,
                 const std::vector<const Window*>& windows, Tally& tally) {
    std::vector<const std::vector<detect::BBox>*> expected(seqs.size(), nullptr);
    std::int64_t wrong = 0;
    for (const Window* w : windows)
        for (const Outcome& o : w->outcomes) {
            const auto*& first = expected[static_cast<std::size_t>(o.frame)];
            if (first == nullptr) {
                first = &o.boxes;
                continue;
            }
            for (std::size_t k = 0; k < o.boxes.size(); ++k)
                if (!same_box(o.boxes[k], (*first)[k])) ++wrong;
        }
    if (wrong > 0)
        tally.fail(std::to_string(wrong) + " tracked boxes differ between calls", wrong);

    std::vector<detect::BBox> one_thread;
    {
        PoolSizeGuard restore;
        core::ThreadPool::set_global_threads(1);
        one_thread = tracker.track(seqs[0]);
    }
    std::int64_t differ = 0;
    for (std::size_t k = 0; k < one_thread.size(); ++k)
        if (!same_box(one_thread[k], (*expected[0])[k])) ++differ;
    if (differ > 0)
        tally.fail(std::to_string(differ) + " boxes differ between 1 and " +
                       std::to_string(core::ThreadPool::global().size()) + " kernel threads",
                   differ);
}

void tally_requests(const std::vector<const Window*>& windows, Tally& tally) {
    for (const Window* w : windows)
        for (const Outcome& o : w->outcomes) {
            // A track() call attempts every frame after the first.
            const std::int64_t n =
                o.boxes.empty() ? 1 : static_cast<std::int64_t>(o.boxes.size()) - 1;
            tally.attempted += n;
            if (!o.ok) tally.failed += n;
        }
}

/// Median over the constructions of a SetupTimes field or of total_s().
template <typename Member>
double median_of(const std::vector<SetupTimes>& setups, Member member) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(std::invoke(member, t));
    return quantile(v, 0.5);
}

std::vector<double> window_latencies(const Window& w) {
    std::vector<double> v;
    for (const Outcome& o : w.outcomes)
        if (o.in_window && o.ok) v.push_back(o.latency_ms);
    return v;
}

/// Median rate over the window's slices.
double fps(const Window& w) { return quantile(w.slice_fps, 0.5); }

/// The metrics a user of the workload sees (untraced run).
void report_end_to_end(const Window& w, const std::vector<SetupTimes>& setups, double rss_mb,
                       const Tally& tally, Metrics& out) {
    const std::vector<double> lat = window_latencies(w);
    out.add("throughput_fps", fps(w), "fps", Direction::kHigherIsBetter);
    out.add("latency_p50_ms", quantile(lat, 0.50), "ms", Direction::kLowerIsBetter);
    // The tail is printed but carries no bound: a stall of a shared host
    // moves it more than a code change does.
    out.add("latency_p90_ms", quantile(lat, 0.90), "ms", Direction::kLowerIsBetter, false);
    out.add("latency_samples", static_cast<double>(lat.size()), "count", Direction::kInfo,
            false);
    out.add("error_frac",
            tally.attempted ? static_cast<double>(tally.failed) /
                                  static_cast<double>(tally.attempted)
                            : 0.0,
            "frac", Direction::kLowerIsBetter, false);
    out.add("peak_rss_mb", rss_mb, "MB", Direction::kLowerIsBetter);
    out.add("setup_s", median_of(setups, &SetupTimes::total_s), "s",
            Direction::kLowerIsBetter);
}

struct EngineCounters {
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    std::uint64_t rejected = 0;
};

/// serve stage times of the traced window, from each request's DetectResult,
/// and the engine's batch counters.  All zero on track_siam, which has no
/// serving layer.
void report_serve(const Window& traced, const EngineCounters& c, Metrics& out) {
    std::vector<double> queue, pre, wait, infer, per_frame, post;
    for (const Outcome& o : traced.outcomes) {
        if (!o.in_window || !o.ok) continue;
        const serve::DetectResult& r = o.result;
        queue.push_back(r.queue_ms);
        pre.push_back(r.preprocess_ms);
        wait.push_back(r.batch_wait_ms);
        infer.push_back(r.infer_ms);
        per_frame.push_back(r.infer_ms / std::max(1, r.batch_size));
        post.push_back(r.postprocess_ms);
    }
    const auto lower = Direction::kLowerIsBetter;
    out.add("serve.queue_ms.p50", quantile(queue, 0.50), "ms", lower);
    out.add("serve.queue_ms.p99", quantile(queue, 0.99), "ms", lower);
    out.add("serve.preprocess_ms.p50", quantile(pre, 0.50), "ms", lower);
    out.add("serve.batch_wait_ms.p50", quantile(wait, 0.50), "ms", lower);
    out.add("serve.batch_wait_ms.p99", quantile(wait, 0.99), "ms", lower);
    out.add("serve.infer_ms.p50", quantile(infer, 0.50), "ms", lower);
    out.add("serve.infer_ms_per_frame.p50", quantile(per_frame, 0.50), "ms", lower);
    out.add("serve.postprocess_ms.p50", quantile(post, 0.50), "ms", lower);
    const double mean_batch =
        c.batches ? static_cast<double>(c.completed) / static_cast<double>(c.batches) : 0.0;
    out.add("serve.batch_size.mean", mean_batch, "count", Direction::kHigherIsBetter);
    out.add("serve.batch_fill", mean_batch / kMaxBatch, "frac", Direction::kHigherIsBetter);
    out.add("serve.batches", static_cast<double>(c.batches), "count", Direction::kInfo,
            false);
    out.add("serve.rejected", static_cast<double>(c.rejected), "count", lower);
}

/// Per-layer numbers of a traced run that belong to the workload itself.
void report_workload_layers(const Tensor& frame, int resize_h, int resize_w,
                            const std::vector<SetupTimes>& setups, const Window& untraced,
                            const Window& traced, Metrics& out) {
    const auto lower = Direction::kLowerIsBetter;
    out.add("data.resize_ms",
            time_ms("data.resize", 9,
                    [&] { (void)data::resize_area(frame, resize_h, resize_w); }),
            "ms", lower);

    out.add("setup.build_ms", median_of(setups, &SetupTimes::build_ms), "ms", lower);
    out.add("setup.quantize_ms", median_of(setups, &SetupTimes::quantize_ms), "ms", lower);
    out.add("setup.engine_start_ms", median_of(setups, &SetupTimes::engine_start_ms), "ms",
            lower);
    out.add("setup.first_result_ms", median_of(setups, &SetupTimes::first_result_ms), "ms",
            lower);
    out.add("setup.cold_first_s", setups.front().total_s(), "s", lower);
    out.add("bench.trace_overhead_frac",
            fps(untraced) > 0.0 ? 1.0 - fps(traced) / fps(untraced) : 0.0, "frac", lower);
}

void run_detect(const Spec& s, const RunConfig& cfg, Metrics& out, Tally& tally) {
    const std::vector<Tensor> pool = make_frames(s, cfg.seed);
    std::vector<SetupTimes> setups;
    DetectStack stack;
    for (int i = 0; i < std::max(1, cfg.constructions); ++i) {
        stack.reset();  // the previous stack is gone before the next is built
        SetupTimes t;
        stack = construct(s, cfg.seed, pool[0], t);
        setups.push_back(t);
    }

    const bool traced = cfg.session != nullptr;
    const double seconds = traced ? cfg.seconds / 2.0 : cfg.seconds;
    const Window untraced = closed_loop(*stack.engine, pool, seconds);
    const double rss_mb = peak_rss_mb();
    stack.engine.reset();

    Window with_trace;
    EngineCounters counters;
    if (traced) {
        obs::Registry registry;
        {
            serve::Engine engine(*stack.det, serve_config(&registry));
            obs::TraceGuard guard(*cfg.session);
            engine.start();
            with_trace = closed_loop(engine, pool, seconds);
            engine.shutdown();
            counters = {engine.completed(), engine.batches(), engine.rejected()};
        }
        bench::merge_registry(registry, "engine.");
    }

    const std::vector<const Window*> windows = {&untraced, &with_trace};
    tally_requests(windows, tally);
    check_detect(s, cfg.seed, *stack.det, pool, windows, tally);

    if (!traced) {
        report_end_to_end(untraced, setups, rss_mb, tally, out);
        return;
    }
    report_serve(with_trace, counters, out);
    obs::TraceGuard guard(*cfg.session);
    report_workload_layers(pool[0], kModelH, kModelW, setups, untraced, with_trace, out);
}

void run_track(const Spec& s, const RunConfig& cfg, Metrics& out, Tally& tally) {
    const std::vector<data::TrackingSequence> seqs = make_sequences(s, cfg.seed);
    // Construction to first box: the tracker plus one tracked frame.
    const data::TrackingSequence first_pair(seqs[0].begin(), seqs[0].begin() + 2);
    std::vector<SetupTimes> setups;
    std::unique_ptr<tracking::SiamTracker> tracker;
    for (int i = 0; i < std::max(1, cfg.constructions); ++i) {
        tracker.reset();
        SetupTimes t;
        const Clock::time_point t0 = Clock::now();
        tracker = make_tracker(cfg.seed);
        const Clock::time_point t1 = Clock::now();
        (void)tracker->track(first_pair);
        t.build_ms = ms_between(t0, t1);
        t.first_result_ms = ms_between(t1, Clock::now());
        setups.push_back(t);
    }
    (void)tracker->track(seqs[0]);  // warm-up: one whole sequence, not measured

    const bool traced = cfg.session != nullptr;
    const double seconds = traced ? cfg.seconds / 2.0 : cfg.seconds;
    const Window untraced = track_loop(*tracker, seqs, seconds);
    const double rss_mb = peak_rss_mb();
    Window with_trace;
    if (traced) {
        obs::TraceGuard guard(*cfg.session);
        with_trace = track_loop(*tracker, seqs, seconds);
    }

    const std::vector<const Window*> windows = {&untraced, &with_trace};
    tally_requests(windows, tally);
    check_track(*tracker, seqs, windows, tally);

    if (!traced) {
        report_end_to_end(untraced, setups, rss_mb, tally, out);
        return;
    }
    report_serve(with_trace, EngineCounters{}, out);
    obs::TraceGuard guard(*cfg.session);
    report_workload_layers(seqs[0][0].image, kTrackCrop, kTrackCrop, setups, untraced,
                           with_trace, out);
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Spec& s : kSpecs) v.emplace_back(s.name);
        return v;
    }();
    return names;
}

void run_workload(const RunConfig& cfg, Metrics& out, Tally& tally) {
    const Spec& s = find_spec(cfg.workload);
    if (s.kind == Kind::kTrack)
        run_track(s, cfg, out, tally);
    else
        run_detect(s, cfg, out, tally);
}

}  // namespace e2e
