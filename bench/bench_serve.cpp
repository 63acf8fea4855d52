// Serving-pipeline bench: the measured counterpart to Fig. 10.
//
// Drives the real sky::serve engine (bounded queue -> dynamic batcher ->
// preprocess/infer/postprocess stages) over synthetic camera frames at 4x
// the model resolution, sweeping the batch size, and compares against a
// serial resize+detect baseline.  Because wall-clock overlap needs at least
// one core per stage, the bench also projects the measured per-stage
// latencies through the Fig. 10 discrete-event model
// (hwsim::simulate_pipeline): on a single-core host that projection is the
// honest pipelined number, on a multi-core host the measured FPS should
// approach it.
//
// Asserts the paper's headline property — pipelined throughput >= 1.5x
// serial — on the measured numbers when enough cores exist, otherwise on
// the projection; exits non-zero if the pipeline cannot reach it.
//
//   ./build/bench/bench_serve [--json out.json] [--trace out_trace.json]
//
// Engine passes are timed with repeat statistics (sky::bench::run); the
// best batch size's engine registry (stage-latency histograms, queue
// depths) is folded into the BENCH document, and --trace saves a Chrome
// trace of one pipelined engine pass for chrome://tracing.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "data/augment.hpp"
#include "hwsim/pipeline.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "skynet/detector.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace sky;
    std::string trace_path;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--trace" && i + 1 < argc) trace_path = argv[i + 1];

    bench::rule('=');
    std::printf("sky::serve pipeline throughput (Fig. 10, measured)\n");
    bench::rule('=');

    // Throughput only — weights stay random; the forward cost is identical.
    // Narrow model + 4x frames (area-filter decimation) keeps preprocess and
    // inference comparable, which gives a staged pipeline something to overlap.
    const int mh = 80, mw = 160;
    Rng rng(21);
    Detector det({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.05f}, rng);

    const int n_frames = 48;
    std::vector<Tensor> frames;
    Rng img_rng(5);
    for (int i = 0; i < n_frames; ++i) {
        Tensor img({1, 3, 4 * mh, 4 * mw});
        img.rand_uniform(img_rng, 0.0f, 1.0f);
        frames.push_back(std::move(img));
    }

    bench::RunOptions opts;
    opts.repeats = std::max(3, bench::steps(3));

    // Serial baseline: resize + detect, one frame at a time.  run() does the
    // warm-up pass (faulting in the conv scratch buffers) and the repeats.
    const bench::RepeatStats serial = bench::run(
        "serve.serial_batch_ms", "ms", bench::Direction::kLowerIsBetter,
        [&] {
            for (const Tensor& f : frames) (void)det.detect(data::resize_area(f, mh, mw));
        },
        opts);
    // Every derived rate below carries per-repeat samples (one per timed
    // pass), so benchdiff's MAD gate sees real noise on fps metrics too.
    std::vector<double> serial_fps_samples;
    for (const double ms : serial.samples)
        if (ms > 0.0) serial_fps_samples.push_back(1e3 * n_frames / ms);
    const bench::RepeatStats serial_fps_stats =
        bench::RepeatStats::from_samples(serial_fps_samples);
    const double serial_fps = serial_fps_stats.median;
    std::printf("\nserial baseline: %.2f ms/frame, %.1f FPS\n",
                serial.median / n_frames, serial_fps);
    bench::record("serve.serial_fps", serial_fps_stats, "fps",
                  bench::Direction::kHigherIsBetter);

    // Clean per-stage costs, measured in isolation (nothing else running —
    // stage timings taken while the engine is live would be inflated by
    // time-slicing whenever stages outnumber cores).
    Clock::time_point t0 = Clock::now();
    std::vector<Tensor> resized;
    for (const Tensor& f : frames) resized.push_back(data::resize_area(f, mh, mw));
    const double stage_pre_ms = ms_since(t0) / n_frames;  // per frame

    // Batch sweep: measured FPS through the real engine, plus the Fig. 10
    // projection of the isolated stage costs with one core per stage.
    std::printf("\n%5s %12s %12s %12s %9s\n", "batch", "measured FPS", "infer ms/b",
                "post ms/b", "proj FPS");
    double best_measured = 0.0, best_projected = 0.0;
    int best_batch = 1;
    bench::RepeatStats best_measured_stats, best_projected_stats;
    for (const int b : {1, 2, 4, 8}) {
        // Isolated inference + decode cost at this batch size, re-measured
        // once per repeat so the Fig. 10 projection gets repeat statistics
        // of its own instead of a single-shot stage timing.
        Tensor batch({b, 3, mh, mw});
        for (int i = 0; i < b; ++i)
            std::memcpy(batch.plane(i, 0), resized[static_cast<std::size_t>(i)].data(),
                        static_cast<std::size_t>(batch.shape().per_item()) *
                            sizeof(float));
        const int reps = std::max(1, 16 / b);
        Tensor raw = det.forward(batch);  // warm-up + decode input
        double stage_infer_ms = 0.0, stage_post_ms = 0.0;
        std::vector<double> proj_samples;
        for (int rep_i = 0; rep_i < opts.repeats; ++rep_i) {
            t0 = Clock::now();
            for (int r = 0; r < reps; ++r) raw = det.forward(batch);
            stage_infer_ms = ms_since(t0) / reps;
            t0 = Clock::now();
            for (int r = 0; r < reps; ++r) (void)det.head().decode(raw);
            stage_post_ms = ms_since(t0) / reps;
            const std::vector<hwsim::PipelineStage> stages = {
                {"pre-process", stage_pre_ms * b},
                {"inference", stage_infer_ms},
                {"post-process", stage_post_ms}};
            proj_samples.push_back(
                hwsim::simulate_pipeline(stages, b, 200).pipelined_fps);
        }
        const bench::RepeatStats proj_stats =
            bench::RepeatStats::from_samples(proj_samples);

        // Measured: the same frames through the live engine, with repeat
        // statistics over whole engine passes.
        serve::ServeConfig sc;
        sc.max_batch = b;
        sc.max_delay_ms = 4.0;
        sc.queue_capacity = static_cast<std::size_t>(n_frames);
        sc.target_h = mh;
        sc.target_w = mw;
        serve::Engine engine(det, sc);
        engine.start();
        const bench::RepeatStats pass = bench::run(
            "serve.engine_batch_ms.b" + std::to_string(b), "ms",
            bench::Direction::kLowerIsBetter,
            [&] {
                std::vector<std::future<serve::DetectResult>> futures;
                futures.reserve(n_frames);
                for (const Tensor& f : frames) futures.push_back(engine.submit(f));
                for (auto& fut : futures) (void)fut.get();
            },
            opts);
        engine.shutdown();
        std::vector<double> fps_samples;
        for (const double ms : pass.samples)
            if (ms > 0.0) fps_samples.push_back(1e3 * n_frames / ms);
        const bench::RepeatStats fps_stats =
            bench::RepeatStats::from_samples(fps_samples);
        const double measured_fps = fps_stats.median;

        std::printf("%5d %12.1f %12.2f %12.2f %9.1f\n", b, measured_fps, stage_infer_ms,
                    stage_post_ms, proj_stats.median);
        bench::record("serve.measured_fps.b" + std::to_string(b), fps_stats, "fps",
                      bench::Direction::kHigherIsBetter);
        bench::record("serve.projected_fps.b" + std::to_string(b), proj_stats, "fps",
                      bench::Direction::kHigherIsBetter);
        if (measured_fps > best_measured) {
            best_measured = measured_fps;
            best_batch = b;
            best_measured_stats = fps_stats;
        }
        if (proj_stats.median > best_projected) {
            best_projected = proj_stats.median;
            best_projected_stats = proj_stats;
        }
    }

    // Re-run the best batch size once with full instrumentation: the engine
    // registry (stage-latency histograms, p50/p95/p99 gauges, queue depths)
    // folds into the BENCH document, and the stage spans land in a Chrome
    // trace when --trace was given.
    {
        obs::Registry engine_registry;
        obs::TraceSession session;
        serve::ServeConfig sc;
        sc.max_batch = best_batch;
        sc.max_delay_ms = 4.0;
        sc.queue_capacity = static_cast<std::size_t>(n_frames);
        sc.target_h = mh;
        sc.target_w = mw;
        sc.metrics = &engine_registry;
        serve::Engine engine(det, sc);
        {
            obs::TraceGuard guard(session);
            engine.start();
            std::vector<std::future<serve::DetectResult>> futures;
            futures.reserve(n_frames);
            for (const Tensor& f : frames) futures.push_back(engine.submit(f));
            for (auto& fut : futures) (void)fut.get();
            engine.shutdown();
        }
        bench::merge_registry(engine_registry, "engine.");
        if (!trace_path.empty()) {
            if (session.save(trace_path))
                std::printf("wrote Chrome trace to %s\n", trace_path.c_str());
            else
                std::fprintf(stderr, "failed to write trace to %s\n",
                             trace_path.c_str());
        }
    }

    // Quantized replica: the integer engine executes against the statically
    // planned activation arena (docs/STATIC_ANALYSIS.md) — record the plan
    // figures and prove the steady-state activation path allocates nothing.
    bool alloc_free = false;
    {
        Rng qrng(22);
        Detector qdet({SkyNetVariant::kC, nn::Act::kReLU6, 2, 0.05f}, qrng);
        (void)qdet.quantize(quant::QuantConfig{});
        obs::Registry qreg;
        serve::ServeConfig sc;
        sc.max_batch = best_batch;
        sc.max_delay_ms = 4.0;
        sc.queue_capacity = static_cast<std::size_t>(n_frames);
        sc.target_h = mh;
        sc.target_w = mw;
        sc.metrics = &qreg;
        serve::Engine engine(qdet, sc);
        engine.start();
        // First pass replans the arena at the serving shapes; the second is
        // the steady state the allocation gauge describes.
        std::int64_t qalloc_baseline = 0;
        for (int pass_i = 0; pass_i < 2; ++pass_i) {
            std::vector<std::future<serve::DetectResult>> futures;
            futures.reserve(n_frames);
            for (const Tensor& f : frames) futures.push_back(engine.submit(f));
            for (auto& fut : futures) (void)fut.get();
            if (pass_i == 0) qalloc_baseline = qdet.qengine()->alloc_events();
        }
        engine.shutdown();
        const std::int64_t steady_allocs =
            qdet.qengine()->alloc_events() - qalloc_baseline;
        const auto& plan = qdet.qengine()->report().activation_plan;
        const bool peak_exact =
            qdet.qengine()->measured_peak_bytes() == plan.peak_bytes;
        alloc_free = steady_allocs == 0 && peak_exact;
        bench::merge_registry(qreg, "qint8.");
        bench::record("serve.int8_activation_arena_bytes",
                      static_cast<double>(plan.arena_bytes), "bytes");
        bench::record("serve.int8_activation_peak_bytes",
                      static_cast<double>(plan.peak_bytes), "bytes");
        bench::record("serve.int8_steady_alloc_events",
                      static_cast<double>(steady_allocs), "count");
        // In-range frames never leave the qgemm plan for the reference path.
        bench::record("serve.int8_reference_fallbacks",
                      static_cast<double>(qdet.qengine()->reference_fallbacks()), "count");
        std::printf("\nint8 activation arena: %s\n", plan.summary().c_str());
        std::printf("CHECK int8 steady state allocation-free + peak exact: %s\n",
                    alloc_free ? "PASSED" : "FAILED");
        bench::record("serve.int8_alloc_free_check_passed", alloc_free ? 1.0 : 0.0,
                      "bool");
    }

    // The 1.5x pipelining check: measured when the host can actually overlap
    // (a core per stage), projected otherwise.
    const unsigned cores = std::thread::hardware_concurrency();
    const bool use_measured = cores >= 4;
    const bench::RepeatStats& pipelined_stats =
        use_measured ? best_measured_stats : best_projected_stats;
    const double pipelined = pipelined_stats.median;
    std::vector<double> speedup_samples;
    for (const double fps : pipelined_stats.samples)
        if (serial_fps > 0.0) speedup_samples.push_back(fps / serial_fps);
    const bench::RepeatStats speedup_stats =
        bench::RepeatStats::from_samples(speedup_samples);
    const double speedup = speedup_stats.median;
    bench::record("serve.pipelined_fps", pipelined_stats, "fps",
                  bench::Direction::kHigherIsBetter);
    bench::record("serve.speedup_vs_serial", speedup_stats, "x",
                  bench::Direction::kHigherIsBetter);

    bench::rule();
    std::printf("pipelined %.1f FPS (%s, %u cores) vs serial %.1f FPS -> %.2fx\n",
                pipelined, use_measured ? "measured" : "projected", cores, serial_fps,
                speedup);
    const bool ok = speedup >= 1.5;
    std::printf("CHECK pipelined >= 1.5x serial: %s\n", ok ? "PASSED" : "FAILED");
    bench::record("serve.speedup_check_passed", ok ? 1.0 : 0.0, "bool");

    const int rc = bench::finish(argc, argv);
    return ok && alloc_free ? rc : 1;
}
