// Isolated layer probes of a traced run.  Each layer of the inference path is
// timed on its own with nothing else running, so a change to one layer shows
// here even where the end-to-end number cannot resolve it.  The probes are
// the same on every workload: SkyNet-C x1.0 at the DAC-SDC input in fp32 and
// int8, the core kernels at the model's largest pwconv shape, the head
// decoder, and the SiamRPN tracker's parts.
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "core/gemm.hpp"
#include "core/qgemm.hpp"
#include "core/thread_pool.hpp"
#include "detect/yolo_head.hpp"
#include "e2e.hpp"
#include "obs/profiler.hpp"
#include "skynet/detector.hpp"
#include "tracking/rpn_head.hpp"
#include "tracking/siamese.hpp"

namespace e2e {
namespace {

using namespace sky;
using bench::Direction;

constexpr Direction kLower = Direction::kLowerIsBetter;
constexpr Direction kHigher = Direction::kHigherIsBetter;

Tensor model_input(int n, Rng& rng) {
    Tensor x({n, 3, kModelH, kModelW});
    x.rand_uniform(rng, 0.0f, 1.0f);
    return x;
}

struct GemmShape {
    int M = 0;  ///< output channels
    int N = 0;  ///< output pixels
    int K = 0;  ///< input channels
};

/// fp32 SkyNet-C, BN folded: forward at batch 1 and 4, per-kind layer time
/// from GraphProfiler, and the GEMM shape of the largest pwconv.
GemmShape probe_fp32(std::uint64_t seed, int repeats, double peak_gflops, Metrics& out) {
    Rng rng(seed);
    Detector det(skynet_c(), rng);
    det.fold_bn();
    const Tensor b1 = model_input(1, rng);
    const Tensor b4 = model_input(4, rng);
    const double ms1 = time_ms("skynet.forward.b1", repeats, [&] { (void)det.forward(b1); });
    const double ms4 = time_ms("skynet.forward.b4", repeats, [&] { (void)det.forward(b4); });
    const double gflops = 2.0 * static_cast<double>(det.net().macs(b4.shape())) / (ms4 * 1e6);
    out.add("skynet.forward_ms.b1", ms1, "ms", kLower);
    out.add("skynet.forward_ms.b4", ms4, "ms", kLower);
    out.add("skynet.gflops.b4", gflops, "GFLOP/s", kHigher);
    out.add("skynet.pct_peak.b4", 100.0 * gflops / peak_gflops, "%", kHigher);

    obs::GraphProfiler prof(det.net());
    (void)det.forward(b4);
    prof.reset();
    for (int r = 0; r < repeats; ++r) {
        BenchSpan span("skynet.profiled.b4", r, kLaneProbe);
        (void)det.forward(b4);
    }
    std::map<std::string, double> kind_ms;
    GemmShape largest;
    std::int64_t largest_macs = 0;
    for (const obs::LayerProfile& p : prof.profiles()) {
        kind_ms[p.kind] += p.fwd_ms / repeats;
        if (p.kind == "pwconv" && p.macs > largest_macs) {
            largest_macs = p.macs;
            largest = {p.out.c, p.out.h * p.out.w, p.in.c};
        }
    }
    // Every layer kind of folded SkyNet-C (it has no plain conv or fc).
    for (const char* kind : {"pwconv", "dwconv", "act", "pool", "reorder", "bias", "identity"})
        out.add(std::string("nn.") + kind + "_ms", kind_ms[kind], "ms", kLower);
    return largest;
}

/// int8 SkyNet-C on the QEngine: forward at batch 1 and 4, arena size and
/// allocations once warm.
void probe_int8(std::uint64_t seed, int repeats, double peak_gops, Metrics& out) {
    Rng rng(seed);
    Detector det(skynet_c(), rng);
    (void)det.quantize(quant::QuantConfig{});
    const double arena = static_cast<double>(det.activation_plan_bytes());
    const Tensor b1 = model_input(1, rng);
    const Tensor b4 = model_input(4, rng);
    const double ms1 = time_ms("quant.forward.b1", repeats, [&] { (void)det.forward(b1); });
    const double ms4 = time_ms("quant.forward.b4", repeats, [&] { (void)det.forward(b4); });
    const std::int64_t warm = det.qengine()->alloc_events();
    (void)det.forward(b1);
    (void)det.forward(b4);
    const std::int64_t steady = det.qengine()->alloc_events() - warm;
    const double gops = 2.0 * static_cast<double>(det.net().macs(b4.shape())) / (ms4 * 1e6);
    out.add("quant.forward_ms.b1", ms1, "ms", kLower);
    out.add("quant.forward_ms.b4", ms4, "ms", kLower);
    out.add("quant.gops.b4", gops, "GOP/s", kHigher);
    out.add("quant.pct_peak.b4", 100.0 * gops / peak_gops, "%", kHigher);
    out.add("quant.steady_alloc_events", static_cast<double>(steady), "count", kLower);
    out.add("quant.arena_bytes", arena, "bytes", kLower);
}

/// The GEMM engines at one shape with both operands prepacked (the weight
/// side is prepacked in the layers too), the pool's dispatch cost, and the
/// host peak they are measured against.
void probe_core(const GemmShape& g, int repeats, double peak_gflops, double peak_gops,
                Metrics& out) {
    const auto mk = static_cast<std::size_t>(g.M) * static_cast<std::size_t>(g.K);
    const auto kn = static_cast<std::size_t>(g.K) * static_cast<std::size_t>(g.N);
    const auto mn = static_cast<std::size_t>(g.M) * static_cast<std::size_t>(g.N);
    const double ops = 2.0 * g.M * static_cast<double>(g.N) * g.K;
    Rng rng(7);

    std::vector<float> a(mk), b(kn), c(mn, 0.0f);
    for (float& v : a) v = static_cast<float>(rng.uniform(-0.01, 0.01));
    for (float& v : b) v = static_cast<float>(rng.uniform(0.0, 1.0));
    core::PackedA pa;
    core::PackedB pb;
    core::pack_a(g.M, g.K, a.data(), false, pa);
    core::pack_b(g.K, g.N, b.data(), false, pb);
    const double sgemm_ms =
        time_ms("core.sgemm", repeats, [&] { core::sgemm_packed(pa, pb, c.data()); });

    // Small operands: the int32 sums stay far from overflow however often
    // the timed call accumulates into the same C.
    std::vector<std::int8_t> qa(mk);
    std::vector<std::uint8_t> qb(kn);
    std::vector<std::int32_t> qc(mn, 0);
    for (std::int8_t& v : qa) v = static_cast<std::int8_t>(rng.uniform_int(-3, 3));
    for (std::uint8_t& v : qb) v = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
    core::QPackedA qpa;
    core::QPackedB qpb;
    core::qpack_a(g.M, g.K, qa.data(), qpa);
    core::qpack_b(g.K, g.N, qb.data(), qpb);
    const double qgemm_ms =
        time_ms("core.qgemm", repeats, [&] { core::qgemm_packed(qpa, qpb, qc.data()); });

    // An empty body over 64 indices: what one kernel dispatch costs.
    constexpr int kDispatches = 1000;
    const std::function<void(std::int64_t, std::int64_t)> empty = [](std::int64_t,
                                                                     std::int64_t) {};
    const double dispatch_ms = time_ms("core.parallel_for", repeats, [&] {
        for (int i = 0; i < kDispatches; ++i) core::parallel_for(0, 64, 1, empty);
    });

    out.add("core.sgemm_gflops", ops / (sgemm_ms * 1e6), "GFLOP/s", kHigher);
    out.add("core.qgemm_gops", ops / (qgemm_ms * 1e6), "GOP/s", kHigher);
    out.add("core.parallel_for_us", dispatch_ms * 1e3 / kDispatches, "us", kLower);
    out.add("core.peak_fp32_gflops", peak_gflops, "GFLOP/s", kHigher);
    out.add("core.peak_int16_gops", peak_gops, "GOP/s", kHigher);
}

/// Best-box decode of a batch-4 head map (a control: microseconds).
void probe_detect(int repeats, Metrics& out) {
    const detect::YoloHead head;
    Rng rng(11);
    Tensor raw({4, head.out_channels(), kModelH / 8, kModelW / 8});
    raw.randn(rng);
    out.add("detect.decode_ms.b4",
            time_ms("detect.decode.b4", repeats, [&] { (void)head.decode(raw); }), "ms",
            kLower);
}

/// The SiamRPN tracker's per-frame parts at track_siam's geometry: search
/// crop embedding, depthwise cross-correlation, RPN head + decode.
void probe_tracking(std::uint64_t seed, int repeats, Metrics& out) {
    Rng rng(seed);
    SkyNetModel backbone = build_skynet_backbone(1.0f, nn::Act::kReLU6, rng);
    const int channels = backbone.feature_channels();
    tracking::SiameseEmbed embed(std::move(backbone.net), channels, kTrackEmbedDim, rng);
    tracking::RpnHead rpn(kTrackEmbedDim, rng);
    embed.set_training(false);
    rpn.set_training(false);
    Tensor crop({1, 3, kTrackCrop, kTrackCrop});
    crop.rand_uniform(rng, 0.0f, 1.0f);
    const Tensor feat = embed.forward(crop);
    const Tensor kernel = tracking::center_crop(feat, kTrackKernelCells, kTrackKernelCells);
    const Tensor resp = tracking::depthwise_xcorr(feat, kernel);
    out.add("tracking.embed_ms",
            time_ms("tracking.embed", repeats, [&] { (void)embed.forward(crop); }), "ms",
            kLower);
    out.add("tracking.xcorr_ms",
            time_ms("tracking.xcorr", repeats,
                    [&] { (void)tracking::depthwise_xcorr(feat, kernel); }),
            "ms", kLower);
    out.add("tracking.rpn_ms",
            time_ms("tracking.rpn", repeats, [&] { (void)rpn.decode(rpn.forward(resp)); }),
            "ms", kLower);
}

}  // namespace

double time_ms(const char* name, int repeats, const std::function<void()>& fn) {
    bench::RunOptions opts;
    opts.repeats = repeats;
    std::int64_t call = 0;
    return bench::run_timed(
               [&] {
                   BenchSpan span(name, call++, kLaneProbe);
                   fn();
               },
               opts)
        .median;
}

void run_probes(std::uint64_t seed, int repeats, Metrics& out) {
    const int threads = core::ThreadPool::global().size();
    double peak_gflops = 0.0, peak_gops = 0.0;
    {
        BenchSpan span("core.peak", 0, kLaneProbe);
        peak_gflops = peak_fp32_gflops(threads);
        peak_gops = peak_int16_gops(threads);
    }
    const GemmShape largest = probe_fp32(seed, repeats, peak_gflops, out);
    probe_int8(seed, repeats, peak_gops, out);
    probe_core(largest, repeats, peak_gflops, peak_gops, out);
    probe_detect(repeats, out);
    probe_tracking(seed, repeats, out);
}

}  // namespace e2e
