#include "obs/profiler.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/json.hpp"
#include "core/thread_pool.hpp"
#include "obs/logger.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sky::obs {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Timing shim installed around each module node.  Owns the real module and
/// forwards every Module virtual to it, so the wrapped graph behaves
/// identically to training, serialization and the hardware estimators.
class ProfiledModule final : public nn::Module {
public:
    ProfiledModule(nn::ModulePtr inner, LayerProfile* prof)
        : inner_(std::move(inner)), prof_(prof) {}

    Tensor forward(const Tensor& x) override {
        Tensor y;
        forward_fused(x, nn::Epilogue{}, y);
        return y;
    }

    // Times the layer together with the epilogues the graph fused into it,
    // writing into the graph's tensor as the unprofiled forward does.
    void forward_fused(const Tensor& x, const nn::Epilogue& ep, Tensor& y) override {
        Span span(prof_->name.c_str(), "layer");
        const auto t0 = Clock::now();
        inner_->forward_fused(x, ep, y);
        prof_->fwd_ms += ms_since(t0);
        ++prof_->fwd_calls;
        prof_->in = x.shape();
        prof_->out = y.shape();
        prof_->macs = inner_->macs(x.shape());
        prof_->threads = core::ThreadPool::global().size();
    }

    [[nodiscard]] std::optional<nn::Epilogue> as_epilogue() const override {
        return inner_->as_epilogue();
    }
    [[nodiscard]] bool accepts_affine() const override { return inner_->accepts_affine(); }
    [[nodiscard]] bool accepts_pool() const override { return inner_->accepts_pool(); }

    Tensor backward(const Tensor& grad_out) override {
        const auto t0 = Clock::now();
        Tensor g = inner_->backward(grad_out);
        prof_->bwd_ms += ms_since(t0);
        ++prof_->bwd_calls;
        return g;
    }

    void collect_params(std::vector<nn::ParamRef>& out) override {
        inner_->collect_params(out);
    }
    void collect_state(std::vector<Tensor*>& out) override { inner_->collect_state(out); }
    void set_training(bool training) override {
        Module::set_training(training);
        inner_->set_training(training);
    }
    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] Shape out_shape(const Shape& in) const override {
        return inner_->out_shape(in);
    }
    [[nodiscard]] std::int64_t macs(const Shape& in) const override {
        return inner_->macs(in);
    }
    [[nodiscard]] std::int64_t param_count() const override { return inner_->param_count(); }
    [[nodiscard]] std::string kind() const override { return inner_->kind(); }
    void enumerate(const Shape& in, std::vector<nn::LayerInfo>& out) const override {
        inner_->enumerate(in, out);
    }

    [[nodiscard]] nn::ModulePtr release_inner() { return std::move(inner_); }

private:
    nn::ModulePtr inner_;
    LayerProfile* prof_;
};

}  // namespace

GraphProfiler::GraphProfiler(nn::Graph& graph) : graph_(&graph) {
    for (std::size_t i = 0; i < graph.node_count(); ++i) {
        if (graph.node_kind(i) != nn::Graph::NodeKind::kModule) continue;
        auto prof = std::make_unique<LayerProfile>();
        prof->node = static_cast<int>(i);
        prof->name = graph.node_module(i)->name();
        prof->kind = graph.node_module(i)->kind();
        prof->params = graph.node_module(i)->param_count();
        nn::ModulePtr original = graph.replace_module(i, nullptr);
        graph.replace_module(
            i, std::make_unique<ProfiledModule>(std::move(original), prof.get()));
        slots_.push_back(std::move(prof));
    }
    attached_ = true;
}

GraphProfiler::~GraphProfiler() { detach(); }

LayerProfile GraphProfiler::read(const LayerProfile& slot) const {
    LayerProfile p = slot;
    if (attached_) {
        const int carrier = graph_->node_carrier(p.node);
        p.fused_into = carrier != p.node ? carrier : -1;
    }
    return p;
}

void GraphProfiler::detach() {
    if (!attached_) return;
    for (const auto& slot : slots_) {
        *slot = read(*slot);
        const auto node = static_cast<std::size_t>(slot->node);
        auto* shim = static_cast<ProfiledModule*>(graph_->node_module(node));
        graph_->replace_module(node, shim->release_inner());
    }
    attached_ = false;
}

void GraphProfiler::reset() {
    for (const auto& slot : slots_) {
        slot->fwd_calls = 0;
        slot->bwd_calls = 0;
        slot->fwd_ms = 0.0;
        slot->bwd_ms = 0.0;
    }
}

std::vector<LayerProfile> GraphProfiler::profiles() const {
    std::vector<LayerProfile> out;
    out.reserve(slots_.size());
    for (const auto& slot : slots_) out.push_back(read(*slot));
    return out;
}

double GraphProfiler::total_forward_ms() const {
    double total = 0.0;
    for (const auto& slot : slots_) total += slot->fwd_ms;
    return total;
}

double GraphProfiler::total_backward_ms() const {
    double total = 0.0;
    for (const auto& slot : slots_) total += slot->bwd_ms;
    return total;
}

std::string GraphProfiler::to_json() const {
    std::ostringstream os;
    os << "{\n  \"layers\": [";
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const LayerProfile p = read(*slots_[i]);
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "\"fwd_calls\": %d, \"bwd_calls\": %d, \"fwd_ms\": %.6f, "
                      "\"bwd_ms\": %.6f, \"threads\": %d, \"gflops\": %.4f, "
                      "\"fused_into\": %d",
                      p.fwd_calls, p.bwd_calls, p.fwd_ms, p.bwd_ms, p.threads,
                      p.fwd_gflops(), p.fused_into);
        os << (i ? "," : "") << "\n    {\"node\": " << p.node << ", \"name\": \""
           << core::json_escape(p.name) << "\", \"kind\": \"" << core::json_escape(p.kind)
           << "\", \"in\": " << p.in.str() << ", \"out\": " << p.out.str()
           << ", \"macs\": " << p.macs << ", \"params\": " << p.params << ", " << buf << "}";
    }
    char totals[96];
    std::snprintf(totals, sizeof totals,
                  "\n  \"total_fwd_ms\": %.6f,\n  \"total_bwd_ms\": %.6f\n",
                  total_forward_ms(), total_backward_ms());
    os << (slots_.empty() ? "" : "\n  ") << "]," << totals << "}\n";
    return os.str();
}

bool GraphProfiler::save_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << to_json();
    return static_cast<bool>(out);
}

void GraphProfiler::export_metrics(Registry& registry, const std::string& prefix) const {
    double total_gmacs = 0.0;
    for (const auto& slot : slots_) {
        const LayerProfile& p = *slot;
        const std::string base = prefix + "." + std::to_string(p.node) + "." + p.kind;
        registry.set(base + ".fwd_ms", p.fwd_ms_avg());
        registry.set(base + ".gflops", p.fwd_gflops());
        registry.set(base + ".threads", p.threads);
        total_gmacs += static_cast<double>(p.macs) * p.fwd_calls;
    }
    const double total_ms = total_forward_ms();
    registry.set(prefix + ".total_fwd_ms", total_ms);
    registry.set(prefix + ".total_gflops",
                 total_ms > 0.0 ? 2.0 * total_gmacs / (total_ms * 1e6) : 0.0);
}

void GraphProfiler::print_table(Logger& log) const {
    const double total_ms = total_forward_ms();
    log.infof("%4s %-24s %-8s %-18s %12s %10s %10s %8s %3s %7s %5s", "node", "layer",
              "kind", "out", "MACs", "ms/call", "fwd ms", "GFLOP/s", "thr", "%", "fused");
    for (const auto& slot : slots_) {
        const LayerProfile p = read(*slot);
        const double pct = total_ms > 0.0 ? 100.0 * p.fwd_ms / total_ms : 0.0;
        const std::string fused = p.fused_into >= 0 ? "->" + std::to_string(p.fused_into) : "";
        log.infof("%4d %-24s %-8s %-18s %12lld %10.3f %10.3f %8.2f %3d %6.1f%% %5s", p.node,
                  p.name.c_str(), p.kind.c_str(), p.out.str().c_str(),
                  static_cast<long long>(p.macs), p.fwd_ms_avg(), p.fwd_ms,
                  p.fwd_gflops(), p.threads, pct, fused.c_str());
    }
    log.infof("%4s %-24s %-8s %-18s %12s %10s %10.3f %8s %3s %6s", "", "total", "", "",
              "", "", total_ms, "", "", "100%");
}

}  // namespace sky::obs
