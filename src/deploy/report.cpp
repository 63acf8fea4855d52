#include "deploy/report.hpp"

namespace sky::deploy {

ModelSummary summarize(const nn::Module& net, const Shape& input,
                       const hwsim::DeviceProfile& device) {
    std::vector<nn::LayerInfo> layers;
    net.enumerate(input, layers);
    ModelSummary s;
    // Roofline knee: MACs per byte at which compute time equals memory time.
    const double knee =
        device.peak_gmacs * 1e9 / (device.mem_bw_gbps * 1e9);
    for (nn::LayerInfo& li : layers) {
        LayerRow row;
        const double bytes =
            4.0 * (static_cast<double>(li.in.count()) +
                   static_cast<double>(li.out.count()) + static_cast<double>(li.params));
        row.intensity = bytes > 0.0 ? static_cast<double>(li.macs) / bytes : 0.0;
        row.compute_bound = row.intensity > knee;
        s.total_macs += li.macs;
        s.total_params += li.params;
        row.info = std::move(li);
        s.rows.push_back(std::move(row));
    }
    return s;
}

void print_summary(const ModelSummary& summary, const char* title, std::FILE* out) {
    std::fprintf(out, "=== %s ===\n", title);
    std::fprintf(out, "%-28s %-8s %-16s %10s %10s %8s %5s\n", "layer", "kind", "output",
                 "MACs", "params", "MAC/B", "bound");
    for (const LayerRow& r : summary.rows) {
        std::fprintf(out, "%-28.28s %-8s %-16s %10lld %10lld %8.2f %5s\n",
                     r.info.name.c_str(), r.info.kind.c_str(), r.info.out.str().c_str(),
                     static_cast<long long>(r.info.macs),
                     static_cast<long long>(r.info.params), r.intensity,
                     r.info.macs == 0 ? "-" : (r.compute_bound ? "comp" : "mem"));
    }
    std::fprintf(out, "total: %.3f GMACs, %.2f MB params (%lld layers)\n",
                 summary.gmacs(), summary.param_mb(),
                 static_cast<long long>(summary.rows.size()));
}

}  // namespace sky::deploy
