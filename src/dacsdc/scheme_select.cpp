#include "dacsdc/scheme_select.hpp"

#include <algorithm>

#include "detect/metrics.hpp"
#include "hwsim/energy.hpp"
#include "quant/qengine.hpp"

namespace sky::dacsdc {

std::vector<QuantScheme> table7_schemes() {
    return {{0, 0, 0}, {1, 9, 11}, {2, 9, 10}, {3, 8, 11}, {4, 8, 10}};
}

std::vector<SchemeEvaluation> select_scheme(nn::Graph& net, const detect::YoloHead& head,
                                            const data::DetectionBatch& val,
                                            const hwsim::FpgaModel& fpga,
                                            SchemeSelectConfig cfg) {
    if (cfg.reference_field.empty()) {
        // The 2019 FPGA-track podium (Table 6) as the default field.
        cfg.reference_field = {{"xjtu tripler", 0.615, 50.91, 9.25},
                               {"systemsethz", 0.553, 55.13, 6.69}};
    }
    nn::Module& hw_net = cfg.full_scale_net != nullptr ? *cfg.full_scale_net : net;
    const float fm_range = cfg.fm_abs_max > 0.0f
                               ? cfg.fm_abs_max
                               : quant::calibrate_fm_abs_max(net, val.images);

    std::vector<SchemeEvaluation> evals;
    for (const QuantScheme& s : table7_schemes()) {
        SchemeEvaluation ev;
        ev.scheme = s;
        Tensor raw;
        if (s.id == 0) {
            net.set_training(false);
            raw = net.forward(val.images);
        } else {
            quant::QEngine engine(net, quant::QuantConfig{}
                                           .with_bits(s.fm_bits, s.weight_bits)
                                           .with_fm_abs_max(fm_range));
            raw = engine.run(val.images);
        }
        ev.iou = detect::mean_iou(head.decode(raw), val.boxes);
        const hwsim::FpgaBuildConfig build{s.weight_bits, s.fm_bits, false,
                                           cfg.batch_tile, 1.0};
        const hwsim::FpgaEstimate est = fpga.estimate(hw_net, cfg.hw_input, build);
        ev.fps = est.fps;
        ev.power_w =
            hwsim::estimate_energy(fpga.profile(), est.utilization, est.fps).power_w;

        std::vector<Entry> field = cfg.reference_field;
        field.push_back({"candidate", ev.iou, ev.fps, ev.power_w});
        for (const ScoredEntry& se : score_track(field, cfg.track))
            if (se.entry.team == "candidate") ev.total_score = se.total_score;
        evals.push_back(ev);
    }
    std::sort(evals.begin(), evals.end(),
              [](const SchemeEvaluation& a, const SchemeEvaluation& b) {
                  return a.total_score > b.total_score;
              });
    return evals;
}

}  // namespace sky::dacsdc
