#include "verify/check_qmodel.hpp"

#include <algorithm>
#include <string>

namespace sky::verify {

Report check_qmodel(const nn::Graph& g, const quant::QuantConfig& cfg,
                    const QuantCheckOptions& opts) {
    return check_qmodel(quant::lower(g, cfg), opts);
}

Report check_qmodel(const quant::Program& p, const QuantCheckOptions& opts) {
    Report rep;

    // --- Scheme sanity (Table 7 schemes live in [2, 24] bits). ---------
    for (const std::string& why : p.scheme_errors)
        rep.error("Q005", -1, why,
                  "pick bit widths in [2, 24], a positive finite fm_abs_max "
                  "(quant::calibrate_fm_abs_max) and input_lo <= input_hi");
    if (!p.valid_scheme()) return rep;  // the format below would be meaningless

    const quant::FixedPointFormat& fm = p.spec.fm;

    // --- Range checks against the shared FM format. --------------------
    if (opts.calibrated_fm_abs_max > 0.0f &&
        static_cast<double>(opts.calibrated_fm_abs_max) > fm.max_val())
        rep.error("Q003", -1,
                  "calibrated activations reach " +
                      std::to_string(opts.calibrated_fm_abs_max) +
                      " but the FM format saturates at " + std::to_string(fm.max_val()),
                  "raise fm_abs_max (or fm_bits) to cover the calibrated range");
    if (fm.frac_bits <= 0)
        rep.warn("Q006", -1,
                 "FM format has no fractional bits — activations round to integers",
                 "lower fm_abs_max or raise fm_bits to regain precision");

    // The ReLU6 clip must sit on the representable grid or every bundle
    // output saturates below the clip (a Table 7 scheme-5 style collapse).
    const bool has_relu6 = std::any_of(p.ops.begin(), p.ops.end(), [](const quant::Op& op) {
        return op.kind == quant::OpKind::kRelu6;
    });
    if (has_relu6 && fm.max_val() < 6.0)
        rep.warn("Q004", -1,
                 "ReLU6 clip (6.0) exceeds the FM format maximum " +
                     std::to_string(fm.max_val()) + " — activations clip early",
                 "use fm_abs_max >= 6 so the clip constant is exact on the grid");

    // --- Per-op verdicts of the lowering. -------------------------------
    // Q001 stays an error even with fp32_fallback: an unfolded BN is a
    // missing deployment pass, not a layer the engine should route around.
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
        const quant::Op& op = p.ops[i];
        if (op.verdict == quant::Verdict::kRejected)
            rep.error(op.code, static_cast<int>(i), op.reason, op.hint);
        else if (op.verdict == quant::Verdict::kFp32)
            rep.warn(op.code, static_cast<int>(i),
                     op.reason + " — will run as an fp32 island", op.hint);
    }
    return rep;
}

}  // namespace sky::verify
