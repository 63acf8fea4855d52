// Static verifier for the quantized deployment path (sky::quant::QEngine).
//
// The FPGA datapath of Sec. 6.4 assumes every feature map fits ONE shared
// fixed-point format and every layer is something the integer engine can
// compile.  A violation otherwise surfaces either as a QEngine constructor
// throw (best case) or as a silently saturating activation that turns into
// a wrong-but-plausible IoU (worst case, Table 7's failure mode).
// check_qmodel() reads the lowered program (quant/lower.hpp) the engine
// compiles from — its scheme validation (Q005) and per-op verdicts
// (Q001/Q002) — and reports every violation at once, including range
// checks against calibrated activation statistics when the caller has them.
// With default options the engine throws exactly when this report
// carries an error.
//
// Diagnostic catalog (full table in docs/STATIC_ANALYSIS.md):
//   Q001 error  BatchNorm layer left unfolded ahead of quantization
//   Q002 error  layer the integer engine cannot compile
//   Q003 error  calibrated activation range exceeds the FM format
//   Q004 warn   ReLU6 clip constant saturates in the FM format
//   Q005 error  degenerate scheme (bit-widths / fm_abs_max out of range)
//   Q006 warn   FM format has no fractional bits (integer-only grid)
#pragma once

#include "nn/graph.hpp"
#include "quant/lower.hpp"
#include "quant/qconfig.hpp"
#include "verify/diagnostics.hpp"

namespace sky::verify {

struct QuantCheckOptions {
    /// Largest activation magnitude observed on calibration data
    /// (quant::calibrate_fm_abs_max); 0 = unknown, range checks that need
    /// it are skipped.
    float calibrated_fm_abs_max = 0.0f;
};

/// Statically verify that `g` can deploy under `cfg`.  `g` is expected to
/// be BN-folded already (unfolded BN is diagnostic Q001, not a throw).
/// With cfg.fp32_fallback set, Q002 (unsupported layer) downgrades to a
/// warning — the engine dequantizes around such layers instead of refusing.
[[nodiscard]] Report check_qmodel(const nn::Graph& g, const quant::QuantConfig& cfg,
                                  const QuantCheckOptions& opts = {});

/// Same, on a program already lowered under its scheme (Detector::quantize
/// lowers once and hands the program to both this check and the engine).
[[nodiscard]] Report check_qmodel(const quant::Program& p,
                                  const QuantCheckOptions& opts = {});

}  // namespace sky::verify
