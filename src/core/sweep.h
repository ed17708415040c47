#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/model/parameters.h"

namespace ckptsim {

class SweepJournal;

/// One evaluated point of a parameter sweep.
struct SweepPoint {
  double x = 0.0;           ///< swept value (e.g. processors, interval)
  Parameters params;        ///< full parameter set of the point
  RunResult result;
};

/// One labelled series of a figure (e.g. "MTTF = 1 yr").
struct SweepSeries {
  std::string label;
  std::vector<SweepPoint> points;

  /// Point with the maximum total useful work; throws std::logic_error when
  /// empty and SimError(kNonFiniteReward) when any point's reward is
  /// NaN/Inf (NaN comparisons would silently pick an arbitrary point).
  [[nodiscard]] const SweepPoint& argmax_total_useful_work() const;
  /// Point with the maximum useful-work fraction; same guards.
  [[nodiscard]] const SweepPoint& argmax_fraction() const;
};

/// Evaluate one series: for each x, `apply(base, x)` produces the point's
/// parameters, which are simulated under `spec`; a point with proactive
/// parameters throws std::invalid_argument, as in run_model.
///
/// When `journal` is non-null the sweep is checkpointed: points whose
/// fingerprint (params + spec + engine + x + label) is already journaled
/// are restored without simulating, and every newly completed point is
/// appended and fsync'd as its last replication finishes — so a killed
/// sweep resumed with the same journal recomputes only unfinished points
/// and produces bit-identical results.  `spec.on_failure` / `spec.watchdog`
/// / `spec.cancel` behave exactly as in run_model: both run on
/// ckptsim::replicate, and a cancelled sweep has journaled every finished
/// point before it throws SimError(kInterrupted).
[[nodiscard]] SweepSeries sweep(std::string label, const Parameters& base,
                                const std::vector<double>& xs,
                                const std::function<Parameters(Parameters, double)>& apply,
                                const RunSpec& spec, EngineKind engine = EngineKind::kDes,
                                SweepJournal* journal = nullptr);

/// Canonical x-axes of the paper's figures.
[[nodiscard]] std::vector<double> figure4_processor_axis();       // 8K..256K (x2)
[[nodiscard]] std::vector<double> figure4_interval_axis_minutes();  // 15..240
[[nodiscard]] std::vector<double> figure5_processor_axis();       // 1..2^30 (x4)

}  // namespace ckptsim
