#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/fault.h"
#include "src/core/results.h"
#include "src/san/executor.h"
#include "src/san/model.h"
#include "src/san/reward.h"
#include "src/stats/confidence.h"
#include "src/stats/summary.h"

namespace ckptsim::san {

/// Per-reward study output.
struct StudyMeasure {
  stats::Summary replicate_means;      ///< one observation per replication
  stats::ConfidenceInterval interval;  ///< CI over replicate means
};

/// Aggregated study output.
struct StudyResult {
  std::unordered_map<std::string, StudyMeasure> rewards;
  std::uint64_t total_firings = 0;  ///< across all replications
  std::size_t replications = 0;     ///< replications aggregated (successes)

  /// Skipped / recovered replications under the failure policy; empty for
  /// clean runs.
  FailureAccounting failures;

  /// Sizes of the sequential-stopping rounds, in order; empty for
  /// fixed-replication studies.
  std::vector<std::uint32_t> rounds;

  [[nodiscard]] const StudyMeasure& reward(const std::string& name) const;
};

/// Runs independent replications of one SAN model and aggregates the
/// time-averaged reward variables with confidence intervals: a
/// steady-state study with an initial transient discard, as in the paper
/// ("an initial transient period of 1000 hours ... confidence level is
/// 95%").
class Study {
 public:
  /// The model must outlive the study.  Reward specs are replicated into
  /// each executor.
  Study(const Model& model, std::vector<RateRewardSpec> rate_rewards,
        std::vector<ImpulseRewardSpec> impulse_rewards);

  /// Replicate under `spec`, with `spec.transient` and `spec.horizon` in
  /// model time units.  Under `spec.sequential` the stopper watches
  /// `precision_reward`, which must name a registered reward; empty means
  /// the first one.  Every other knob means what it means to run_model,
  /// except that a study's attempts take no snapshots: a
  /// `snapshot_every_events` above 0 throws std::invalid_argument, as do
  /// the checks of RunSpec::validate.
  [[nodiscard]] StudyResult run(const RunSpec& spec,
                                const std::string& precision_reward = {}) const;

 private:
  const Model& model_;
  std::vector<RateRewardSpec> rate_rewards_;
  std::vector<ImpulseRewardSpec> impulse_rewards_;
  std::vector<std::string> reward_names_;  ///< distinct names, insertion order
};

}  // namespace ckptsim::san
