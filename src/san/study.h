#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/fault.h"
#include "src/core/thread_pool.h"
#include "src/san/executor.h"
#include "src/san/model.h"
#include "src/san/reward.h"
#include "src/stats/confidence.h"
#include "src/stats/sequential.h"
#include "src/stats/summary.h"

namespace ckptsim::obs {
class Metrics;
class ProgressReporter;
}  // namespace ckptsim::obs

namespace ckptsim::san {

/// Controls for a steady-state simulation study: independent replications
/// with an initial transient discard, mirroring the paper's experimental
/// setup ("steady-state simulation ... with an initial transient period of
/// 1000 hours ... confidence level is 95%").
struct StudySpec {
  double transient = 0.0;      ///< warm-up span discarded from rewards
  double horizon = 1.0;        ///< observed span after the warm-up
  std::size_t replications = 5;
  std::uint64_t seed = 1;      ///< master seed; replication r uses seed+r mixing
  double confidence_level = 0.95;
  ExecSpec exec;  ///< worker threads; results are identical for any jobs

  /// Precision-driven replication control, mirroring RunSpec::sequential:
  /// when enabled, `replications` is ignored and deterministic rounds run
  /// until the relative CI half-width of `precision_reward` meets the
  /// target.  Replication r keeps its canonical seed in every round, so
  /// adaptive results are bit-identical for any `exec` job count.
  stats::SequentialSpec sequential;
  /// Reward variable the stopper watches; empty = the first registered
  /// reward.  Must name a registered reward when sequential is enabled.
  std::string precision_reward;

  /// Optional run telemetry (src/obs), off by default; not owned.  Same
  /// contract as RunSpec: attaching never changes study results.
  obs::Metrics* metrics = nullptr;
  obs::ProgressReporter* progress = nullptr;

  /// Failure handling, mirroring RunSpec: fail-fast rethrows the failure
  /// with the smallest replication index, retry re-runs with derived
  /// attempt seeds (transient failures keep the canonical seed), skip
  /// drops the replication into StudyResult::failures.
  FailurePolicy on_failure;
  /// Per-replication activity-firing budget (0 = unlimited).
  WatchdogSpec watchdog;
  /// Cooperative cancellation; not owned.  See RunSpec::cancel.
  const std::atomic<bool>* cancel = nullptr;

  /// Throws std::invalid_argument naming the first violated constraint.
  void validate() const;
};

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
/// time-averaged reward variables with confidence intervals.
class Study {
 public:
  /// The model must outlive the study.  Reward specs are replicated into
  /// each executor.
  Study(const Model& model, std::vector<RateRewardSpec> rate_rewards,
        std::vector<ImpulseRewardSpec> impulse_rewards);

  [[nodiscard]] StudyResult run(const StudySpec& spec) const;

 private:
  const Model& model_;
  std::vector<RateRewardSpec> rate_rewards_;
  std::vector<ImpulseRewardSpec> impulse_rewards_;
  std::vector<std::string> reward_names_;  ///< distinct names, insertion order
};

}  // namespace ckptsim::san
