#pragma once

#include <cstdint>
#include <limits>

#include "src/model/des_model.h"
#include "src/proactive/predictor.h"

namespace ckptsim::proactive {

/// Proactive-action tallies of one replication (windowed like RunCounters:
/// run_replication reports counts past the warm-up transient only).
struct ProactiveCounters {
  std::uint64_t predictions_true = 0;  ///< warnings that preceded a genuine failure
  std::uint64_t false_alarms = 0;      ///< warnings from the false-alarm process
  std::uint64_t proactive_ckpts = 0;   ///< checkpoints initiated by a warning
  std::uint64_t actions_skipped = 0;   ///< warnings ignored (protocol/recovery busy)
  std::uint64_t migrations = 0;        ///< evacuation pauses started
  std::uint64_t migrations_wasted = 0; ///< completed for a false alarm / too late,
                                       ///< or interrupted by a failure
  std::uint64_t failures_absorbed = 0; ///< failures that caused no rollback
  std::uint64_t rescales = 0;          ///< malleable shrink pauses
  std::uint64_t repairs = 0;           ///< malleable nodes repaired (regrown)

  ProactiveCounters& operator+=(const ProactiveCounters& o) noexcept;
  ProactiveCounters operator-(const ProactiveCounters& o) const noexcept;
};

/// Output of one proactive replication: the base model's rewards plus the
/// proactive tallies.
struct ProactiveReplication {
  ReplicationResult rep;
  ProactiveCounters pro;
};

/// DesModel extended with proactive fault tolerance: a failure predictor
/// hanging off the arming hook, plus one of three reactions to a warning
/// (Parameters::proactive_policy):
///
///  * proactive-checkpoint — initiate an immediate coordinated checkpoint
///    so the imminent failure rolls back (almost) nothing;
///  * migrate — pause the application for `migration_time` to evacuate the
///    flagged node; if the prediction was genuine and the failure arrives
///    after the evacuation completes, it strikes the vacated node and is
///    absorbed (no rollback);
///  * malleable — ignore warnings; when a failure strikes during clean
///    execution, shrink to N-k nodes (a `rescale_time` pause, no rollback),
///    continue at scaled capacity, and regrow as nodes repair (pooled
///    exponential repairs at rate k / node_repair_time).
///
/// CRN contract: every proactive decision draws from "proactive/*" named
/// substreams only, and absorbing a failure happens *after* every RNG-
/// advancing step of the base failure path — so for a fixed seed the true
/// failure trajectory (arming times, counts, correlation windows) is
/// bit-identical across all predictor settings and all policies, and with
/// the predictor off and policy none this class is draw-for-draw identical
/// to DesModel.
class ProactiveModel : public DesModel {
 public:
  ProactiveModel(const Parameters& params, std::uint64_t seed);

  /// Run one replication (same window semantics as DesModel::run) and
  /// report the base rewards plus windowed proactive tallies.
  ProactiveReplication run_replication(double transient, double horizon);

  /// Lifetime tallies since t = 0 (test/diagnostic access).
  [[nodiscard]] const ProactiveCounters& lifetime_proactive() const noexcept { return pro_; }

 protected:
  void on_independent_failure_armed(double fire_time) override;
  bool consume_failure(bool independent) override;
  void on_warmup_captured() override;
  void cancel_protocol_events() override;
  void on_extension_event(std::size_t k) override;

 private:
  enum class PauseKind : std::uint8_t { kNone, kMigration, kRescale };
  enum : std::size_t { kWarning, kFalseAlarm, kPause, kRepair };  ///< extension slots

  static constexpr double kNever = std::numeric_limits<double>::infinity();

  void on_warning(bool genuine, double predicted_fire);
  void arm_false_alarm();
  void begin_pause(PauseKind kind, double duration);
  void on_pause_done();
  void on_node_repaired();
  void reschedule_repair();
  void apply_capacity();
  [[nodiscard]] bool idle_executing() const noexcept;

  FailurePredictor predictor_;
  sim::Rng repair_rng_;  ///< "proactive/repair" pooled-repair draws

  ProactiveCounters pro_;
  ProactiveCounters pro_at_warmup_;

  // predictor / migrate state
  double armed_fire_time_ = kNever;   ///< fire time of the armed failure
  double warning_for_time_ = kNever;  ///< fire time the pending warning predicts
  bool shield_ready_ = false;         ///< evacuation completed in time
  double shield_fire_time_ = -1.0;    ///< exact fire time the shield covers
  double migration_for_time_ = kNever;  ///< fire time the in-flight migration
                                        ///< targets (kNever = false alarm)

  // pause state (migration / rescale freeze)
  PauseKind pause_kind_ = PauseKind::kNone;

  // malleable state
  std::uint64_t down_nodes_ = 0;
};

}  // namespace ckptsim::proactive
