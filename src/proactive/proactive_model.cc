#include "src/proactive/proactive_model.h"

namespace ckptsim::proactive {

ProactiveCounters& ProactiveCounters::operator+=(const ProactiveCounters& o) noexcept {
  predictions_true += o.predictions_true;
  false_alarms += o.false_alarms;
  proactive_ckpts += o.proactive_ckpts;
  actions_skipped += o.actions_skipped;
  migrations += o.migrations;
  migrations_wasted += o.migrations_wasted;
  failures_absorbed += o.failures_absorbed;
  rescales += o.rescales;
  repairs += o.repairs;
  return *this;
}

ProactiveCounters ProactiveCounters::operator-(const ProactiveCounters& o) const noexcept {
  ProactiveCounters r = *this;
  r.predictions_true -= o.predictions_true;
  r.false_alarms -= o.false_alarms;
  r.proactive_ckpts -= o.proactive_ckpts;
  r.actions_skipped -= o.actions_skipped;
  r.migrations -= o.migrations;
  r.migrations_wasted -= o.migrations_wasted;
  r.failures_absorbed -= o.failures_absorbed;
  r.rescales -= o.rescales;
  r.repairs -= o.repairs;
  return r;
}

ProactiveModel::ProactiveModel(const Parameters& params, std::uint64_t seed)
    : DesModel(params, seed),
      predictor_(p_, pool_, rates_.independent_rate),
      repair_rng_(pool_.stream("proactive/repair")) {}

ProactiveReplication ProactiveModel::run_replication(double transient, double horizon) {
  arm_false_alarm();
  ProactiveReplication out;
  out.rep = run(transient, horizon);
  out.pro = pro_ - pro_at_warmup_;
  return out;
}

bool ProactiveModel::idle_executing() const noexcept {
  return compute_ == ComputeState::kExecuting && master_ == MasterState::kSleep;
}

void ProactiveModel::on_warmup_captured() { pro_at_warmup_ = pro_; }

void ProactiveModel::on_extension_event(std::size_t k) {
  switch (k) {
    case kWarning:
      return on_warning(true, warning_for_time_);
    case kFalseAlarm:
      on_warning(false, kNever);
      return arm_false_alarm();
    case kPause:
      return on_pause_done();
    case kRepair:
      return on_node_repaired();
  }
  DesModel::on_extension_event(k);
}

// ---------------------------------------------------------------------------
// predictor plumbing

void ProactiveModel::on_independent_failure_armed(double fire_time) {
  armed_fire_time_ = fire_time;
  if (!predictor_.enabled()) return;
  // A warning still pending here targets a failure that already fired
  // (warnings never outlive their failure otherwise) — drop it.
  cancel(extension_slot(kWarning));
  const std::optional<double> warn = predictor_.predict(now(), fire_time);
  if (warn.has_value()) {
    warning_for_time_ = fire_time;
    schedule_at(extension_slot(kWarning), *warn);
  }
}

void ProactiveModel::arm_false_alarm() {
  if (predictor_.false_alarm_rate() <= 0.0) return;
  schedule_in(extension_slot(kFalseAlarm), predictor_.sample_false_alarm_gap());
}

void ProactiveModel::on_warning(bool genuine, double predicted_fire) {
  note(trace::EventKind::kFailurePredicted, genuine ? 1.0 : 0.0);
  if (genuine) {
    ++pro_.predictions_true;
  } else {
    ++pro_.false_alarms;
  }
  switch (p_.proactive_policy) {
    case ProactivePolicy::kNone:
    case ProactivePolicy::kMalleable:
      // Observation only: malleable reacts to the failures themselves.
      break;
    case ProactivePolicy::kProactiveCheckpoint:
      if (idle_executing()) {
        ++pro_.proactive_ckpts;
        note(trace::EventKind::kProactiveCkpt);
        // The interval timer is superseded by the immediate checkpoint; it
        // re-arms when the cycle completes (schedule_next_init at resume).
        cancel(kSlotCkptInit);
        on_ckpt_init();
      } else {
        ++pro_.actions_skipped;  // protocol or recovery already in progress
      }
      break;
    case ProactivePolicy::kMigrate:
      if (idle_executing() && pause_kind_ == PauseKind::kNone) {
        ++pro_.migrations;
        note(trace::EventKind::kMigrationStarted);
        migration_for_time_ = genuine ? predicted_fire : kNever;
        begin_pause(PauseKind::kMigration, p_.migration_time);
      } else {
        ++pro_.actions_skipped;
      }
      break;
  }
}

// ---------------------------------------------------------------------------
// migration / rescale pause (freeze like begin_quiesce, no coordination)

void ProactiveModel::begin_pause(PauseKind kind, double duration) {
  pause_kind_ = kind;
  cancel(kSlotCkptInit);  // interval timer restarts at resume
  enter_state(ComputeState::kQuiescing);
  set_useful_rate(0.0);
  executing_.set_rate(now(), 0.0);
  cancel(kSlotAppToggle);  // application frozen until resume
  schedule_in(extension_slot(kPause), duration);
}

void ProactiveModel::on_pause_done() {
  if (pause_kind_ == PauseKind::kMigration) {
    note(trace::EventKind::kMigrationDone);
    // The evacuation pays off only if it targeted a genuine prediction and
    // that exact failure is still the armed one (i.e. it has not fired
    // while we were evacuating, and no re-arm replaced it).
    if (migration_for_time_ != kNever && armed_fire_time_ == migration_for_time_) {
      shield_ready_ = true;
      shield_fire_time_ = migration_for_time_;
    } else {
      ++pro_.migrations_wasted;
    }
    migration_for_time_ = kNever;
  }
  pause_kind_ = PauseKind::kNone;
  resume_execution();
}

void ProactiveModel::cancel_protocol_events() {
  DesModel::cancel_protocol_events();
  // A failure interrupting a migration or rescale pause kills the pending
  // pause-completion event (the rollback/recovery path takes over; the
  // interval timer re-arms at resume as usual).  Pending warnings survive:
  // they target the still-armed next failure.
  if (pause_kind_ != PauseKind::kNone) {
    cancel(extension_slot(kPause));
    if (pause_kind_ == PauseKind::kMigration) {
      ++pro_.migrations_wasted;
      migration_for_time_ = kNever;
    }
    pause_kind_ = PauseKind::kNone;
  }
}

// ---------------------------------------------------------------------------
// failure absorption

bool ProactiveModel::consume_failure(bool independent) {
  switch (p_.proactive_policy) {
    case ProactivePolicy::kNone:
    case ProactivePolicy::kProactiveCheckpoint:
      return false;
    case ProactivePolicy::kMigrate:
      // The shield covers exactly one failure at exactly the fire time the
      // completed evacuation targeted (events fire at their scheduled
      // double, so the equality is bit-exact).  Stale shields can never
      // match again: time strictly advances past them.
      if (independent && shield_ready_ && now() == shield_fire_time_) {
        shield_ready_ = false;
        ++pro_.failures_absorbed;
        return true;
      }
      return false;
    case ProactivePolicy::kMalleable:
      // Absorb a failure striking clean execution by shrinking to N-k
      // nodes: a rescale pause instead of a rollback.  Failures during the
      // protocol, a pause, or recovery roll back as usual, and the last
      // node is never given up.
      if (independent && idle_executing() && pause_kind_ == PauseKind::kNone &&
          down_nodes_ + 1 < p_.nodes()) {
        ++down_nodes_;
        ++pro_.rescales;
        ++pro_.failures_absorbed;
        note(trace::EventKind::kNodeShrink, static_cast<double>(down_nodes_));
        apply_capacity();
        reschedule_repair();
        begin_pause(PauseKind::kRescale, p_.rescale_time);
        return true;
      }
      return false;
  }
  return false;
}

// ---------------------------------------------------------------------------
// malleable repair pool

void ProactiveModel::reschedule_repair() {
  cancel(extension_slot(kRepair));
  if (down_nodes_ == 0) return;
  // k nodes in repair complete as the min of k exponentials = one
  // exponential at rate k / MTTR; re-arming on every k change is exact by
  // memorylessness.
  const double rate = static_cast<double>(down_nodes_) / p_.node_repair_time;
  schedule_in(extension_slot(kRepair), repair_rng_.exponential_rate(rate));
}

void ProactiveModel::on_node_repaired() {
  --down_nodes_;
  ++pro_.repairs;
  note(trace::EventKind::kNodeRepaired, static_cast<double>(down_nodes_));
  apply_capacity();
  reschedule_repair();
}

void ProactiveModel::apply_capacity() {
  useful_scale_ =
      1.0 - static_cast<double>(down_nodes_) / static_cast<double>(p_.nodes());
  // Re-apply immediately while executing; otherwise the scale takes effect
  // at the next resume_execution (set_useful_rate multiplies it in).
  if (compute_ == ComputeState::kExecuting) set_useful_rate(1.0);
}

}  // namespace ckptsim::proactive
