#include "src/san/executor.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/snapshot/state_io.h"

namespace ckptsim::san {

Executor::Executor(const Model& model, std::uint64_t seed)
    : model_(model), marking_(0, 0), rng_(seed) {}

void Executor::ensure_started() {
  if (started_) return;
  started_ = true;
  marking_ = model_.initial_marking();
  marking_.enable_dirty_tracking();
  rewards_.bind(model_);
  firing_counts_.assign(model_.activity_count(), 0);
  timed_.assign(model_.activity_count(), TimedState{});
  candidate_.assign(model_.activity_count(), 0);
  is_timed_.assign(model_.activity_count(), 0);
  instantaneous_order_.clear();
  resample_order_.clear();
  timed_candidates_.clear();
  for (std::uint32_t i = 0; i < model_.activity_count(); ++i) {
    const ActivitySpec& spec = model_.activity(ActivityId{i});
    if (spec.timed) {
      is_timed_[i] = 1;
      if (spec.reactivation == Reactivation::kResample) resample_order_.push_back(i);
    } else {
      instantaneous_order_.push_back(i);
    }
  }
  std::stable_sort(instantaneous_order_.begin(), instantaneous_order_.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return model_.activity(ActivityId{a}).priority >
                            model_.activity(ActivityId{b}).priority;
                   });
  // First refresh evaluates everything; incremental tracking takes over
  // from the resulting (clean) state.
  seen_version_ = marking_.version();
  for (std::uint32_t i = 0; i < model_.activity_count(); ++i) add_candidate(i);
  last_accrual_ = queue_.now();
  refresh();
}

void Executor::accrue_to_now() {
  const double dt = queue_.now() - last_accrual_;
  if (dt > 0.0) {
    rewards_.accrue(marking_, dt);
    last_accrual_ = queue_.now();
  }
}

void Executor::apply_gate_effects(const ActivitySpec& spec) {
  Context ctx{marking_, queue_.now(), rng_};
  // SAN firing order: input arcs, input-gate functions, output arcs,
  // output-gate functions; the chosen case's effects follow in fire().
  for (const auto& arc : spec.input_arcs) marking_.add_tokens(arc.place, -arc.multiplicity);
  for (const auto& gate : spec.input_gates) {
    if (gate.fire) gate.fire(ctx);
  }
  for (const auto& arc : spec.output_arcs) marking_.add_tokens(arc.place, arc.multiplicity);
  for (const auto& gate : spec.output_gates) gate.fire(ctx);
}

void Executor::fire(std::uint32_t activity_idx) {
  const ActivitySpec& spec = model_.activity(ActivityId{activity_idx});
  double total_weight = 0.0;
  if (!spec.cases.empty()) {
    // Möbius semantics: marking-dependent case weights are evaluated in the
    // marking at activity completion, before any arc or gate effect mutates
    // it — and each weight exactly once.
    case_weight_scratch_.clear();
    for (const auto& c : spec.cases) {
      const double w = c.weight ? c.weight(marking_) : 1.0;
      case_weight_scratch_.push_back(w);
      total_weight += w;
    }
    if (!(total_weight > 0.0)) {
      throw std::logic_error("Executor: activity '" + spec.name + "' has no positive case weight");
    }
  }
  apply_gate_effects(spec);
  if (!spec.cases.empty()) {
    // Choose a case proportionally to its pre-firing weight.
    double pick = rng_.uniform() * total_weight;
    const Case* chosen = &spec.cases.back();
    for (std::size_t i = 0; i < spec.cases.size(); ++i) {
      pick -= case_weight_scratch_[i];
      if (pick <= 0.0) {
        chosen = &spec.cases[i];
        break;
      }
    }
    Context ctx{marking_, queue_.now(), rng_};
    for (const auto& arc : chosen->output_arcs) marking_.add_tokens(arc.place, arc.multiplicity);
    for (const auto& gate : chosen->output_gates) gate.fire(ctx);
  }
  ++firing_counts_[activity_idx];
  ++total_firings_;
  rewards_.on_fire(ActivityId{activity_idx}, marking_, queue_.now());
}

void Executor::propagate_marking_changes() {
  if (marking_.version() != seen_version_) {
    seen_version_ = marking_.version();
    // Undeclared gate read-sets may depend on anything (extended places
    // included); kResample activities resample on any version move.  Both
    // must be reconsidered after every mutation.
    for (const std::uint32_t idx : model_.marking_sensitive_activities()) add_candidate(idx);
    for (const std::uint32_t idx : resample_order_) add_candidate(idx);
    for (const std::uint32_t p : marking_.dirty_places()) {
      for (const std::uint32_t idx : model_.enabling_dependents(PlaceId{p})) add_candidate(idx);
    }
    marking_.clear_dirty();
  }
}

void Executor::refresh() {
  propagate_marking_changes();
  // Phase 1: instantaneous cascade — fire the highest-priority enabled
  // instantaneous activity, restart the scan, repeat to quiescence.  Every
  // refresh ends with all instantaneous activities disabled, so only those
  // whose enabling inputs were mutated since can be enabled now: the scan
  // skips activities that are not candidates.
  std::uint64_t guard = 0;
  for (;;) {
    bool fired = false;
    for (const auto idx : instantaneous_order_) {
      if (!full_rescan_ && candidate_[idx] == 0) continue;
      const ActivitySpec& spec = model_.activity(ActivityId{idx});
      ++enabling_evaluations_;
      if (Model::enabled(spec, marking_)) {
        fire(idx);
        propagate_marking_changes();
        fired = true;
        break;
      }
      candidate_[idx] = 0;  // disabled; re-flagged if its inputs mutate again
    }
    if (!fired) break;
    if (++guard > kInstantaneousGuard) {
      throw LivelockError(kInstantaneousGuard);
    }
  }
  // Phase 2: reconcile timed activities with the stable marking.  The
  // candidate list covers every activity the full scan could act on;
  // processing it in ascending index order reproduces the full scan's
  // action (and RNG-draw) order exactly.
  if (full_rescan_) {
    timed_candidates_.clear();
    for (std::uint32_t idx = 0; idx < model_.activity_count(); ++idx) {
      candidate_[idx] = 0;
      if (is_timed_[idx] != 0) reconcile_timed(idx);
    }
  } else {
    std::sort(timed_candidates_.begin(), timed_candidates_.end());
    for (const std::uint32_t idx : timed_candidates_) {
      candidate_[idx] = 0;
      reconcile_timed(idx);
    }
    timed_candidates_.clear();
  }
}

void Executor::reconcile_timed(std::uint32_t idx) {
  const ActivitySpec& spec = model_.activity(ActivityId{idx});
  TimedState& st = timed_[idx];
  ++enabling_evaluations_;
  const bool en = Model::enabled(spec, marking_);
  if (en && !st.enabled) {
    const double dt = spec.latency(marking_, rng_);
    if (dt < 0.0) {
      throw std::logic_error("Executor: negative latency from activity '" + spec.name + "'");
    }
    st.handle = queue_.schedule_in(dt, [this, idx] { on_timed_complete(idx); });
    st.enabled = true;
    st.marking_version = marking_.version();
  } else if (!en && st.enabled) {
    queue_.cancel(st.handle);
    st.enabled = false;
    ++total_aborts_;
  } else if (en && st.enabled && spec.reactivation == Reactivation::kResample &&
             st.marking_version != marking_.version()) {
    queue_.cancel(st.handle);
    const double dt = spec.latency(marking_, rng_);
    if (dt < 0.0) {
      throw std::logic_error("Executor: negative latency from activity '" + spec.name + "'");
    }
    st.handle = queue_.schedule_in(dt, [this, idx] { on_timed_complete(idx); });
    st.marking_version = marking_.version();
  }
}

void Executor::on_timed_complete(std::uint32_t activity_idx) {
  accrue_to_now();
  timed_[activity_idx].enabled = false;
  timed_[activity_idx].handle.clear();
  // The activity's activation state changed even if its enabling inputs did
  // not: it must be reconsidered (typically to re-activate itself).
  add_candidate(activity_idx);
  fire(activity_idx);
  refresh();
}

void Executor::run_until(double t_end) {
  ensure_started();
  queue_.run_until(t_end);
  accrue_to_now();
}

bool Executor::step() {
  ensure_started();
  return queue_.step();
}

std::uint64_t Executor::firings(std::string_view activity) const {
  return firing_counts_.at(model_.activity_id(activity).idx);
}

void Executor::refresh_external() {
  ensure_started();
  refresh();
}

void Executor::save_state(snapshot::StateWriter& w) const {
  if (!started_) throw std::logic_error("Executor::save_state: executor not started");
  marking_.save_state(w);
  rng_.save_state(w);
  rewards_.save_state(w);
  w.f64(last_accrual_);
  w.u64(seen_version_);
  w.u64(enabling_evaluations_);
  w.u64(total_firings_);
  w.u64(total_aborts_);
  w.u64(firing_counts_.size());
  for (const std::uint64_t c : firing_counts_) w.u64(c);
  // Activation state, including handle ids: restore maps them back to
  // on_timed_complete callbacks when rebuilding the queue (which is why the
  // queue is serialized last).
  w.u64(timed_.size());
  for (const TimedState& st : timed_) {
    w.b(st.enabled);
    w.u64(st.handle.id);
    w.u64(st.marking_version);
  }
  w.u64(candidate_.size());
  for (const std::uint8_t c : candidate_) w.u8(c);
  w.u64(timed_candidates_.size());
  for (const std::uint32_t idx : timed_candidates_) w.u32(idx);
  queue_.save_state(w);
}

void Executor::restore_state(snapshot::StateReader& r) {
  using snapshot::SnapshotError;
  using snapshot::SnapshotFault;
  if (started_) throw std::logic_error("Executor::restore_state: executor already started");
  const std::uint32_t n = static_cast<std::uint32_t>(model_.activity_count());
  // Structural init, exactly as ensure_started does it — the dynamic state
  // is then overwritten from the snapshot and refresh() is NOT run (the
  // saved state is already quiescent).
  started_ = true;
  marking_ = model_.initial_marking();
  rewards_.bind(model_);
  firing_counts_.assign(n, 0);
  timed_.assign(n, TimedState{});
  candidate_.assign(n, 0);
  is_timed_.assign(n, 0);
  instantaneous_order_.clear();
  resample_order_.clear();
  timed_candidates_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    const ActivitySpec& spec = model_.activity(ActivityId{i});
    if (spec.timed) {
      is_timed_[i] = 1;
      if (spec.reactivation == Reactivation::kResample) resample_order_.push_back(i);
    } else {
      instantaneous_order_.push_back(i);
    }
  }
  std::stable_sort(instantaneous_order_.begin(), instantaneous_order_.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     return model_.activity(ActivityId{a}).priority >
                            model_.activity(ActivityId{b}).priority;
                   });

  marking_.restore_state(r);
  rng_.restore_state(r);
  rewards_.restore_state(r);
  last_accrual_ = r.f64();
  seen_version_ = r.u64();
  enabling_evaluations_ = r.u64();
  total_firings_ = r.u64();
  total_aborts_ = r.u64();
  const std::uint64_t n_counts = r.u64();
  if (n_counts != n) {
    throw SnapshotError(SnapshotFault::kCorrupt,
                        "executor snapshot: firing-count table size mismatch");
  }
  for (auto& c : firing_counts_) c = r.u64();
  const std::uint64_t n_timed = r.u64();
  if (n_timed != n) {
    throw SnapshotError(SnapshotFault::kCorrupt,
                        "executor snapshot: activation table size mismatch");
  }
  std::size_t enabled_count = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    TimedState& st = timed_[i];
    st.enabled = r.b();
    st.handle.id = r.u64();
    st.marking_version = r.u64();
    if (st.enabled != (st.handle.id != 0) || (st.enabled && is_timed_[i] == 0)) {
      throw SnapshotError(SnapshotFault::kCorrupt,
                          "executor snapshot: inconsistent activation state");
    }
    if (st.enabled) ++enabled_count;
  }
  const std::uint64_t n_cand = r.u64();
  if (n_cand != n) {
    throw SnapshotError(SnapshotFault::kCorrupt,
                        "executor snapshot: candidate table size mismatch");
  }
  for (auto& c : candidate_) c = r.u8();
  const std::uint64_t n_tc = r.u64();
  if (n_tc > n) {
    throw SnapshotError(SnapshotFault::kCorrupt,
                        "executor snapshot: timed-candidate list too large");
  }
  timed_candidates_.resize(static_cast<std::size_t>(n_tc));
  for (auto& idx : timed_candidates_) {
    idx = r.u32();
    if (idx >= n) {
      throw SnapshotError(SnapshotFault::kCorrupt,
                          "executor snapshot: timed-candidate index out of range");
    }
  }
  // Rebuild the queue: every live entry must be one enabled activity's
  // pending completion, matched by handle id.
  std::size_t rebuilt = 0;
  queue_.restore_state(r, [this, &rebuilt](std::uint64_t id) -> sim::EventQueue::Callback {
    for (std::uint32_t i = 0; i < timed_.size(); ++i) {
      if (timed_[i].enabled && timed_[i].handle.id == id) {
        ++rebuilt;
        return [this, i] { on_timed_complete(i); };
      }
    }
    return {};
  });
  if (rebuilt != enabled_count || queue_.size() != enabled_count) {
    throw SnapshotError(SnapshotFault::kCorrupt,
                        "executor snapshot: activation state disagrees with the queue");
  }
}

}  // namespace ckptsim::san
