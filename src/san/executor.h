#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/san/marking.h"
#include "src/san/model.h"
#include "src/san/reward.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace ckptsim::san {

/// Thrown when the instantaneous-activity livelock guard fires: the marking
/// reached a cycle of instantaneous activities that never quiesces (e.g.
/// pathological parameters).  A distinct type so the execution drivers can
/// classify it (ckptsim::ErrorCode::kLivelock) instead of pattern-matching
/// a generic runtime_error message.
class LivelockError : public std::runtime_error {
 public:
  explicit LivelockError(std::uint64_t guard)
      : std::runtime_error("Executor: instantaneous-activity livelock (" +
                           std::to_string(guard) + " same-instant firings)") {}
};

/// Discrete-event executor for a composed SAN.
///
/// Semantics (matching Möbius simulation semantics):
///  * A timed activity is *activated* when it becomes enabled: its latency
///    is sampled and a completion is scheduled.  If the activity becomes
///    disabled before completing, the completion is *aborted*.  A marking
///    change that keeps it enabled leaves the completion in place
///    (Reactivation::kKeep) or resamples it (Reactivation::kResample).
///  * Enabled instantaneous activities fire before any time passes,
///    highest priority first (ties in definition order), repeating until no
///    instantaneous activity is enabled.  A livelock guard throws after
///    `kInstantaneousGuard` same-instant firings.
///  * Case weights are evaluated in the marking at activity completion —
///    before any arc or gate effect mutates it — each weight exactly once.
///  * Firing order within one completion: input arcs, input-gate functions,
///    output arcs, output-gate functions, then the chosen case's arcs and
///    gate functions.
///  * Rate rewards accrue over every interval using the marking at the
///    interval's start; impulse rewards are credited at completion, after
///    the marking update.
///
/// Refresh (enabling reconciliation) is *incremental*: the executor
/// re-evaluates an activity's enabling only when a place in its enabling
/// read-set (Model::enabling_dependents) was mutated, the activity is
/// marking-sensitive (undeclared gate read-set), it just fired, or it uses
/// Reactivation::kResample and the marking version moved.  The candidate
/// set is a strict superset of the activities the full rescan would act on
/// and is processed in the same order, so results are bit-identical to the
/// full rescan — set_full_rescan(true) forces the O(all activities) scan
/// for verification.
class Executor {
 public:
  static constexpr std::uint64_t kInstantaneousGuard = 1'000'000;

  /// The model must outlive the executor.  `seed` drives all sampling.
  Executor(const Model& model, std::uint64_t seed);

  /// Reward variables to observe; configure before the first run call.
  [[nodiscard]] RewardSet& rewards() noexcept { return rewards_; }
  [[nodiscard]] const RewardSet& rewards() const noexcept { return rewards_; }

  /// Advance the simulation to absolute time `t_end`.
  void run_until(double t_end);

  /// Fire exactly one timed completion (plus any instantaneous cascade).
  /// Returns false when no timed activity is scheduled.
  bool step();

  [[nodiscard]] double now() const noexcept { return queue_.now(); }
  [[nodiscard]] const Marking& marking() const noexcept { return marking_; }
  [[nodiscard]] Marking& marking() noexcept { return marking_; }

  /// Completed firings per activity (diagnostics / tests).
  [[nodiscard]] std::uint64_t firings(std::string_view activity) const;
  [[nodiscard]] std::uint64_t total_firings() const noexcept { return total_firings_; }

  /// Activations aborted: scheduled completions cancelled because the
  /// activity became disabled before firing (Möbius abort semantics;
  /// reactivation resampling is not counted).
  [[nodiscard]] std::uint64_t total_aborts() const noexcept { return total_aborts_; }

  /// Event-queue statistics of this replication (obs metrics registry).
  [[nodiscard]] sim::QueueStats queue_stats() const noexcept { return queue_.stats(); }

  /// Watchdog: cap timed completions at `max_events` fired events (0 =
  /// unlimited); the run throws sim::EventBudgetExceeded past the cap.
  void set_event_budget(std::uint64_t max_events) noexcept {
    queue_.set_fire_budget(max_events);
  }

  /// Zero reward accumulators at the current time (end of warm-up).
  void reset_rewards() { rewards_.reset(now()); }

  /// Post-fire hook forwarded to the event queue — the snapshot layer's
  /// periodic capture boundary (same instant as the fire-budget watchdog).
  /// Set before the run starts.
  void set_fire_hook(std::uint64_t every, std::function<void()> hook) {
    queue_.set_fire_hook(every, std::move(hook));
  }

  /// Force re-evaluation of enabling conditions after an external marking
  /// mutation (tests may poke the marking directly).
  void refresh_external();

  /// Disable the incremental dependency-driven refresh and re-evaluate
  /// every activity on every refresh (the pre-index behaviour).  The two
  /// modes are bit-identical by construction; this hook lets equivalence
  /// tests and A/B measurements prove it.  Call before the first run.
  void set_full_rescan(bool on) noexcept { full_rescan_ = on; }

  /// Activities whose enabling was re-evaluated across all refreshes
  /// (diagnostics: measures how much work the dependency index avoids).
  [[nodiscard]] std::uint64_t enabling_evaluations() const noexcept {
    return enabling_evaluations_;
  }

  /// Serialize the full mid-run state: marking (with dirty tracking), RNG
  /// stream position, reward accumulators, per-activity activation state,
  /// counters, and the event queue.  Requires a started executor (throws
  /// std::logic_error otherwise).  Continuing a restored executor is
  /// bit-identical to never having stopped.
  void save_state(snapshot::StateWriter& w) const;

  /// Restore onto a freshly constructed executor over the same model (the
  /// constructor seed is irrelevant — the stream position is restored).
  /// All structural re-initialization (activity orders, reward binding)
  /// happens here; queue callbacks are rebuilt from the saved handle ids.
  /// Any inconsistency throws snapshot::SnapshotError before the executor
  /// is considered restored.
  void restore_state(snapshot::StateReader& r);

 private:
  struct TimedState {
    bool enabled = false;
    sim::EventHandle handle;
    std::uint64_t marking_version = 0;  // version when the latency was sampled
  };

  void ensure_started();
  void refresh();
  void fire(std::uint32_t activity_idx);
  void apply_gate_effects(const ActivitySpec& spec);
  void on_timed_complete(std::uint32_t activity_idx);
  void accrue_to_now();

  /// Mark an activity for re-evaluation in the next refresh phase it is
  /// eligible for (instantaneous scan or timed reconciliation).
  void add_candidate(std::uint32_t idx) {
    if (candidate_[idx] != 0) return;
    candidate_[idx] = 1;
    if (is_timed_[idx] != 0) timed_candidates_.push_back(idx);
  }

  /// Drain the marking's dirty-place record into candidate flags, and fold
  /// in the marking-sensitive / resample activities when the version moved.
  void propagate_marking_changes();

  /// The per-activity body of the timed reconciliation (schedule newly
  /// enabled, abort newly disabled, resample per reactivation policy).
  void reconcile_timed(std::uint32_t idx);

  const Model& model_;
  Marking marking_;
  sim::EventQueue queue_;
  sim::Rng rng_;
  RewardSet rewards_;
  std::vector<TimedState> timed_;
  std::vector<std::uint32_t> instantaneous_order_;  // indices sorted by priority
  std::vector<std::uint64_t> firing_counts_;
  // Incremental-refresh state.
  std::vector<std::uint8_t> candidate_;   // per-activity: needs re-evaluation
  std::vector<std::uint8_t> is_timed_;    // per-activity: spec.timed
  std::vector<std::uint32_t> timed_candidates_;  // flagged timed activities
  std::vector<std::uint32_t> resample_order_;    // timed kResample activities
  std::vector<double> case_weight_scratch_;      // per-fire case weights
  std::uint64_t seen_version_ = 0;
  std::uint64_t enabling_evaluations_ = 0;
  std::uint64_t total_firings_ = 0;
  std::uint64_t total_aborts_ = 0;
  double last_accrual_ = 0.0;
  bool started_ = false;
  bool full_rescan_ = false;
};

}  // namespace ckptsim::san
