#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "src/core/results.h"
#include "src/model/correlated.h"
#include "src/model/failure_trace.h"
#include "src/model/io_timing.h"
#include "src/model/parameters.h"
#include "src/model/workload.h"
#include "src/sim/distributions.h"
#include "src/sim/pending_set.h"
#include "src/sim/rate_integral.h"
#include "src/sim/rng.h"
#include "src/trace/event_log.h"

namespace ckptsim::snapshot {
class StateReader;
class StateWriter;
}  // namespace ckptsim::snapshot

namespace ckptsim {

/// Direct discrete-event implementation of the paper's model.
///
/// This engine implements exactly the semantics documented in DESIGN.md
/// ("Model semantics") — the same semantics the SAN build expresses with
/// places and activities — but hand-coded as a state machine for speed.
/// The cross-engine agreement tests (tests/test_cross_engine.cc) pin the
/// two implementations together.
///
/// State summary (paper Fig. 1/2):
///  * compute nodes:  executing -> quiescing -> (wait I/O idle) -> dumping
///    -> executing, with recovery stage 1/2 and reboot branches;
///  * application:    compute / I/O-burst alternation (BSP);
///  * master:         sleep / checkpointing (+ timeout);
///  * I/O nodes:      idle / receiving dump / writing checkpoint /
///    writing app data / reading checkpoint / restarting;
///  * failure module: independent compute, I/O and master Poisson processes
///    plus a correlated extra process gated by error-propagation windows
///    and/or the generic hyper-exponential phase alternation.
///
/// Useful-work accounting: rate 1 accrues while the compute nodes execute
/// (computation or application I/O); a rollback charges a negative impulse
/// equal to the work accrued since the rollback target's quiesce point.
///
/// Scheduling: the model keeps at most one pending event per kind, so the
/// pending set is a fixed array of slots, one per event kind, each holding
/// a (time, insertion-sequence) pair, and a bit mask records which slots
/// are armed.  The next event is the argmin over the set bits of the mask
/// (ties in time fire in insertion order, so runs are deterministic) and
/// is dispatched by a switch — no heap, no type-erased callbacks, no
/// allocation.  Subclasses get kExtensionSlots more slots,
/// fired through on_extension_event().
///
/// Application cycle: the phase toggles and the application writes are
/// most of a replication's events and draw no random number, so while the
/// model executes with no quiesce pending, fire_next() fires them in one
/// tight loop (fire_app_cycle) up to the next other event, making the same
/// state changes, insertion sequence numbers and counts as the handlers.
/// An attached event log sends every event through dispatch() and the
/// ordinary handlers instead: that is the reference path, and the tests
/// (tests/test_des_engine.cc) check runs without a log against it.
class DesModel {
 public:
  /// `params` is validated on construction; `seed` drives all stochastic
  /// processes of this replication.
  DesModel(const Parameters& params, std::uint64_t seed);
  virtual ~DesModel() = default;
  DesModel(const DesModel&) = delete;
  DesModel& operator=(const DesModel&) = delete;

  /// Run one replication: warm up for `transient`, then observe `horizon`
  /// seconds and report windowed metrics.
  ReplicationResult run(double transient, double horizon);

  /// Resume a replication on a restored model (see restore_state): advance
  /// from the restored clock to `transient + horizon` and report the same
  /// windowed metrics run() would.  The warm-up baselines travel inside the
  /// snapshot, so run-to-completion and snapshot/restore/continue_run are
  /// bit-identical regardless of which side of the transient the snapshot
  /// fell on.
  ReplicationResult continue_run(double transient, double horizon);

  /// Install the post-fire hook: invoked right after an event's handler
  /// returns whenever the lifetime fired count is a multiple of `every`
  /// (0 disables) — the snapshot layer's periodic capture point, on the
  /// same boundary as the fire-budget watchdog.  Set before the run starts.
  void set_fire_hook(std::uint64_t every, std::function<void()> hook) {
    hook_every_ = every;
    hook_ = std::move(hook);
  }

  /// Serialize the full mid-replication state: all eight RNG streams, the
  /// protocol/application/I-O/master state machines, checkpoint and
  /// correlation bookkeeping, reward integrals, counters, warm-up
  /// baselines, the trace cursor and content hash (trace-driven runs), and
  /// the pending-event slots.  Requires a started model with no armed
  /// extension slot — subclass state is not serialized (throws
  /// std::logic_error otherwise).
  void save_state(snapshot::StateWriter& w) const;

  /// Restore onto a freshly constructed model built from the *same*
  /// parameters (the constructor seed is irrelevant — stream positions are
  /// restored).  Everything is validated before the model counts as
  /// restored: slot times must be finite and >= the clock (or empty), slot
  /// sequence numbers below the restored counter and distinct, and a
  /// trace-driven snapshot must carry the hash of the trace this model
  /// loaded (kContextMismatch otherwise).  Any inconsistency throws
  /// snapshot::SnapshotError and the caller must discard the object.
  /// Attach event log / counts before calling if the continued run should
  /// trace.
  void restore_state(snapshot::StateReader& r);

  /// Job-completion mode: simulate from a fresh start until `useful_work`
  /// seconds of never-rolled-back work have accumulated, or `max_time`
  /// elapses.  Returns the makespan (simulated time at completion), or
  /// +infinity when the job did not finish within `max_time` — the
  /// completion-time measure of Kulkarni/Nicola/Trivedi [17] that the
  /// paper's useful-work metric approximates in steady state.
  [[nodiscard]] double run_until_work(double useful_work, double max_time);

  /// Counters since t = 0 (test/diagnostic access; run() reports windowed
  /// counters instead).
  [[nodiscard]] const RunCounters& lifetime_counters() const noexcept { return counters_; }

  /// Attach a structured event log (not owned; nullptr disables tracing).
  /// Must be set before the run starts.
  void set_event_log(trace::EventLog* log) noexcept { log_ = log; }

  /// Attach a per-kind event tally (not owned; nullptr disables counting).
  /// Unlike the event log this stores no times/payloads — a single array
  /// increment per event — and is what the obs metrics registry attaches
  /// per replication.  Must be set before the run starts.
  void set_event_counts(trace::EventCounts* counts) noexcept { event_counts_ = counts; }

  /// Pending-set statistics of this replication (obs metrics registry):
  /// slots armed, events fired, armed slots cancelled, and the peak number
  /// of armed slots.
  [[nodiscard]] sim::QueueStats queue_stats() const noexcept;

  /// Watchdog: cap this replication at `max_events` fired events (0 =
  /// unlimited); the run throws sim::EventBudgetExceeded past the cap.
  /// Must be set before the run starts.
  void set_event_budget(std::uint64_t max_events) noexcept { fire_budget_ = max_events; }

 protected:
  /// One pending-event slot per event kind.  A recovery has two slots (the
  /// stage-1 file-system read and the stage-2 recovery); at most one of
  /// them is armed at a time.  The last kExtensionSlots slots belong to
  /// subclasses.
  enum Slot : std::uint32_t {
    kSlotCkptInit = 0,
    kSlotTimeout,
    kSlotBcast,
    kSlotCoord,
    kSlotDump,
    kSlotFsWrite,
    kSlotAppWrite,
    kSlotAppToggle,
    kSlotStage1Done,
    kSlotRecoveryDone,
    kSlotReboot,
    kSlotIoRestart,
    kSlotFailCompute,
    kSlotFailIo,
    kSlotFailMaster,
    kSlotFailExtra,
    kSlotWindowEnd,
    kSlotGenericToggle,
    kSlotJobDone,
    kNumBaseSlots,
    kNumSlots = kNumBaseSlots + 4,
  };
  static constexpr std::size_t kExtensionSlots = kNumSlots - kNumBaseSlots;
  static_assert(kNumSlots <= 32, "the armed-slot mask is 32 bits wide");
  /// Subclass slot `k` (< kExtensionSlots); fires on_extension_event(k).
  [[nodiscard]] static constexpr Slot extension_slot(std::size_t k) noexcept {
    assert(k < kExtensionSlots);
    return static_cast<Slot>(kNumBaseSlots + k);
  }

  /// Current simulation time.
  [[nodiscard]] double now() const noexcept { return now_; }
  /// Arm `slot` at absolute time `t`.  A non-finite or past time throws
  /// std::invalid_argument; arming a slot that is already armed throws
  /// std::logic_error.
  void schedule_at(Slot slot, double t);
  void schedule_in(Slot slot, double dt) { schedule_at(slot, now_ + dt); }
  /// Disarm `slot`; a no-op when it is not armed.
  void cancel(Slot slot) noexcept {
    const std::uint32_t bit = std::uint32_t{1} << slot;
    if ((armed_ & bit) != 0) {
      armed_ &= ~bit;
      ++cancelled_;
    }
  }
  /// Handler of the subclass slots.  The base model arms none and throws
  /// std::logic_error if one ever fires.
  virtual void on_extension_event(std::size_t k);

  // The engine is designed for extension: src/nodelevel builds the
  // disaggregated per-node variant on these hooks.
  enum class ComputeState {
    kExecuting,       // application running (compute or I/O burst)
    kQuiescing,       // coordination in progress
    kWaitIoForDump,   // coordinated; waiting for the I/O nodes to go idle
    kDumping,         // dumping checkpoint to the I/O nodes
    kWaitFsWrite,     // synchronous-write ablation: blocked on the FS write
    kRecoveryStage1,  // I/O nodes re-reading checkpoint from the FS
    kRecoveryStage2,  // compute nodes reading checkpoint + reinitialising
    kRebooting,       // whole-system reboot
  };
  enum class AppPhase { kCompute, kIo };
  enum class IoState {
    kIdle,
    kReceivingDump,
    kWritingCkpt,
    kWritingAppData,
    kReadingCkpt,
    kRestarting,
    kRebooting,
  };
  enum class MasterState { kSleep, kCheckpointing };

  // --- protocol flow ---
  void on_ckpt_init();
  void on_bcast_received();
  void begin_quiesce();
  void on_coordination_done();
  void start_dump();
  void on_dump_done();
  void on_fs_write_done();
  void on_timeout();
  void finish_cycle_success();
  /// Cancel every in-flight protocol event (abort/rollback path).  Virtual
  /// so the proactive engine can also kill its pending pause-completion
  /// event when a failure interrupts a migration or rescale pause.
  virtual void cancel_protocol_events();
  void abort_protocol(std::uint64_t RunCounters::* reason);
  void resume_execution();
  void schedule_next_init();
  void reset_app();
  /// Disarm whichever recovery stage is pending.
  void cancel_recovery() noexcept {
    cancel(kSlotStage1Done);
    cancel(kSlotRecoveryDone);
  }

  // --- application workload ---
  void on_app_toggle();

  // --- failures & recovery ---
  void on_compute_failure(bool independent);
  void on_io_failure();
  void on_master_failure();
  void start_recovery();
  void on_stage1_done();
  void on_recovery_done();
  void start_reboot();
  void on_reboot_done();
  void record_unsuccessful_recovery();
  void invalidate_buffer();

  // --- I/O scheduling ---
  void try_start_io_work();
  void on_app_write_done();
  void on_io_restart_done();

  // --- correlated machinery ---
  void maybe_open_prop_window();
  void on_prop_window_end();
  void on_generic_toggle();
  void update_extra_failure_process();

  /// Called after an *independent* compute failure is recorded; the
  /// node-level engine overrides this to select a victim node and drive
  /// spatial-correlation windows.  The base model does nothing.
  virtual void on_independent_failure() {}

  /// Called whenever the next independent compute failure is armed, with
  /// its absolute fire time.  The proactive engine's failure predictor
  /// hangs off this hook; the base model does nothing.  Overrides must not
  /// draw from the base streams (CRN contract) — use separately named
  /// pool_ substreams.
  virtual void on_independent_failure_armed(double fire_time) { (void)fire_time; }

  /// Proactive extension point, called for every compute failure after the
  /// counters, the node-victim hook, and the correlation draw — i.e. after
  /// everything that advances an RNG stream — but before the
  /// rollback/recovery branch.  Return true to absorb the failure (an
  /// evacuated node, a malleable shrink): the failure is counted but
  /// causes no rollback.  The base model never absorbs.
  virtual bool consume_failure(bool independent) {
    (void)independent;
    return false;
  }

  /// Called once when the warm-up baselines are captured, so subclasses
  /// can window their own counters the same way.  The base model does
  /// nothing.
  virtual void on_warmup_captured() {}

  // --- plumbing ---
  void start();
  /// Fire the next event if it is due at or before `t_end` (an application
  /// event may bring a run of them, see fire_app_cycle); false (nothing
  /// fired) otherwise.
  bool fire_next(double t_end);
  void dispatch(Slot slot);
  /// Advance the clock to `t_end` (finite), firing every event due by then;
  /// on return now() == t_end, even when nothing fired.
  void run_until(double t_end);
  void schedule_failure_processes();
  void reschedule(Slot slot, sim::Rng& rng, double rate);
  /// Arm the next independent compute failure (exponential or Weibull
  /// renewal inter-arrival, per Parameters::failure_distribution).
  void schedule_independent_failure();
  [[nodiscard]] double sample_failure_interarrival();
  [[nodiscard]] bool in_recovery() const noexcept;
  /// Coordination (overall quiesce) latency; the node-level engine samples
  /// the explicit per-node maximum instead of the closed-form inverse.
  [[nodiscard]] virtual double sample_coordination_time();
  [[nodiscard]] double rollback_target() const noexcept;
  /// Number of time-accounting categories in StateBreakdown.
  static constexpr std::size_t kStateCategories = 4;
  /// Map a compute state to its StateBreakdown category.
  [[nodiscard]] static std::size_t state_category(ComputeState state) noexcept;
  /// Transition the compute unit, keeping per-category time integrals.
  void enter_state(ComputeState next);
  void set_useful_rate(double rate) {
    // useful_scale_ is 1.0 outside the malleable proactive policy, and
    // rate * 1.0 == rate bit-exactly, so the base model is unaffected.
    useful_.set_rate(now_, rate * useful_scale_);
    refresh_job_event();
  }
  /// Charge `loss` seconds of rolled-back work against the useful integral.
  void charge_loss(double loss);
  /// True when the next checkpoint must be a full one (incremental chain
  /// exhausted or no full checkpoint exists yet).
  [[nodiscard]] bool next_checkpoint_is_full() const noexcept;
  /// Transfer-size multiplier of the in-flight checkpoint (1 for full).
  [[nodiscard]] double current_dump_scale() const noexcept;
  /// Stage-1 read time: the full checkpoint plus the committed chain.
  [[nodiscard]] double stage1_read_time() const noexcept;
  /// Keep the job-completion event aligned with the useful-work integral.
  void refresh_job_event();
  void note(trace::EventKind kind, double value = 0.0) {
    if (log_ != nullptr) log_->record(now_, kind, value);
    if (event_counts_ != nullptr) event_counts_->bump(kind);
  }

  Parameters p_;
  IoTiming io_timing_;
  WorkloadProfile workload_;
  CorrelatedRates rates_;
  sim::RngPool pool_;  ///< named substreams of this replication's seed
  // One RNG substream per stochastic process: keeps replications
  // reproducible and supports common-random-number comparisons.
  struct Streams {
    sim::Rng fail_compute, fail_io, fail_master, fail_extra;
    sim::Rng coordination, recovery, correlated, io_restart;
  };
  Streams rng_;

  // state
  ComputeState compute_ = ComputeState::kExecuting;
  AppPhase app_phase_ = AppPhase::kCompute;
  IoState io_ = IoState::kIdle;
  MasterState master_ = MasterState::kSleep;
  bool quiesce_requested_ = false;  // broadcast received during an I/O burst
  bool want_dump_ = false;
  bool recovery_wait_io_ = false;
  std::uint32_t pending_app_writes_ = 0;
  std::uint32_t failed_recoveries_ = 0;

  // checkpoint bookkeeping (useful-work integral values at capture points)
  bool buffered_valid_ = false;
  double work_at_buffered_ = 0.0;
  double work_at_committed_ = 0.0;
  double recovery_target_work_ = 0.0;

  double weibull_scale_ = 0.0;  // Weibull scale matching the mean inter-arrival

  // trace-driven failure injection (null = stochastic processes)
  std::shared_ptr<const FailureTrace> trace_;
  std::uint64_t trace_next_ = 0;  // index of the next trace event to arm

  // capacity multiplier on the useful-work rate (1.0 except while the
  // malleable proactive policy has shrunk the application)
  double useful_scale_ = 1.0;

  // incremental-checkpointing chain state
  bool current_dump_is_full_ = true;   // type of the in-flight dump
  std::uint32_t chain_since_full_ = 0; // committed increments since last full
  bool any_full_committed_ = false;

  // correlated state
  bool prop_window_active_ = false;
  bool generic_correlated_phase_ = false;

  sim::RateIntegral useful_;
  sim::RateIntegral executing_;  // gross execution time (no loss charges)
  sim::RateIntegral state_time_[kStateCategories];  // StateBreakdown integrals
  RunCounters counters_;
  // Warm-up baselines, captured once when the clock first passes the
  // transient.  Members (not run() locals) so a snapshot taken after the
  // transient carries them across restore.
  bool warmup_captured_ = false;
  double useful_at_warmup_ = 0.0;
  double exec_at_warmup_ = 0.0;
  double state_at_warmup_[kStateCategories] = {};
  RunCounters counters_at_warmup_;
  trace::EventLog* log_ = nullptr;
  trace::EventCounts* event_counts_ = nullptr;
  // job-completion mode
  double job_target_ = 0.0;  // 0 = not in job mode
  bool job_completed_ = false;
  bool started_ = false;

 private:
  static constexpr double kEmpty = std::numeric_limits<double>::infinity();

  /// Fire application events (kSlotAppToggle, kSlotAppWrite) while the
  /// next one is due by `t_end` and before (`cold_time`, `cold_seq`), the
  /// earliest other armed slot, of which `cold_live` are armed.  Stops at
  /// the watchdog budget and at the next post-fire hook boundary, then
  /// calls the hook if it is due.  Returns the number fired; 0 leaves the
  /// next event to dispatch().  Only for an executing model with no
  /// quiesce pending and no event log.
  std::uint64_t fire_app_cycle(double t_end, double cold_time, std::uint64_t cold_seq,
                               std::uint64_t cold_live);

  // Pending set: slot s is armed iff bit s of armed_ is set, and only then
  // are its time and sequence number meaningful; the sequence number
  // orders it among events scheduled for the same time.
  std::uint32_t armed_ = 0;
  double slot_time_[kNumSlots] = {};
  std::uint64_t slot_seq_[kNumSlots] = {};
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;  ///< = events scheduled so far
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t peak_live_ = 0;
  std::uint64_t fire_budget_ = 0;  ///< 0 = unlimited
  std::uint64_t hook_every_ = 0;   ///< 0 = no post-fire hook
  std::function<void()> hook_;
};

}  // namespace ckptsim
