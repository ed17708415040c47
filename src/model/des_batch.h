#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/core/results.h"
#include "src/model/correlated.h"
#include "src/model/io_timing.h"
#include "src/model/parameters.h"
#include "src/model/workload.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"
#include "src/trace/event_log.h"

namespace ckptsim {

/// Fixed-slot variant of DesModel: the engine run_replication runs every
/// plain DES replication on (one replication wide).  It can also advance a
/// batch of independent replications through their timelines together,
/// though measured widths of 8 and 64 are no faster per event than 1.
///
/// Semantics are exactly DesModel's — the handlers below are line-by-line
/// ports — but the per-replication state lives in structure-of-arrays form
/// and the pending-event set is a fixed 18-slot array per replication (the
/// model schedules at most one event per handle, so the general-purpose
/// EventQueue's heap, slot table and type-erased callbacks collapse into an
/// argmin scan over plain doubles and a direct switch dispatch).  RNG draws
/// are buffered in blocks via Rng::uniform_n and transformed through the
/// same inverse-CDF arithmetic the sequential samplers use.
///
/// Bit-identity contract: replication r constructed with
/// sim::replication_seed(master, r) produces a ReplicationResult (and event
/// log / event counts) identical to DesModel with the same seed, for any
/// batch width and placement.  The per-slot (time, sequence) pair mirrors
/// EventQueue's insertion-sequence tie-breaking, every draw site consumes
/// exactly one uniform from the same named substream, and block-buffering
/// only prefetches engine state — the values delivered in order are the
/// ones uniform() would have returned.  tests/test_des_batch.cc pins the
/// equivalence per replication and through run_replication / sweep.
///
/// Not supported here (run_replication and the other drivers use DesModel
/// instead): snapshots, job-completion mode (run_until_work), the
/// node-level and proactive extension hooks, and trace-driven failures.
/// The constructor rejects proactive and trace-driven parameters.
class DesBatch {
 public:
  /// One replication per entry of `seeds`; `params` is validated once and
  /// shared.  All replication state is allocated up front — the run loop
  /// itself performs no heap allocation.  Throws std::invalid_argument for
  /// parameters it cannot honour (trace_driven(), proactive_enabled()).
  DesBatch(const Parameters& params, std::vector<std::uint64_t> seeds);
  DesBatch(const DesBatch&) = delete;
  DesBatch& operator=(const DesBatch&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return reps_; }

  /// Watchdog: cap each replication at `max_events` fired events (0 =
  /// unlimited); past the cap the run throws sim::EventBudgetExceeded.
  /// Must be set before run().
  void set_event_budget(std::uint64_t max_events) noexcept { fire_budget_ = max_events; }

  /// Attach a structured event log / per-kind tally for replication `r`
  /// (not owned; nullptr disables).  Must be set before run().
  void set_event_log(std::size_t r, trace::EventLog* log) { logs_[r] = log; }
  void set_event_counts(std::size_t r, trace::EventCounts* counts) { counts_sinks_[r] = counts; }

  /// Run every replication: warm up for `transient`, observe `horizon`
  /// seconds, report per-replication windowed metrics (same contract as
  /// DesModel::run, in seed order).  Replications advance in lockstep
  /// quanta of a few events each.  Single-shot.
  [[nodiscard]] std::vector<ReplicationResult> run(double transient, double horizon);

  /// Synthesized event-queue statistics of replication `r` (obs metrics):
  /// scheduled/fired/cancelled and the live-event peak match what the
  /// EventQueue of a sequential run reports; compactions and peak_dead are
  /// 0 (the slot array has no tombstones to compact — a telemetry-only
  /// divergence, documented in DESIGN.md).
  [[nodiscard]] sim::QueueStats queue_stats(std::size_t r) const noexcept;

 private:
  /// Fixed event slots, one per DesModel EventHandle.  ev_recovery_ carries
  /// two different callbacks in the sequential engine (stage-1 read done vs
  /// recovery done); here each callback gets its own slot and cancel clears
  /// both (at most one is ever armed).
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
    kNumSlots,
  };

  /// Named RNG substreams, in DesModel's kSeedNames order.
  enum Stream : std::uint32_t {
    kStreamFailCompute = 0,
    kStreamFailIo,
    kStreamFailMaster,
    kStreamFailExtra,
    kStreamCoordination,
    kStreamRecovery,
    kStreamCorrelated,
    kStreamIoRestart,
    kNumStreams,
  };

  // Mirrors of DesModel's state enums (stored as bytes in the SoA arrays).
  enum class ComputeState : std::uint8_t {
    kExecuting,
    kQuiescing,
    kWaitIoForDump,
    kDumping,
    kWaitFsWrite,
    kRecoveryStage1,
    kRecoveryStage2,
    kRebooting,
  };
  enum class AppPhase : std::uint8_t { kCompute, kIo };
  enum class IoState : std::uint8_t {
    kIdle,
    kReceivingDump,
    kWritingCkpt,
    kWritingAppData,
    kReadingCkpt,
    kRestarting,
    kRebooting,
  };
  enum class MasterState : std::uint8_t { kSleep, kCheckpointing };

  /// Block-buffered unit-interval stream: refills via Rng::uniform_n, so
  /// values delivered in order are bit-identical to uniform() calls.
  struct UnitStream {
    static constexpr std::size_t kBlock = 64;
    sim::Rng rng;
    std::array<double, kBlock> buf{};
    std::uint32_t pos = kBlock;

    explicit UnitStream(sim::Rng r) : rng(r) {}
    double next() {
      if (pos == kBlock) {
        rng.uniform_n(buf.data(), kBlock);
        pos = 0;
      }
      return buf[pos++];
    }
  };

  // --- scheduling primitives (mirror EventQueue's (time, seq) order) ---
  void schedule(std::size_t r, Slot slot, double dt);
  void cancel_slot(std::size_t r, Slot slot) noexcept;
  void cancel_recovery(std::size_t r) noexcept;  // = engine_.cancel(ev_recovery_)
  /// Fire the next event of replication r if its time is <= t_end.
  /// Returns false (leaving the slot intact) otherwise.
  bool fire_next(std::size_t r, double t_end);
  void dispatch(std::size_t r, Slot slot);
  /// Advance every replication to t_end in lockstep quanta; on return each
  /// replication's clock sits exactly at t_end.
  void advance_all(double t_end);

  double unit(std::size_t r, Stream s) { return streams_[r * kNumStreams + s].next(); }

  // --- ported DesModel internals (see des_model.cc for the originals) ---
  void start(std::size_t r);
  void reschedule(std::size_t r, Slot slot, Stream s, double rate);
  void schedule_independent_failure(std::size_t r);
  [[nodiscard]] double sample_failure_interarrival(std::size_t r);
  [[nodiscard]] double sample_coordination_time(std::size_t r);
  void schedule_failure_processes(std::size_t r);
  [[nodiscard]] bool in_recovery(std::size_t r) const noexcept;
  [[nodiscard]] double rollback_target(std::size_t r) const noexcept;
  [[nodiscard]] static std::size_t state_category(ComputeState state) noexcept;
  void enter_state(std::size_t r, ComputeState next);
  void set_useful_rate(std::size_t r, double rate);
  void charge_loss(std::size_t r, double loss);
  [[nodiscard]] bool next_checkpoint_is_full(std::size_t r) const noexcept;
  [[nodiscard]] double current_dump_scale(std::size_t r) const noexcept;
  [[nodiscard]] double stage1_read_time(std::size_t r) const noexcept;
  void note(std::size_t r, trace::EventKind kind, double value = 0.0);

  void schedule_next_init(std::size_t r);
  void reset_app(std::size_t r);
  void on_ckpt_init(std::size_t r);
  void on_bcast_received(std::size_t r);
  void begin_quiesce(std::size_t r);
  void on_coordination_done(std::size_t r);
  void start_dump(std::size_t r);
  void on_dump_done(std::size_t r);
  void on_fs_write_done(std::size_t r);
  void finish_cycle_success(std::size_t r);
  void resume_execution(std::size_t r);
  void cancel_protocol_events(std::size_t r);
  void abort_protocol(std::size_t r, std::uint64_t RunCounters::* reason);
  void on_timeout(std::size_t r);
  void on_app_toggle(std::size_t r);
  void on_compute_failure(std::size_t r, bool independent);
  void record_unsuccessful_recovery(std::size_t r);
  void start_recovery(std::size_t r);
  void on_stage1_done(std::size_t r);
  void on_recovery_done(std::size_t r);
  void start_reboot(std::size_t r);
  void on_reboot_done(std::size_t r);
  void invalidate_buffer(std::size_t r);
  void on_io_failure(std::size_t r);
  void on_io_restart_done(std::size_t r);
  void on_master_failure(std::size_t r);
  void try_start_io_work(std::size_t r);
  void on_app_write_done(std::size_t r);
  void maybe_open_prop_window(std::size_t r);
  void on_prop_window_end(std::size_t r);
  void on_generic_toggle(std::size_t r);
  void update_extra_failure_process(std::size_t r);

  // shared immutable configuration
  Parameters p_;
  IoTiming io_timing_;
  WorkloadProfile workload_;
  CorrelatedRates rates_;
  double weibull_scale_ = 0.0;
  std::size_t reps_ = 0;
  std::uint64_t fire_budget_ = 0;
  bool started_ = false;

  static constexpr std::size_t kStateCategories = 4;
  /// Events one replication fires before the lockstep loop moves on.
  static constexpr std::size_t kQuantum = 64;

  // --- structure-of-arrays replication state (indexed by r) ---
  // per-replication scheduler: kNumSlots (time, seq) pairs each
  std::vector<double> slot_time_;        // reps * kNumSlots; +inf = empty
  std::vector<std::uint64_t> slot_seq_;  // reps * kNumSlots
  std::vector<std::uint64_t> next_seq_, fired_, cancelled_;
  std::vector<std::size_t> live_, peak_live_;
  std::vector<double> now_;

  std::vector<UnitStream> streams_;  // reps * kNumStreams

  std::vector<ComputeState> compute_;
  std::vector<AppPhase> app_phase_;
  std::vector<IoState> io_;
  std::vector<MasterState> master_;
  std::vector<std::uint8_t> quiesce_requested_, want_dump_, recovery_wait_io_;
  std::vector<std::uint32_t> pending_app_writes_, failed_recoveries_;
  std::vector<std::uint8_t> buffered_valid_;
  std::vector<double> work_at_buffered_, work_at_committed_, recovery_target_work_;
  std::vector<std::uint8_t> current_dump_is_full_;
  std::vector<std::uint32_t> chain_since_full_;
  std::vector<std::uint8_t> any_full_committed_;
  std::vector<std::uint8_t> prop_window_active_, generic_correlated_phase_;

  std::vector<sim::RateIntegral> useful_, executing_;
  std::vector<sim::RateIntegral> state_time_;  // reps * kStateCategories
  std::vector<RunCounters> counters_;
  std::vector<trace::EventLog*> logs_;
  std::vector<trace::EventCounts*> counts_sinks_;
  std::vector<std::uint8_t> done_scratch_;  ///< advance_all per-rep done flags
};

}  // namespace ckptsim
