#include "src/model/des_batch.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/sim/distributions.h"

// Every handler below is a line-by-line port of the corresponding DesModel
// member (src/model/des_model.cc) with the implicit `this` state replaced by
// the r-th lane of the structure-of-arrays state.  Order of schedule/cancel
// calls and of RNG draws is load-bearing: the per-lane sequence counter
// mirrors EventQueue's insertion order (ties in time fire in insertion
// order) and each draw site consumes exactly one uniform from the same
// named substream, which is what makes the batch bit-identical to the
// sequential engine.  Keep the two files in sync.

namespace ckptsim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Same substream names (and order) as DesModel's kSeedNames.
constexpr const char* kSeedNames[] = {"fail_compute", "fail_io", "fail_master", "fail_extra",
                                      "coordination", "recovery",  "correlated",  "io_restart"};
}  // namespace

DesBatch::DesBatch(const Parameters& params, std::vector<std::uint64_t> seeds)
    : p_(params), io_timing_(params), workload_(params), rates_(params), reps_(seeds.size()) {
  p_.validate();
  // The slot array ports neither DesModel's trace cursor nor its proactive
  // hooks; running anyway would silently simulate the stochastic reactive
  // model in their place.
  if (p_.trace_driven()) {
    throw std::invalid_argument(
        "DesBatch: trace-driven failure injection runs on DesModel (run_replication "
        "routes it there)");
  }
  if (p_.proactive_enabled()) {
    throw std::invalid_argument(
        "DesBatch: proactive fault tolerance runs under proactive::run_proactive");
  }
  if (p_.failure_distribution == FailureDistribution::kWeibull &&
      rates_.independent_rate > 0.0) {
    const double mean = 1.0 / rates_.independent_rate;
    weibull_scale_ = mean / std::tgamma(1.0 + 1.0 / p_.weibull_shape);
  }
  slot_time_.assign(reps_ * kNumSlots, kInf);
  slot_seq_.assign(reps_ * kNumSlots, 0);
  next_seq_.assign(reps_, 0);
  fired_.assign(reps_, 0);
  cancelled_.assign(reps_, 0);
  live_.assign(reps_, 0);
  peak_live_.assign(reps_, 0);
  now_.assign(reps_, 0.0);
  streams_.reserve(reps_ * kNumStreams);
  for (std::size_t r = 0; r < reps_; ++r) {
    const sim::RngPool pool(seeds[r]);
    for (std::size_t s = 0; s < kNumStreams; ++s) {
      streams_.emplace_back(pool.stream(kSeedNames[s]));
    }
  }
  compute_.assign(reps_, ComputeState::kExecuting);
  app_phase_.assign(reps_, AppPhase::kCompute);
  io_.assign(reps_, IoState::kIdle);
  master_.assign(reps_, MasterState::kSleep);
  quiesce_requested_.assign(reps_, 0);
  want_dump_.assign(reps_, 0);
  recovery_wait_io_.assign(reps_, 0);
  pending_app_writes_.assign(reps_, 0);
  failed_recoveries_.assign(reps_, 0);
  buffered_valid_.assign(reps_, 0);
  work_at_buffered_.assign(reps_, 0.0);
  work_at_committed_.assign(reps_, 0.0);
  recovery_target_work_.assign(reps_, 0.0);
  current_dump_is_full_.assign(reps_, 1);
  chain_since_full_.assign(reps_, 0);
  any_full_committed_.assign(reps_, 0);
  prop_window_active_.assign(reps_, 0);
  generic_correlated_phase_.assign(reps_, 0);
  useful_.assign(reps_, sim::RateIntegral{});
  executing_.assign(reps_, sim::RateIntegral{});
  state_time_.assign(reps_ * kStateCategories, sim::RateIntegral{});
  counters_.assign(reps_, RunCounters{});
  logs_.assign(reps_, nullptr);
  counts_sinks_.assign(reps_, nullptr);
  done_scratch_.assign(reps_, 0);  // pre-sized so advance_all never allocates
}

// ---------------------------------------------------------------------------
// scheduling primitives

void DesBatch::schedule(std::size_t r, Slot slot, double dt) {
  const std::size_t i = r * kNumSlots + slot;
  assert(slot_time_[i] == kInf && "DesBatch: slot double-armed");
  slot_time_[i] = now_[r] + dt;
  slot_seq_[i] = next_seq_[r]++;
  if (++live_[r] > peak_live_[r]) peak_live_[r] = live_[r];
}

void DesBatch::cancel_slot(std::size_t r, Slot slot) noexcept {
  const std::size_t i = r * kNumSlots + slot;
  if (slot_time_[i] != kInf) {
    slot_time_[i] = kInf;
    ++cancelled_[r];
    --live_[r];
  }
}

void DesBatch::cancel_recovery(std::size_t r) noexcept {
  // ev_recovery_ maps to two slots (stage-1 read vs stage-2 done); at most
  // one is armed, so cancelling both performs at most one real cancel —
  // exactly one engine_.cancel(ev_recovery_).
  cancel_slot(r, kSlotStage1Done);
  cancel_slot(r, kSlotRecoveryDone);
}

bool DesBatch::fire_next(std::size_t r, double t_end) {
  const double* st = &slot_time_[r * kNumSlots];
  const std::uint64_t* sq = &slot_seq_[r * kNumSlots];
  std::uint32_t best = kNumSlots;
  double bt = kInf;
  std::uint64_t bs = 0;
  for (std::uint32_t s = 0; s < kNumSlots; ++s) {
    const double t = st[s];
    if (t == kInf) continue;
    if (best == kNumSlots || t < bt || (t == bt && sq[s] < bs)) {
      best = s;
      bt = t;
      bs = sq[s];
    }
  }
  if (best == kNumSlots || bt > t_end) return false;
  if (fire_budget_ != 0 && fired_[r] >= fire_budget_) throw sim::EventBudgetExceeded(fire_budget_);
  slot_time_[r * kNumSlots + best] = kInf;
  --live_[r];
  ++fired_[r];
  now_[r] = bt;
  dispatch(r, static_cast<Slot>(best));
  return true;
}

void DesBatch::dispatch(std::size_t r, Slot slot) {
  switch (slot) {
    case kSlotCkptInit: return on_ckpt_init(r);
    case kSlotTimeout: return on_timeout(r);
    case kSlotBcast: return on_bcast_received(r);
    case kSlotCoord: return on_coordination_done(r);
    case kSlotDump: return on_dump_done(r);
    case kSlotFsWrite: return on_fs_write_done(r);
    case kSlotAppWrite: return on_app_write_done(r);
    case kSlotAppToggle: return on_app_toggle(r);
    case kSlotStage1Done: return on_stage1_done(r);
    case kSlotRecoveryDone: return on_recovery_done(r);
    case kSlotReboot: return on_reboot_done(r);
    case kSlotIoRestart: return on_io_restart_done(r);
    case kSlotFailCompute:
      schedule_independent_failure(r);  // re-arm first, as the trampoline does
      return on_compute_failure(r, true);
    case kSlotFailIo: return on_io_failure(r);
    case kSlotFailMaster: return on_master_failure(r);
    case kSlotFailExtra:
      update_extra_failure_process(r);
      return on_compute_failure(r, false);
    case kSlotWindowEnd: return on_prop_window_end(r);
    case kSlotGenericToggle: return on_generic_toggle(r);
    case kNumSlots: break;
  }
  throw std::logic_error("DesBatch: unknown event slot");
}

void DesBatch::advance_all(double t_end) {
  done_scratch_.assign(reps_, 0);
  std::size_t remaining = reps_;
  while (remaining > 0) {
    for (std::size_t r = 0; r < reps_; ++r) {
      if (done_scratch_[r] != 0) continue;
      for (std::size_t k = 0; k < kQuantum; ++k) {
        if (!fire_next(r, t_end)) {
          // Same clock contract as EventQueue::run_until: land on t_end
          // (events scheduled exactly at t_end have fired).
          if (now_[r] < t_end) now_[r] = t_end;
          done_scratch_[r] = 1;
          --remaining;
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// plumbing (ports of the DesModel members of the same name)

void DesBatch::reschedule(std::size_t r, Slot slot, Stream s, double rate) {
  cancel_slot(r, slot);
  if (rate > 0.0) {
    schedule(r, slot, sim::exponential_from_unit(unit(r, s), 1.0 / rate));
  }
}

bool DesBatch::next_checkpoint_is_full(std::size_t r) const noexcept {
  if (p_.full_checkpoint_period <= 1) return true;
  if (any_full_committed_[r] == 0) return true;
  return chain_since_full_[r] >= p_.full_checkpoint_period - 1;
}

double DesBatch::current_dump_scale(std::size_t r) const noexcept {
  return current_dump_is_full_[r] != 0 ? 1.0 : p_.incremental_size_fraction;
}

double DesBatch::stage1_read_time(std::size_t r) const noexcept {
  return io_timing_.fs_read *
         (1.0 + static_cast<double>(chain_since_full_[r]) * p_.incremental_size_fraction);
}

double DesBatch::sample_failure_interarrival(std::size_t r) {
  if (p_.failure_distribution == FailureDistribution::kWeibull) {
    const sim::Weibull dist(p_.weibull_shape, weibull_scale_);
    return dist.sample_from_unit(unit(r, kStreamFailCompute));
  }
  const double mean = 1.0 / rates_.independent_rate;
  return sim::exponential_from_unit(unit(r, kStreamFailCompute), mean);
}

void DesBatch::schedule_independent_failure(std::size_t r) {
  cancel_slot(r, kSlotFailCompute);
  if (!p_.compute_failures_enabled || rates_.independent_rate <= 0.0) return;
  schedule(r, kSlotFailCompute, sample_failure_interarrival(r));
}

bool DesBatch::in_recovery(std::size_t r) const noexcept {
  return compute_[r] == ComputeState::kRecoveryStage1 ||
         compute_[r] == ComputeState::kRecoveryStage2;
}

double DesBatch::rollback_target(std::size_t r) const noexcept {
  return buffered_valid_[r] != 0 ? work_at_buffered_[r] : work_at_committed_[r];
}

std::size_t DesBatch::state_category(ComputeState state) noexcept {
  switch (state) {
    case ComputeState::kExecuting:
      return 0;
    case ComputeState::kQuiescing:
    case ComputeState::kWaitIoForDump:
    case ComputeState::kDumping:
    case ComputeState::kWaitFsWrite:
      return 1;
    case ComputeState::kRecoveryStage1:
    case ComputeState::kRecoveryStage2:
      return 2;
    case ComputeState::kRebooting:
      return 3;
  }
  return 0;
}

void DesBatch::enter_state(std::size_t r, ComputeState next) {
  const double now = now_[r];
  state_time_[r * kStateCategories + state_category(compute_[r])].set_rate(now, 0.0);
  state_time_[r * kStateCategories + state_category(next)].set_rate(now, 1.0);
  compute_[r] = next;
}

double DesBatch::sample_coordination_time(std::size_t r) {
  switch (p_.coordination) {
    case CoordinationMode::kFixedQuiesce:
      return p_.mttq;
    case CoordinationMode::kSystemExponential:
      return sim::exponential_from_unit(unit(r, kStreamCoordination), p_.mttq);
    case CoordinationMode::kMaxOfExponentials: {
      const sim::MaxOfExponentials dist(p_.num_processors, p_.mttq);
      return dist.sample_from_unit(unit(r, kStreamCoordination));
    }
  }
  throw std::logic_error("DesBatch: unknown coordination mode");
}

void DesBatch::schedule_failure_processes(std::size_t r) {
  schedule_independent_failure(r);
  if (p_.io_failures_enabled) {
    reschedule(r, kSlotFailIo, kStreamFailIo, p_.io_failure_rate());
  }
  if (p_.master_failures_enabled) {
    reschedule(r, kSlotFailMaster, kStreamFailMaster, 1.0 / p_.mttf_node);
  }
  update_extra_failure_process(r);
}

void DesBatch::set_useful_rate(std::size_t r, double rate) {
  // No refresh_job_event(): job-completion mode is unsupported in the
  // batch, and in run mode the sequential call is a no-op anyway.
  useful_[r].set_rate(now_[r], rate);
}

void DesBatch::charge_loss(std::size_t r, double loss) {
  useful_[r].impulse(-loss);
  note(r, trace::EventKind::kRollback, loss);
}

void DesBatch::note(std::size_t r, trace::EventKind kind, double value) {
  if (logs_[r] != nullptr) logs_[r]->record(now_[r], kind, value);
  if (counts_sinks_[r] != nullptr) counts_sinks_[r]->bump(kind);
}

// ---------------------------------------------------------------------------
// run driver

void DesBatch::start(std::size_t r) {
  set_useful_rate(r, 1.0);
  executing_[r].set_rate(0.0, 1.0);
  state_time_[r * kStateCategories + state_category(compute_[r])].set_rate(0.0, 1.0);
  schedule_next_init(r);
  reset_app(r);
  schedule_failure_processes(r);
  if (p_.generic_correlated_coefficient > 0.0 && !p_.generic_correlated_smooth) {
    const GenericPhases phases(p_.generic_correlated_coefficient, p_.correlated_window);
    generic_correlated_phase_[r] = 0;
    schedule(r, kSlotGenericToggle,
             sim::exponential_from_unit(unit(r, kStreamCorrelated), phases.normal_mean));
  }
}

std::vector<ReplicationResult> DesBatch::run(double transient, double horizon) {
  if (!(horizon > 0.0)) throw std::invalid_argument("DesBatch::run: horizon must be > 0");
  if (started_) throw std::logic_error("DesBatch: single-shot object, construct a new one");
  started_ = true;
  for (std::size_t r = 0; r < reps_; ++r) start(r);

  advance_all(transient);
  std::vector<double> useful_at_warmup(reps_), exec_at_warmup(reps_);
  std::vector<double> state_at_warmup(reps_ * kStateCategories);
  std::vector<RunCounters> counters_at_warmup(counters_);
  for (std::size_t r = 0; r < reps_; ++r) {
    useful_at_warmup[r] = useful_[r].value(transient);
    exec_at_warmup[r] = executing_[r].value(transient);
    for (std::size_t i = 0; i < kStateCategories; ++i) {
      state_at_warmup[r * kStateCategories + i] =
          state_time_[r * kStateCategories + i].value(transient);
    }
  }

  const double t_end = transient + horizon;
  advance_all(t_end);

  std::vector<ReplicationResult> out(reps_);
  for (std::size_t r = 0; r < reps_; ++r) {
    ReplicationResult& res = out[r];
    res.observed_span = horizon;
    res.useful_fraction = (useful_[r].value(t_end) - useful_at_warmup[r]) / horizon;
    res.gross_execution_fraction = (executing_[r].value(t_end) - exec_at_warmup[r]) / horizon;
    const double* sw = &state_at_warmup[r * kStateCategories];
    const sim::RateIntegral* st = &state_time_[r * kStateCategories];
    res.breakdown.executing = (st[0].value(t_end) - sw[0]) / horizon;
    res.breakdown.checkpointing = (st[1].value(t_end) - sw[1]) / horizon;
    res.breakdown.recovering = (st[2].value(t_end) - sw[2]) / horizon;
    res.breakdown.rebooting = (st[3].value(t_end) - sw[3]) / horizon;
    res.counters = counters_[r] - counters_at_warmup[r];
  }
  return out;
}

sim::QueueStats DesBatch::queue_stats(std::size_t r) const noexcept {
  sim::QueueStats s;
  s.scheduled = next_seq_[r];
  s.fired = fired_[r];
  s.cancelled = cancelled_[r];
  s.compactions = 0;
  s.peak_size = peak_live_[r];
  s.peak_dead = 0;
  return s;
}

// ---------------------------------------------------------------------------
// checkpoint protocol

void DesBatch::schedule_next_init(std::size_t r) {
  cancel_slot(r, kSlotCkptInit);
  schedule(r, kSlotCkptInit, p_.checkpoint_interval);
}

void DesBatch::reset_app(std::size_t r) {
  cancel_slot(r, kSlotAppToggle);
  app_phase_[r] = AppPhase::kCompute;
  if (p_.app_io_enabled && workload_.io_phase > 0.0) {
    schedule(r, kSlotAppToggle, workload_.compute_phase);
  }
}

void DesBatch::on_ckpt_init(std::size_t r) {
  if (compute_[r] != ComputeState::kExecuting || master_[r] != MasterState::kSleep) {
    throw std::logic_error("DesBatch: checkpoint initiated outside the executing state");
  }
  master_[r] = MasterState::kCheckpointing;
  ++counters_[r].ckpt_initiated;
  note(r, trace::EventKind::kCkptInitiated);
  if (p_.timeout > 0.0) {
    schedule(r, kSlotTimeout, p_.timeout);
  }
  schedule(r, kSlotBcast, p_.quiesce_broadcast_latency());
}

void DesBatch::on_bcast_received(std::size_t r) {
  if (compute_[r] != ComputeState::kExecuting) {
    throw std::logic_error("DesBatch: quiesce broadcast arrived outside the executing state");
  }
  if (app_phase_[r] == AppPhase::kIo) {
    quiesce_requested_[r] = 1;
  } else {
    begin_quiesce(r);
  }
}

void DesBatch::begin_quiesce(std::size_t r) {
  note(r, trace::EventKind::kQuiesceStarted);
  enter_state(r, ComputeState::kQuiescing);
  set_useful_rate(r, 0.0);
  executing_[r].set_rate(now_[r], 0.0);
  cancel_slot(r, kSlotAppToggle);
  schedule(r, kSlotCoord, sample_coordination_time(r));
}

void DesBatch::on_coordination_done(std::size_t r) {
  note(r, trace::EventKind::kCoordinationDone);
  cancel_slot(r, kSlotTimeout);
  want_dump_[r] = 1;
  enter_state(r, ComputeState::kWaitIoForDump);
  try_start_io_work(r);
}

void DesBatch::start_dump(std::size_t r) {
  if (io_[r] != IoState::kIdle) {
    throw std::logic_error("DesBatch: checkpoint dump started while the I/O nodes are busy");
  }
  note(r, trace::EventKind::kDumpStarted);
  want_dump_[r] = 0;
  enter_state(r, ComputeState::kDumping);
  io_[r] = IoState::kReceivingDump;
  buffered_valid_[r] = 0;
  current_dump_is_full_[r] = next_checkpoint_is_full(r) ? 1 : 0;
  schedule(r, kSlotDump, io_timing_.dump * current_dump_scale(r));
}

void DesBatch::on_dump_done(std::size_t r) {
  ++counters_[r].ckpt_dumped;
  if (current_dump_is_full_[r] != 0) {
    ++counters_[r].ckpt_full;
  } else {
    ++counters_[r].ckpt_incremental;
  }
  note(r, trace::EventKind::kDumpDone);
  buffered_valid_[r] = 1;
  work_at_buffered_[r] = useful_[r].value(now_[r]);
  io_[r] = IoState::kWritingCkpt;
  schedule(r, kSlotFsWrite, io_timing_.fs_write * current_dump_scale(r));
  if (p_.background_fs_write) {
    finish_cycle_success(r);
  } else {
    enter_state(r, ComputeState::kWaitFsWrite);
    master_[r] = MasterState::kSleep;
  }
}

void DesBatch::on_fs_write_done(std::size_t r) {
  ++counters_[r].ckpt_committed;
  note(r, trace::EventKind::kCkptCommitted);
  work_at_committed_[r] = work_at_buffered_[r];
  if (current_dump_is_full_[r] != 0) {
    any_full_committed_[r] = 1;
    chain_since_full_[r] = 0;
  } else {
    ++chain_since_full_[r];
  }
  io_[r] = IoState::kIdle;
  if (compute_[r] == ComputeState::kWaitFsWrite) finish_cycle_success(r);
  try_start_io_work(r);
}

void DesBatch::finish_cycle_success(std::size_t r) {
  master_[r] = MasterState::kSleep;
  resume_execution(r);
}

void DesBatch::resume_execution(std::size_t r) {
  enter_state(r, ComputeState::kExecuting);
  set_useful_rate(r, 1.0);
  executing_[r].set_rate(now_[r], 1.0);
  reset_app(r);
  schedule_next_init(r);
}

void DesBatch::cancel_protocol_events(std::size_t r) {
  cancel_slot(r, kSlotCkptInit);
  cancel_slot(r, kSlotTimeout);
  cancel_slot(r, kSlotBcast);
  cancel_slot(r, kSlotCoord);
  cancel_slot(r, kSlotDump);
  quiesce_requested_[r] = 0;
  want_dump_[r] = 0;
}

void DesBatch::abort_protocol(std::size_t r, std::uint64_t RunCounters::* reason) {
  ++(counters_[r].*reason);
  note(r, trace::EventKind::kCkptAborted);
  const bool was_blocked = compute_[r] == ComputeState::kQuiescing ||
                           compute_[r] == ComputeState::kWaitIoForDump ||
                           compute_[r] == ComputeState::kDumping;
  cancel_protocol_events(r);
  if (io_[r] == IoState::kReceivingDump) {
    io_[r] = IoState::kIdle;
  }
  master_[r] = MasterState::kSleep;
  if (was_blocked) {
    resume_execution(r);
    try_start_io_work(r);
  } else {
    schedule_next_init(r);
  }
}

void DesBatch::on_timeout(std::size_t r) {
  abort_protocol(r, &RunCounters::ckpt_aborted_timeout);
}

// ---------------------------------------------------------------------------
// application workload

void DesBatch::on_app_toggle(std::size_t r) {
  if (compute_[r] != ComputeState::kExecuting) {
    throw std::logic_error("DesBatch: application phase toggled while not executing");
  }
  if (app_phase_[r] == AppPhase::kCompute) {
    app_phase_[r] = AppPhase::kIo;
    note(r, trace::EventKind::kAppPhaseIo);
    schedule(r, kSlotAppToggle, workload_.io_phase);
  } else {
    app_phase_[r] = AppPhase::kCompute;
    note(r, trace::EventKind::kAppPhaseCompute);
    if (p_.app_io_data_per_node > 0.0) {
      ++pending_app_writes_[r];
      try_start_io_work(r);
    }
    if (quiesce_requested_[r] != 0) {
      quiesce_requested_[r] = 0;
      begin_quiesce(r);
    } else {
      schedule(r, kSlotAppToggle, workload_.compute_phase);
    }
  }
}

// ---------------------------------------------------------------------------
// failures and recovery

void DesBatch::on_compute_failure(std::size_t r, bool independent) {
  // The re-arm of the triggering Poisson process already happened in
  // dispatch(), matching the trampoline order of the sequential engine.
  if (compute_[r] == ComputeState::kRebooting) return;

  const bool recovering = in_recovery(r) || recovery_wait_io_[r] != 0;
  if (!p_.failures_during_recovery && recovering) return;
  if (!p_.failures_during_checkpointing && !recovering &&
      compute_[r] != ComputeState::kExecuting) {
    return;
  }

  note(r, trace::EventKind::kComputeFailure, independent ? 1.0 : 0.0);
  if (independent) {
    ++counters_[r].compute_failures;
    maybe_open_prop_window(r);
  } else {
    ++counters_[r].extra_failures;
  }

  if (recovering) {
    record_unsuccessful_recovery(r);
    return;
  }

  if (master_[r] == MasterState::kCheckpointing) ++counters_[r].ckpt_aborted_failure;
  cancel_protocol_events(r);
  if (io_[r] == IoState::kReceivingDump) io_[r] = IoState::kIdle;
  master_[r] = MasterState::kSleep;
  cancel_slot(r, kSlotAppToggle);

  const double target = rollback_target(r);
  const double loss = useful_[r].value(now_[r]) - target;
  assert(loss >= -1e-9);
  charge_loss(r, loss);
  set_useful_rate(r, 0.0);
  executing_[r].set_rate(now_[r], 0.0);
  recovery_target_work_[r] = target;
  failed_recoveries_[r] = 0;
  ++counters_[r].recoveries_started;
  start_recovery(r);
}

void DesBatch::record_unsuccessful_recovery(std::size_t r) {
  ++counters_[r].recovery_restarts;
  ++failed_recoveries_[r];
  cancel_recovery(r);
  if (io_[r] == IoState::kReadingCkpt) io_[r] = IoState::kIdle;
  recovery_wait_io_[r] = 0;
  if (failed_recoveries_[r] > p_.recovery_failure_threshold) {
    start_reboot(r);
  } else {
    start_recovery(r);
  }
}

void DesBatch::start_recovery(std::size_t r) {
  if (buffered_valid_[r] != 0) {
    note(r, trace::EventKind::kRecoveryStage2);
    enter_state(r, ComputeState::kRecoveryStage2);
    schedule(r, kSlotRecoveryDone,
             sim::exponential_from_unit(unit(r, kStreamRecovery), p_.mttr_compute));
    return;
  }
  note(r, trace::EventKind::kRecoveryStage1);
  enter_state(r, ComputeState::kRecoveryStage1);
  if (io_[r] == IoState::kIdle) {
    io_[r] = IoState::kReadingCkpt;
    schedule(r, kSlotStage1Done, stage1_read_time(r));
  } else {
    recovery_wait_io_[r] = 1;
  }
}

void DesBatch::on_stage1_done(std::size_t r) {
  ++counters_[r].stage1_reads;
  note(r, trace::EventKind::kRecoveryStage2);
  io_[r] = IoState::kIdle;
  buffered_valid_[r] = 1;
  work_at_buffered_[r] = work_at_committed_[r];
  enter_state(r, ComputeState::kRecoveryStage2);
  schedule(r, kSlotRecoveryDone,
           sim::exponential_from_unit(unit(r, kStreamRecovery), p_.mttr_compute));
  try_start_io_work(r);
}

void DesBatch::on_recovery_done(std::size_t r) {
  ++counters_[r].recoveries_completed;
  note(r, trace::EventKind::kRecoveryDone);
  failed_recoveries_[r] = 0;
  if (prop_window_active_[r] != 0) {
    cancel_slot(r, kSlotWindowEnd);
    prop_window_active_[r] = 0;
    note(r, trace::EventKind::kWindowClosed);
    update_extra_failure_process(r);
  }
  resume_execution(r);
}

void DesBatch::start_reboot(std::size_t r) {
  ++counters_[r].reboots;
  note(r, trace::EventKind::kRebootStarted);
  cancel_recovery(r);
  cancel_slot(r, kSlotFsWrite);
  cancel_slot(r, kSlotAppWrite);
  cancel_slot(r, kSlotIoRestart);
  recovery_wait_io_[r] = 0;
  pending_app_writes_[r] = 0;
  invalidate_buffer(r);
  enter_state(r, ComputeState::kRebooting);
  io_[r] = IoState::kRebooting;
  schedule(r, kSlotReboot, p_.reboot_time);
}

void DesBatch::on_reboot_done(std::size_t r) {
  io_[r] = IoState::kIdle;
  failed_recoveries_[r] = 0;
  start_recovery(r);
}

void DesBatch::invalidate_buffer(std::size_t r) {
  buffered_valid_[r] = 0;
  if ((in_recovery(r) || recovery_wait_io_[r] != 0) &&
      recovery_target_work_[r] > work_at_committed_[r]) {
    charge_loss(r, recovery_target_work_[r] - work_at_committed_[r]);
    recovery_target_work_[r] = work_at_committed_[r];
  }
}

void DesBatch::on_io_failure(std::size_t r) {
  reschedule(r, kSlotFailIo, kStreamFailIo, p_.io_failure_rate());
  if (compute_[r] == ComputeState::kRebooting || io_[r] == IoState::kRebooting) return;
  if (io_[r] == IoState::kRestarting) return;
  ++counters_[r].io_failures;
  note(r, trace::EventKind::kIoFailure);

  const IoState failed_in = io_[r];
  cancel_slot(r, kSlotFsWrite);
  cancel_slot(r, kSlotAppWrite);
  pending_app_writes_[r] = 0;
  io_[r] = IoState::kRestarting;
  invalidate_buffer(r);

  switch (failed_in) {
    case IoState::kWritingCkpt:
      ++counters_[r].ckpt_aborted_io;
      break;
    case IoState::kReceivingDump:
      abort_protocol(r, &RunCounters::ckpt_aborted_io);
      break;
    case IoState::kWritingAppData: {
      if (in_recovery(r) || recovery_wait_io_[r] != 0) {
        record_unsuccessful_recovery(r);
      } else {
        if (master_[r] == MasterState::kCheckpointing) ++counters_[r].ckpt_aborted_failure;
        cancel_protocol_events(r);
        if (compute_[r] == ComputeState::kDumping) {
          enter_state(r, ComputeState::kExecuting);
        }
        master_[r] = MasterState::kSleep;
        cancel_slot(r, kSlotAppToggle);
        const double target = rollback_target(r);
        const double loss = useful_[r].value(now_[r]) - target;
        charge_loss(r, loss);
        set_useful_rate(r, 0.0);
        executing_[r].set_rate(now_[r], 0.0);
        recovery_target_work_[r] = target;
        failed_recoveries_[r] = 0;
        ++counters_[r].recoveries_started;
        start_recovery(r);
      }
      break;
    }
    case IoState::kReadingCkpt:
      record_unsuccessful_recovery(r);
      break;
    case IoState::kIdle:
      break;
    case IoState::kRestarting:
    case IoState::kRebooting:
      break;
  }
  if (compute_[r] == ComputeState::kRecoveryStage2) record_unsuccessful_recovery(r);
  if (compute_[r] == ComputeState::kRebooting) return;
  schedule(r, kSlotIoRestart,
           sim::exponential_from_unit(unit(r, kStreamIoRestart), p_.mttr_io));
}

void DesBatch::on_io_restart_done(std::size_t r) {
  io_[r] = IoState::kIdle;
  try_start_io_work(r);
}

void DesBatch::on_master_failure(std::size_t r) {
  reschedule(r, kSlotFailMaster, kStreamFailMaster, 1.0 / p_.mttf_node);
  if (master_[r] != MasterState::kCheckpointing) return;
  if (compute_[r] == ComputeState::kExecuting || compute_[r] == ComputeState::kQuiescing ||
      compute_[r] == ComputeState::kWaitIoForDump || compute_[r] == ComputeState::kDumping) {
    note(r, trace::EventKind::kMasterFailure);
    abort_protocol(r, &RunCounters::master_aborts);
  }
}

// ---------------------------------------------------------------------------
// I/O work scheduling

void DesBatch::try_start_io_work(std::size_t r) {
  if (io_[r] != IoState::kIdle) return;
  if (recovery_wait_io_[r] != 0) {
    recovery_wait_io_[r] = 0;
    io_[r] = IoState::kReadingCkpt;
    schedule(r, kSlotStage1Done, stage1_read_time(r));
    return;
  }
  if (want_dump_[r] != 0 && compute_[r] == ComputeState::kWaitIoForDump) {
    start_dump(r);
    return;
  }
  if (pending_app_writes_[r] > 0) {
    --pending_app_writes_[r];
    io_[r] = IoState::kWritingAppData;
    schedule(r, kSlotAppWrite, io_timing_.app_write);
  }
}

void DesBatch::on_app_write_done(std::size_t r) {
  io_[r] = IoState::kIdle;
  try_start_io_work(r);
}

// ---------------------------------------------------------------------------
// correlated failures

void DesBatch::maybe_open_prop_window(std::size_t r) {
  if (p_.prob_correlated <= 0.0 || prop_window_active_[r] != 0) return;
  if (!(unit(r, kStreamCorrelated) < p_.prob_correlated)) return;  // = Rng::bernoulli
  ++counters_[r].prop_windows;
  note(r, trace::EventKind::kWindowOpened);
  prop_window_active_[r] = 1;
  schedule(r, kSlotWindowEnd, p_.correlated_window);
  update_extra_failure_process(r);
}

void DesBatch::on_prop_window_end(std::size_t r) {
  note(r, trace::EventKind::kWindowClosed);
  prop_window_active_[r] = 0;
  update_extra_failure_process(r);
}

void DesBatch::on_generic_toggle(std::size_t r) {
  const GenericPhases phases(p_.generic_correlated_coefficient, p_.correlated_window);
  generic_correlated_phase_[r] = generic_correlated_phase_[r] != 0 ? 0 : 1;
  const double mean =
      generic_correlated_phase_[r] != 0 ? phases.correlated_mean : phases.normal_mean;
  schedule(r, kSlotGenericToggle, sim::exponential_from_unit(unit(r, kStreamCorrelated), mean));
  update_extra_failure_process(r);
}

void DesBatch::update_extra_failure_process(std::size_t r) {
  double rate = 0.0;
  if (p_.compute_failures_enabled) {
    if (prop_window_active_[r] != 0) rate += rates_.extra_rate;
    if (p_.generic_correlated_coefficient > 0.0) {
      if (p_.generic_correlated_smooth) {
        rate += p_.generic_correlated_coefficient * rates_.extra_rate;
      } else if (generic_correlated_phase_[r] != 0) {
        rate += rates_.extra_rate;
      }
    }
  }
  reschedule(r, kSlotFailExtra, kStreamFailExtra, rate);
}

}  // namespace ckptsim
