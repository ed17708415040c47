#include "src/platform/interference.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "src/core/replicate.h"
#include "src/core/runner.h"
#include "src/obs/metrics.h"
#include "src/sim/distributions.h"
#include "src/sim/rng.h"
#include "src/stats/confidence.h"

namespace ckptsim::platform {

using trace::EventKind;

InterferenceModel::InterferenceModel(const JobMix& mix, std::uint64_t seed)
    : mix_(mix), pending_(kJobEvents * mix.jobs.size() + 2) {
  mix_.validate();
  const std::size_t k = mix_.jobs.size();
  pfs_ = std::make_unique<PfsServer>(pending_, pfs_key(), key(0, kGrant),
                                     mix_.resolved_bandwidth(), mix_.pfs.policy);
  const sim::RngPool streams(seed);
  jobs_.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    Job job;
    job.p = mix_.jobs[j].params;
    job.index = j;
    job.dump_bytes =
        static_cast<double>(job.p.nodes()) * job.p.checkpoint_size_per_node;
    // Staggered policy: spread first initiations across one interval so the
    // periodic dumps interleave instead of colliding at t = interval.
    if (mix_.pfs.policy == PfsPolicy::kStaggered) {
      job.first_offset =
          job.p.checkpoint_interval * static_cast<double>(j) / static_cast<double>(k);
    }
    if (job.p.trace_driven()) {
      job.trace = FailureTrace::shared(job.p.failure_trace_path);
      job.trace->validate_nodes(job.p.nodes(),
                                "'" + job.p.failure_trace_path + "' (job " + mix_.jobs[j].name +
                                    ")");
    }
    const std::string tag = std::to_string(j);
    job.fail = streams.stream(tag + "/fail");
    job.coord = streams.stream(tag + "/coord");
    job.recover = streams.stream(tag + "/recover");
    jobs_.push_back(std::move(job));
  }
}

void InterferenceModel::set_event_log(trace::EventLog* log) noexcept {
  log_ = log;
  pfs_->set_event_log(log);
}

void InterferenceModel::set_event_counts(trace::EventCounts* counts) noexcept {
  counts_ = counts;
  pfs_->set_event_counts(counts);
}

void InterferenceModel::set_event_budget(std::uint64_t max_events) noexcept {
  pending_.set_fire_budget(max_events);
}

sim::QueueStats InterferenceModel::queue_stats() const noexcept { return pending_.stats(); }

void InterferenceModel::note(EventKind kind, double value) {
  if (log_ != nullptr) log_->record(pending_.now(), kind, value);
  if (counts_ != nullptr) counts_->bump(kind);
}

void InterferenceModel::start() {
  for (Job& job : jobs_) {
    job.useful.set_rate(0.0, 1.0);
    pending_.arm_in(key(job.index, kInit), job.p.checkpoint_interval + job.first_offset);
    schedule_next_failure(job);
  }
  started_ = true;
}

void InterferenceModel::fire(sim::PendingSet::Key k) {
  if (k == pfs_key()) return pfs_->complete();
  if (k == warmup_key()) return capture_warmup();
  Job& job = jobs_[k % jobs_.size()];
  switch (static_cast<JobEvent>(k / jobs_.size())) {
    case kInit: return on_ckpt_init(job);
    case kCoord: return on_coordination_done(job);
    case kFail: return on_failure(job);
    case kRecover: return on_recovery_done(job);
    case kGrant: return on_grant(job);
    case kJobEvents: break;
  }
  throw std::logic_error("InterferenceModel: unknown event key " + std::to_string(k));
}

void InterferenceModel::schedule_next_init(Job& job) {
  pending_.disarm(key(job.index, kInit));
  pending_.arm_in(key(job.index, kInit), job.p.checkpoint_interval);
}

void InterferenceModel::schedule_next_failure(Job& job) {
  pending_.disarm(key(job.index, kFail));
  if (job.trace != nullptr) {
    // Trace replay: the same plug point the exponential process uses, so a
    // recorded log drives this job under every PFS policy identically.
    if (job.trace_next >= job.trace->size()) return;
    const double t = job.trace->events()[job.trace_next++].time;
    const double now = pending_.now();
    pending_.arm_in(key(job.index, kFail), t > now ? t - now : 0.0);
    return;
  }
  const double mean = 1.0 / job.p.system_failure_rate();
  pending_.arm_in(key(job.index, kFail), job.fail.exponential_mean(mean));
}

double InterferenceModel::sample_coordination_time(Job& job) {
  double quiesce = 0.0;
  switch (job.p.coordination) {
    case CoordinationMode::kFixedQuiesce:
      quiesce = job.p.mttq;
      break;
    case CoordinationMode::kSystemExponential:
      quiesce = job.coord.exponential_mean(job.p.mttq);
      break;
    case CoordinationMode::kMaxOfExponentials:
      quiesce = sim::MaxOfExponentials(job.p.num_processors, job.p.mttq).sample(job.coord);
      break;
  }
  return job.p.quiesce_broadcast_latency() + quiesce;
}

void InterferenceModel::on_ckpt_init(Job& job) {
  note(EventKind::kCkptInitiated, static_cast<double>(job.index));
  if (mix_.pfs.policy == PfsPolicy::kBlockingCooperative) {
    // Cooperative checkpointing: keep computing until the PFS is ours.
    job.waiting_grant = true;
    pfs_->request_grant(job.index);
    return;
  }
  begin_coordination(job);
}

void InterferenceModel::on_grant(Job& job) {
  if (!job.waiting_grant) {
    // A failure revoked the reservation between grant and delivery.
    if (pfs_->grant_held_by(job.index)) pfs_->release_grant(job.index);
    return;
  }
  job.waiting_grant = false;
  job.holds_grant = true;
  begin_coordination(job);
}

void InterferenceModel::begin_coordination(Job& job) {
  job.state = JobState::kCoordinating;
  job.useful.set_rate(pending_.now(), 0.0);
  note(EventKind::kQuiesceStarted, static_cast<double>(job.index));
  pending_.disarm(key(job.index, kCoord));
  pending_.arm_in(key(job.index, kCoord), sample_coordination_time(job));
}

void InterferenceModel::on_coordination_done(Job& job) {
  note(EventKind::kCoordinationDone, static_cast<double>(job.index));
  job.state = JobState::kDumping;
  note(EventKind::kDumpStarted, static_cast<double>(job.index));
  job.io_req = pfs_->submit(job.index, job.dump_bytes,
                            [this, j = job.index] { on_dump_done(jobs_[j]); });
}

void InterferenceModel::on_dump_done(Job& job) {
  job.io_req = 0;
  if (job.holds_grant) {
    pfs_->release_grant(job.index);
    job.holds_grant = false;
  }
  ++job.commits;
  // The useful rate has been 0 since the quiesce point, so the integral's
  // current value is exactly the committed rollback target.
  job.work_at_commit = job.useful.value(pending_.now());
  note(EventKind::kCkptCommitted, static_cast<double>(job.index));
  job.state = JobState::kComputing;
  job.useful.set_rate(pending_.now(), 1.0);
  schedule_next_init(job);
}

void InterferenceModel::on_failure(Job& job) {
  ++job.failures;
  note(EventKind::kComputeFailure, static_cast<double>(job.index));
  // Abort whatever the job was doing.
  pending_.disarm(key(job.index, kInit));
  pending_.disarm(key(job.index, kCoord));
  pending_.disarm(key(job.index, kRecover));
  if (job.io_req != 0) {
    pfs_->cancel(job.io_req);
    job.io_req = 0;
  }
  if (job.waiting_grant) {
    job.waiting_grant = false;
    if (!pfs_->cancel_grant(job.index) && pfs_->grant_held_by(job.index)) {
      pfs_->release_grant(job.index);
    }
  }
  if (job.holds_grant) {
    pfs_->release_grant(job.index);
    job.holds_grant = false;
  }
  // Roll back to the last committed checkpoint.
  const double loss = job.useful.value(pending_.now()) - job.work_at_commit;
  if (loss > 0.0) {
    job.useful.impulse(-loss);
    note(EventKind::kRollback, loss);
  }
  job.useful.set_rate(pending_.now(), 0.0);
  // Recovery stage 1: re-read the checkpoint through the contended PFS
  // (recovery bypasses the cooperative reservation — a failed job cannot
  // compute while waiting, so blocking it saves nothing).
  job.state = JobState::kRecovering1;
  note(EventKind::kRecoveryStage1, static_cast<double>(job.index));
  job.io_req = pfs_->submit(job.index, job.dump_bytes,
                            [this, j = job.index] { on_stage1_done(jobs_[j]); });
  schedule_next_failure(job);
}

void InterferenceModel::on_stage1_done(Job& job) {
  job.io_req = 0;
  job.state = JobState::kRecovering2;
  note(EventKind::kRecoveryStage2, static_cast<double>(job.index));
  pending_.disarm(key(job.index, kRecover));
  pending_.arm_in(key(job.index, kRecover), job.recover.exponential_mean(job.p.mttr_compute));
}

void InterferenceModel::on_recovery_done(Job& job) {
  note(EventKind::kRecoveryDone, static_cast<double>(job.index));
  job.state = JobState::kComputing;
  job.useful.set_rate(pending_.now(), 1.0);
  schedule_next_init(job);
}

void InterferenceModel::capture_warmup() {
  const double now = pending_.now();
  pfs_busy_at_warmup_ = pfs_->busy_seconds(now);
  for (Job& job : jobs_) {
    job.useful_at_warmup = job.useful.value(now);
    job.stretch_at_warmup = pfs_->stretch_sum(job.index);
    job.completed_at_warmup = pfs_->completed(job.index);
    job.commits_at_warmup = job.commits;
    job.failures_at_warmup = job.failures;
  }
}

InterferenceReplication InterferenceModel::run(double transient, double horizon) {
  if (started_) throw std::logic_error("InterferenceModel::run: already run");
  if (!(transient >= 0.0) || !(horizon > 0.0)) {
    throw std::invalid_argument("InterferenceModel::run: transient must be >= 0, horizon > 0");
  }
  start();
  pending_.arm(warmup_key(), transient);
  const double t_end = transient + horizon;
  pending_.run_until(t_end, [this](sim::PendingSet::Key k) { fire(k); });

  InterferenceReplication out;
  out.jobs.reserve(jobs_.size());
  for (Job& job : jobs_) {
    InterferenceJobReplication jr;
    jr.useful_fraction = (job.useful.value(t_end) - job.useful_at_warmup) / horizon;
    const std::uint64_t done = pfs_->completed(job.index) - job.completed_at_warmup;
    jr.dump_stretch =
        done > 0 ? (pfs_->stretch_sum(job.index) - job.stretch_at_warmup) /
                       static_cast<double>(done)
                 : 1.0;
    jr.commits = job.commits - job.commits_at_warmup;
    jr.failures = job.failures - job.failures_at_warmup;
    out.jobs.push_back(jr);
  }
  out.pfs_utilization = (pfs_->busy_seconds(t_end) - pfs_busy_at_warmup_) / horizon;
  return out;
}

std::string InterferenceResult::describe() const {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%zu replication(s), mean PFS utilization %.4f\n",
                replications, pfs_utilization.mean());
  std::string out = buf;
  for (const InterferenceJobResult& j : jobs) {
    std::snprintf(buf, sizeof buf,
                  "  %s: useful %.4f +/- %.4f, stretch %.3f, commits %llu, failures %llu\n",
                  j.name.c_str(), j.useful_fraction.mean, j.useful_fraction.half_width,
                  j.stretch_replicates.mean(), static_cast<unsigned long long>(j.commits),
                  static_cast<unsigned long long>(j.failures));
    out += buf;
  }
  return out;
}

namespace {

/// Map the delegated single-application RunResult onto the interference
/// shape: the job's rewards verbatim, interference-only rewards as the
/// uncontended ideal.
InterferenceResult from_single_application(const JobMix& mix, const RunResult& r) {
  InterferenceResult out;
  InterferenceJobResult job;
  job.name = mix.jobs.front().name;
  job.useful_fraction = r.useful_fraction;
  job.fraction_replicates = r.fraction_replicates;
  job.commits = r.totals.ckpt_committed;
  job.failures = r.totals.compute_failures + r.totals.extra_failures;
  for (std::size_t i = 0; i < r.replications; ++i) {
    job.stretch_replicates.add(1.0);
    out.pfs_utilization.add(0.0);
  }
  out.jobs.push_back(std::move(job));
  out.replications = r.replications;
  return out;
}

}  // namespace

InterferenceResult run_interference(const JobMix& mix, const RunSpec& spec) {
  mix.validate();
  spec.validate();
  if (mix.jobs.size() == 1) {
    // One job cannot interfere with itself: route through the existing
    // checkpoint model so a K=1 mix is bit-identical to run_model by
    // construction (same seeds, same rewards).
    return from_single_application(mix, run_model(mix.jobs.front().params, spec,
                                                  EngineKind::kDes));
  }
  spec.reject_per_replication_knobs("run_interference (K > 1 jobs)");
  if (spec.sequential.enabled()) {
    throw std::invalid_argument(
        "run_interference (K > 1 jobs): sequential stopping (--rel-precision) is not "
        "supported");
  }
  InterferenceResult out;
  replicate<InterferenceReplication>(
      spec,
      {.attempt = [&](std::size_t, std::uint64_t seed, obs::ReplicationProbe* probe,
                      const SnapshotSpec*) {
         InterferenceModel model(mix, seed);
         if (probe != nullptr) model.set_event_counts(&probe->events);
         model.set_event_budget(spec.watchdog.max_events);
         InterferenceReplication r = model.run(spec.transient, spec.horizon);
         if (probe != nullptr) probe->queue = model.queue_stats();
         return r;
       },
       .finish = [&](std::size_t, const auto& point) {
         // Aggregate in replication-index order (bit-identical CIs for
         // any spec.exec job count).
         FailureAccounting unused;  // fail-fast: every replication succeeded
         const std::vector<InterferenceReplication> reps = point.successes(&unused);
         out.replications = reps.size();
         out.jobs.resize(mix.jobs.size());
         for (std::size_t j = 0; j < mix.jobs.size(); ++j) out.jobs[j].name = mix.jobs[j].name;
         for (const InterferenceReplication& rep : reps) {
           out.pfs_utilization.add(rep.pfs_utilization);
           for (std::size_t j = 0; j < rep.jobs.size(); ++j) {
             InterferenceJobResult& agg = out.jobs[j];
             agg.fraction_replicates.add(rep.jobs[j].useful_fraction);
             agg.stretch_replicates.add(rep.jobs[j].dump_stretch);
             agg.commits += rep.jobs[j].commits;
             agg.failures += rep.jobs[j].failures;
           }
         }
         for (InterferenceJobResult& agg : out.jobs) {
           agg.useful_fraction =
               stats::mean_confidence(agg.fraction_replicates, spec.confidence_level);
         }
       },
       .progress_label = "run_interference",
       .cancelled = "run_interference: cancelled",
       .failure_context = [](std::size_t) { return std::string("run_interference: "); }});
  return out;
}

}  // namespace ckptsim::platform
