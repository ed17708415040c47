#include "src/core/runner.h"

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "src/core/journal.h"
#include "src/model/des_model.h"
#include "src/model/san_model.h"
#include "src/obs/metrics.h"
#include "src/snapshot/file.h"
#include "src/snapshot/state_io.h"

namespace ckptsim {

namespace {

/// One DES replication.  Under an enabled `snap` it is crash-resumable:
/// resume from an existing snapshot (whole-file validation first, then
/// context check, then state restore — any failure rejects the file
/// outright), install the periodic capture hook, run, and retire the
/// snapshot on completion.
ReplicationResult run_des(const Parameters& params, std::uint64_t seed, double transient,
                          double horizon, obs::ReplicationProbe* probe, std::uint64_t max_events,
                          const SnapshotSpec* snapshot) {
  DesModel model(params, seed);
  model.set_event_budget(max_events);
  if (probe != nullptr) model.set_event_counts(&probe->events);
  if (snapshot == nullptr || !snapshot->enabled()) {
    const ReplicationResult r = model.run(transient, horizon);
    if (probe != nullptr) probe->queue = model.queue_stats();
    return r;
  }
  const SnapshotSpec& snap = *snapshot;
  bool resumed = false;
  if (snapshot::snapshot_exists(snap.path)) {
    const std::string payload = snapshot::read_snapshot_file(snap.path, snapshot::kKindDesModel);
    snapshot::StateReader r(payload);
    if (r.str() != snap.context) {
      throw snapshot::SnapshotError(snapshot::SnapshotFault::kContextMismatch,
                                    "snapshot '" + snap.path + "' belongs to a different run");
    }
    model.restore_state(r);
    r.expect_end();
    resumed = true;
  }
  model.set_fire_hook(snap.every, [&model, &snap] {
    snapshot::StateWriter w;
    w.str(snap.context);
    model.save_state(w);
    snapshot::write_snapshot_file(snap.path, snapshot::kKindDesModel, w.take());
    if (snap.stop != nullptr && snap.stop->load(std::memory_order_relaxed)) {
      throw SimError(ErrorCode::kInterrupted,
                     "replication drained at snapshot boundary ('" + snap.path + "')");
    }
  });
  const ReplicationResult r =
      resumed ? model.continue_run(transient, horizon) : model.run(transient, horizon);
  if (probe != nullptr) probe->queue = model.queue_stats();
  snapshot::remove_snapshot_file(snap.path);
  return r;
}
}  // namespace

std::string snapshot_run_context(const Parameters& params, std::uint64_t master_seed,
                                 double transient, double horizon, EngineKind engine,
                                 std::size_t rep) {
  std::string s = parameters_field_string(params);
  char buf[160];
  std::snprintf(buf, sizeof buf, "seed=%llu;transient=%.17g;horizon=%.17g;engine=%u;rep=%zu;",
                static_cast<unsigned long long>(master_seed), transient, horizon,
                static_cast<unsigned>(engine), rep);
  s += buf;
  return s;
}

RunResult aggregate_replications(const std::vector<ReplicationResult>& reps,
                                 double confidence_level, const Parameters& params) {
  RunResult result;
  if (reps.empty()) return result;  // all replications skipped: zeroed result
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (!nonfinite_reason(reps[i]).empty()) {
      throw SimError(ErrorCode::kNonFiniteReward,
                     "aggregate_replications: replication " + std::to_string(i) +
                         " reported a non-finite reward (useful_fraction = " +
                         std::to_string(reps[i].useful_fraction) + ")");
    }
  }
  result.replications = reps.size();
  for (const auto& r : reps) {
    result.fraction_replicates.add(r.useful_fraction);
    result.gross_replicates.add(r.gross_execution_fraction);
    result.mean_breakdown += r.breakdown;
    result.totals += r.counters;
  }
  result.mean_breakdown = result.mean_breakdown / static_cast<double>(reps.size());
  result.useful_fraction = stats::mean_confidence(result.fraction_replicates, confidence_level);
  result.total_useful_work =
      result.useful_fraction.mean * static_cast<double>(params.num_processors);
  return result;
}

ReplicationResult run_replication(const Parameters& params, EngineKind engine, std::uint64_t seed,
                                  double transient, double horizon, obs::ReplicationProbe* probe,
                                  std::uint64_t max_events, sim::SchedulerKind,
                                  const SnapshotSpec* snapshot) {
  switch (engine) {
    case EngineKind::kDes:
      return run_des(params, seed, transient, horizon, probe, max_events, snapshot);
    case EngineKind::kSan: {
      SanCheckpointModel model(params);
      return model.run_replication(seed, transient, horizon, probe, max_events, snapshot);
    }
  }
  throw std::logic_error("run_replication: unknown engine");
}

void validate_reactive_point(const Parameters& params, const std::string& driver) {
  params.validate();
  if (params.proactive_enabled()) {
    throw std::invalid_argument(driver +
                                ": proactive fault tolerance runs under proactive::run_proactive "
                                "(CLI: a plain run with proactive flags runs it)");
  }
}

SnapshotSpec replication_snapshot(const Parameters& params, const RunSpec& spec,
                                  EngineKind engine, std::size_t rep, std::uint64_t every,
                                  const std::string& path_prefix) {
  SnapshotSpec snap;
  if (every == 0) return snap;
  snap.every = every;
  snap.path = path_prefix + "rep-" + std::to_string(rep) + ".snap";
  snap.context =
      snapshot_run_context(params, spec.seed, spec.transient, spec.horizon, engine, rep);
  return snap;
}

RunResult aggregate_point(const PointRounds<ReplicationResult>& point, double confidence_level,
                          const Parameters& params) {
  FailureAccounting accounting;
  const std::vector<ReplicationResult> successes = point.successes(&accounting);
  RunResult result = aggregate_replications(successes, confidence_level, params);
  result.failures = std::move(accounting);
  result.rounds = point.rounds();
  return result;
}

RunResult run_model(const Parameters& params, const RunSpec& spec, EngineKind engine) {
  validate_reactive_point(params, "run_model");
  spec.validate();
  RunResult result;
  replicate<ReplicationResult>(
      spec,
      {.attempt = [&](std::size_t, std::uint64_t seed, obs::ReplicationProbe* probe,
                      const SnapshotSpec* snapshot) {
         return run_replication(params, engine, seed, spec.transient, spec.horizon, probe,
                                spec.watchdog.max_events, {}, snapshot);
       },
       .reward = [](const ReplicationResult& r) { return r.useful_fraction; },
       .finish = [&](std::size_t, const PointRounds<ReplicationResult>& point) {
         result = aggregate_point(point, spec.confidence_level, params);
       },
       .snapshot = [&](std::size_t, std::size_t rep) {
         return replication_snapshot(params, spec, engine, rep, spec.snapshot_every_events,
                                     spec.snapshot_dir + "/");
       },
       .progress_label = "run_model",
       .cancelled = "run_model: cancelled"});
  return result;
}

double total_useful_work(const Parameters& params, const RunSpec& spec, EngineKind engine) {
  return run_model(params, spec, engine).total_useful_work;
}

}  // namespace ckptsim
