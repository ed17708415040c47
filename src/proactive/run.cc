#include "src/proactive/run.h"

#include <chrono>
#include <cstdio>

#include "src/core/fault.h"
#include "src/core/runner.h"
#include "src/core/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/sim/rng.h"
#include "src/stats/sequential.h"

namespace ckptsim::proactive {

std::uint64_t ProactiveResult::failures_checksum() const noexcept {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const std::uint64_t v : failures_per_rep) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string ProactiveResult::describe() const {
  std::string out = run.describe();
  if (!out.empty() && out.back() != '\n') out.push_back('\n');
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "proactive: predictions %llu (false alarms %llu), proactive ckpts %llu, "
                "skipped %llu\n",
                static_cast<unsigned long long>(totals.predictions_true),
                static_cast<unsigned long long>(totals.false_alarms),
                static_cast<unsigned long long>(totals.proactive_ckpts),
                static_cast<unsigned long long>(totals.actions_skipped));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "           migrations %llu (wasted %llu), absorbed failures %llu, "
                "rescales %llu, repairs %llu\n",
                static_cast<unsigned long long>(totals.migrations),
                static_cast<unsigned long long>(totals.migrations_wasted),
                static_cast<unsigned long long>(totals.failures_absorbed),
                static_cast<unsigned long long>(totals.rescales),
                static_cast<unsigned long long>(totals.repairs));
  out += buf;
  return out;
}

ProactiveResult run_proactive(const Parameters& params, const RunSpec& spec) {
  params.validate();
  spec.validate();
  spec.reject_per_replication_knobs("run_proactive");
  std::size_t jobs = spec.exec.resolve();
  if (spec.metrics != nullptr) jobs = std::min(jobs, spec.metrics->workers());
  const std::size_t planned =
      spec.sequential.enabled() ? spec.sequential.max_replications : spec.replications;
  if (spec.progress != nullptr) spec.progress->begin("run_proactive", planned);
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<ProactiveReplication> reps;
  const auto run_range = [&](std::size_t begin, std::size_t end) {
    reps.resize(end);
    parallel_for_workers(jobs, end - begin, [&](std::size_t worker, std::size_t i) {
      const std::size_t r = begin + i;
      if (spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed)) return;
      const obs::WorkerTimer timer(spec.metrics, worker);
      ProactiveModel model(params, sim::replication_seed(spec.seed, r));
      obs::ReplicationProbe probe;
      if (spec.metrics != nullptr) model.set_event_counts(&probe.events);
      model.set_event_budget(spec.watchdog.max_events);
      reps[r] = model.run_replication(spec.transient, spec.horizon);
      if (spec.metrics != nullptr) {
        probe.queue = model.queue_stats();
        spec.metrics->shard(worker).absorb(probe);
      }
      if (spec.progress != nullptr) spec.progress->tick();
    });
    if (spec.cancel != nullptr && spec.cancel->load(std::memory_order_relaxed)) {
      throw SimError(ErrorCode::kInterrupted, "run_proactive: cancelled");
    }
  };

  std::vector<std::uint32_t> rounds;
  if (spec.sequential.enabled()) {
    // Deterministic rounds: the stopper is a pure function of (spec,
    // scheduled, aggregate), so the round boundaries — and therefore the
    // results — are identical for any thread count.
    const stats::SequentialStopper stopper(spec.sequential);
    stats::Summary agg;
    std::size_t done = 0;
    std::size_t scheduled = stopper.initial_round();
    for (;;) {
      run_range(done, scheduled);
      for (std::size_t r = done; r < scheduled; ++r) agg.add(reps[r].rep.useful_fraction);
      rounds.push_back(static_cast<std::uint32_t>(scheduled - done));
      done = scheduled;
      const stats::SequentialDecision d =
          stopper.decide(scheduled, agg, spec.confidence_level);
      if (d.stop) break;
      scheduled += d.next_batch;
    }
  } else {
    run_range(0, spec.replications);
  }

  if (spec.metrics != nullptr) {
    spec.metrics->add_wall_seconds(std::chrono::duration_cast<std::chrono::duration<double>>(
                                       std::chrono::steady_clock::now() - t0)
                                       .count());
  }
  if (spec.progress != nullptr) spec.progress->finish();

  // Aggregate in replication-index order through the same reducer as
  // run_model, so policy-none output is bit-identical by construction.
  ProactiveResult out;
  std::vector<ReplicationResult> base;
  base.reserve(reps.size());
  out.failures_per_rep.reserve(reps.size());
  for (const ProactiveReplication& pr : reps) {
    base.push_back(pr.rep);
    out.totals += pr.pro;
    out.failures_per_rep.push_back(pr.rep.counters.compute_failures +
                                   pr.rep.counters.extra_failures);
  }
  out.run = aggregate_replications(base, spec.confidence_level, params);
  out.run.rounds = std::move(rounds);
  return out;
}

}  // namespace ckptsim::proactive
