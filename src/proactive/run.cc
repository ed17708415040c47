#include "src/proactive/run.h"

#include <cstdio>

#include "src/core/replicate.h"
#include "src/core/runner.h"
#include "src/obs/metrics.h"

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
  ProactiveResult out;
  replicate<ProactiveReplication>(
      spec,
      {.attempt = [&](std::size_t, std::uint64_t seed, obs::ReplicationProbe* probe,
                      const SnapshotSpec*) {
         ProactiveModel model(params, seed);
         if (probe != nullptr) model.set_event_counts(&probe->events);
         model.set_event_budget(spec.watchdog.max_events);
         ProactiveReplication r = model.run_replication(spec.transient, spec.horizon);
         if (probe != nullptr) probe->queue = model.queue_stats();
         return r;
       },
       .reward = [](const ProactiveReplication& r) { return r.rep.useful_fraction; },
       .finish = [&](std::size_t, const auto& point) {
         // Aggregate in replication-index order through the same reducer
         // as run_model, so policy-none output is bit-identical by
         // construction.
         FailureAccounting unused;  // fail-fast: every replication succeeded
         std::vector<ReplicationResult> base;
         for (const ProactiveReplication& pr : point.successes(&unused)) {
           base.push_back(pr.rep);
           out.totals += pr.pro;
           out.failures_per_rep.push_back(pr.rep.counters.compute_failures +
                                          pr.rep.counters.extra_failures);
         }
         out.run = aggregate_replications(base, spec.confidence_level, params);
         out.run.rounds = point.rounds();
       },
       .progress_label = "run_proactive",
       .cancelled = "run_proactive: cancelled",
       .failure_context = [](std::size_t) { return std::string("run_proactive: "); }});
  return out;
}

}  // namespace ckptsim::proactive
