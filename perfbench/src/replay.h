#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/results.h"
#include "src/model/parameters.h"
#include "src/report/cli.h"
#include "trace.h"

namespace perfbench {

/// What a single-threaded replay of replications measured.
struct ReplayStats {
  double seconds = 0.0;  ///< replications + aggregation, wall
  std::vector<double> replication_ms;
  std::uint64_t events = 0;     ///< events the engine fired
  std::uint64_t scheduled = 0;  ///< event-queue schedule() calls
  std::uint64_t cancelled = 0;  ///< cancel() calls that hit a pending event
  std::uint64_t allocations = 0;
  std::uint64_t queue_peak = 0;
  double aggregate_seconds = 0.0;
  std::uint64_t aggregates = 0;

  /// The model.*, sim.* and core.aggregate_us per-layer metrics.
  [[nodiscard]] std::map<std::string, double> metrics() const;
};

/// Run every replication of one point on this thread, exactly as the
/// drivers seed them, then aggregate in replication order.  Each call into
/// the library gets a span on `tracer` (may be null).
[[nodiscard]] ckptsim::RunResult replay_point(const ckptsim::Parameters& params,
                                              const ckptsim::RunSpec& spec, std::uint64_t request,
                                              Tracer* tracer, ReplayStats* stats);

/// Write spans.jsonl and layers.json (per-layer self time plus `metrics`)
/// into `dir`.
void write_trace(const Tracer& tracer, const std::string& dir,
                 const std::map<std::string, double>& metrics);

/// `replay`: recompute the expected response lines of service requests
/// through the library (see replay.cc).
int cmd_replay(const ckptsim::report::Cli& cli);

}  // namespace perfbench
