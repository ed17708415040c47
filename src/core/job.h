#pragma once

#include <cstdint>

#include "src/model/parameters.h"
#include "src/stats/confidence.h"
#include "src/stats/summary.h"

namespace ckptsim {

/// A batch job expressed in useful work: `work_hours` hours of
/// never-rolled-back computation by the whole machine (the aggregated
/// unit; multiply by processors for processor-hours).
struct JobSpec {
  double work_hours = 168.0;       ///< one week of useful computation
  double deadline_hours = 1e6;     ///< give up beyond this makespan
  std::size_t replications = 5;
  std::uint64_t seed = 42;
  double confidence_level = 0.95;

  /// Throws std::invalid_argument naming the first violated constraint
  /// (called once at run_job entry, mirroring RunSpec).
  void validate() const;
};

/// Completion-time results across replications.
struct JobResult {
  stats::Summary makespans;                 ///< hours, completed reps only
  stats::ConfidenceInterval makespan_ci;    ///< CI over completed reps
  std::size_t completed = 0;                ///< reps finishing before deadline
  std::size_t replications = 0;

  /// Average of work / makespan over completed replications — converges to
  /// the steady-state useful-work fraction for long jobs (the link between
  /// the paper's reward metric and the completion-time view of [17]).
  [[nodiscard]] double mean_efficiency(double work_hours) const;
  /// Slowdown versus a failure-free, checkpoint-free machine.
  [[nodiscard]] double mean_slowdown(double work_hours) const;
};

/// Simulate the job to completion under `params` (fresh system each
/// replication, no warm-up: jobs start on an empty, just-checkpointed
/// machine).  Uses the fast DES engine, which has no predictor: proactive
/// parameters throw std::invalid_argument, as in run_model.
[[nodiscard]] JobResult run_job(const Parameters& params, const JobSpec& spec);

}  // namespace ckptsim
