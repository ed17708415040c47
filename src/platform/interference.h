#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/results.h"
#include "src/model/failure_trace.h"
#include "src/model/parameters.h"
#include "src/platform/job_mix.h"
#include "src/platform/pfs.h"
#include "src/sim/engine.h"
#include "src/stats/confidence.h"
#include "src/stats/summary.h"
#include "src/trace/event_log.h"

namespace ckptsim::platform {

/// Per-job output of one interference replication.
struct InterferenceJobReplication {
  double useful_fraction = 0.0;  ///< net useful work / observed span
  double dump_stretch = 1.0;     ///< mean checkpoint-transfer stretch (>= 1)
  std::uint64_t commits = 0;     ///< checkpoints committed in the window
  std::uint64_t failures = 0;    ///< compute failures in the window
};

/// Output of one interference replication: per-job rewards plus the
/// platform-level PFS utilization.
struct InterferenceReplication {
  std::vector<InterferenceJobReplication> jobs;
  double pfs_utilization = 0.0;  ///< busy fraction of the observation span
};

/// K-job interference model on one DES engine: each job runs the
/// compute -> coordinate -> dump -> commit checkpoint cycle of the paper's
/// aggregated model, with every checkpoint dump and recovery stage-1 read
/// issued as a byte-counted transfer against the one shared PfsServer.
///
/// Per-job stochastic processes draw from named engine substreams
/// ("<j>/fail", "<j>/coord", "<j>/recover"), so for a fixed seed the
/// failure trajectory of every job is identical under every PFS policy —
/// the common-random-numbers contract that makes policies comparable
/// pairwise.  The PfsServer draws nothing.
///
/// Scope: independent exponential compute failures per job (the mix
/// validator rejects Weibull); I/O-node and master failures, correlated
/// bursts, and the BSP application I/O cycle are single-application
/// concerns handled by DesModel — a K=1 mix is routed to that exact model
/// by run_interference, bit-identically.
class InterferenceModel {
 public:
  /// `mix` is validated on construction; `seed` drives every stream of
  /// this replication (derive via sim::replication_seed).
  InterferenceModel(const JobMix& mix, std::uint64_t seed);
  InterferenceModel(const InterferenceModel&) = delete;
  InterferenceModel& operator=(const InterferenceModel&) = delete;

  /// Run one replication: warm up for `transient` seconds, observe
  /// `horizon`, report windowed per-job rewards.
  InterferenceReplication run(double transient, double horizon);

  /// Attach trace sinks before run() (not owned; nullptr = off).  The
  /// model and its PfsServer note protocol and queued-vs-active I/O events.
  void set_event_log(trace::EventLog* log) noexcept;
  void set_event_counts(trace::EventCounts* counts) noexcept;

  /// Watchdog: cap the replication at `max_events` fired events (0 =
  /// unlimited); the run throws sim::EventBudgetExceeded past the cap.
  void set_event_budget(std::uint64_t max_events) noexcept;

  [[nodiscard]] sim::QueueStats queue_stats() const noexcept;
  [[nodiscard]] const PfsServer& pfs() const noexcept { return *pfs_; }

 private:
  enum class JobState : std::uint8_t {
    kComputing,    ///< useful work accruing (includes waiting for a grant)
    kCoordinating, ///< quiesce in progress
    kDumping,      ///< checkpoint transfer queued/active at the PFS
    kRecovering1,  ///< recovery stage 1: PFS checkpoint read
    kRecovering2,  ///< recovery stage 2: reinitialise (exponential)
  };

  struct Job {
    Parameters p;
    std::size_t index = 0;
    double dump_bytes = 0.0;     ///< nodes * checkpoint_size_per_node
    double first_offset = 0.0;   ///< staggered initiation offset
    JobState state = JobState::kComputing;
    // Placeholder seeds; the constructor overwrites each from the engine's
    // named substreams ("<j>/fail" etc.) before any draw.
    sim::Rng fail{0}, coord{0}, recover{0};
    sim::EventHandle ev_init, ev_coord, ev_fail, ev_recover;
    PfsServer::RequestId io_req = 0;  ///< 0 = no transfer in flight
    // Trace-driven failure replay (null = exponential process).
    std::shared_ptr<const FailureTrace> trace;
    std::uint64_t trace_next = 0;
    bool waiting_grant = false;
    bool holds_grant = false;
    sim::RateIntegral useful;
    double work_at_commit = 0.0;
    std::uint64_t commits = 0;
    std::uint64_t failures = 0;
    // warm-up baselines
    double useful_at_warmup = 0.0;
    double stretch_at_warmup = 0.0;
    std::uint64_t completed_at_warmup = 0;
    std::uint64_t commits_at_warmup = 0;
    std::uint64_t failures_at_warmup = 0;
  };

  void start();
  void on_ckpt_init(Job& job);
  void begin_coordination(Job& job);
  void on_coordination_done(Job& job);
  void on_dump_done(Job& job);
  void on_failure(Job& job);
  void on_stage1_done(Job& job);
  void on_recovery_done(Job& job);
  void schedule_next_init(Job& job);
  void schedule_next_failure(Job& job);
  [[nodiscard]] double sample_coordination_time(Job& job);
  void note(trace::EventKind kind, double value);

  JobMix mix_;
  sim::Engine engine_;
  std::unique_ptr<PfsServer> pfs_;
  std::vector<Job> jobs_;
  double pfs_busy_at_warmup_ = 0.0;
  trace::EventLog* log_ = nullptr;
  trace::EventCounts* counts_ = nullptr;
  bool started_ = false;
};

/// Aggregated per-job rewards over the replications of a run.
struct InterferenceJobResult {
  std::string name;
  stats::ConfidenceInterval useful_fraction;  ///< CI over replicate fractions
  stats::Summary fraction_replicates;
  stats::Summary stretch_replicates;  ///< mean dump stretch per replication
  std::uint64_t commits = 0;          ///< summed over replications
  std::uint64_t failures = 0;
};

/// Aggregated output of a multi-replication interference run.
struct InterferenceResult {
  std::vector<InterferenceJobResult> jobs;
  stats::Summary pfs_utilization;  ///< PFS busy fraction per replication
  std::size_t replications = 0;

  [[nodiscard]] std::string describe() const;
};

/// Simulate `mix` under `spec` and aggregate replications per job, in
/// replication-index order (bit-identical for any spec.exec job count).
/// Replication r seeds from sim::replication_seed(spec.seed, r) — the same
/// CRN contract as run_model, and policy never enters seed derivation, so
/// two policies over the same mix/spec are replication-paired.
///
/// A K=1 mix delegates every replication to the existing single-
/// application checkpoint model via run_model (same seeds, same rewards,
/// bit-identical — including failure-policy, snapshot and sequential
/// handling); its interference-only rewards read as the uncontended ideal
/// (stretch 1, PFS utilization 0).  For K > 1 the interference engine runs
/// on ckptsim::replicate, honouring spec.exec / watchdog / cancel /
/// metrics, fail-fast with fixed replications: a failed
/// replication throws SimError naming it, and spec.on_failure retry/skip,
/// snapshot_every_events, fault_injection and sequential stopping throw
/// std::invalid_argument.
[[nodiscard]] InterferenceResult run_interference(const JobMix& mix, const RunSpec& spec);

}  // namespace ckptsim::platform
