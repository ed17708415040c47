#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ckptsim {

/// Structured error taxonomy for the execution drivers.  Every failure a
/// replication can suffer maps to one code, so multi-hour sweeps can
/// classify, retry, or skip failures instead of dying on the first
/// exception torn out of WorkerPool::Lane::wait.
enum class ErrorCode {
  kInvalidParameter,      ///< Parameters / spec validation rejected the input
  kNonFiniteReward,       ///< a replication produced NaN/Inf rewards
  kLivelock,              ///< SAN instantaneous-activity livelock guard fired
  kEventBudgetExceeded,   ///< watchdog: per-replication event budget blown
  kRetriesExhausted,      ///< retry policy ran out of attempts
  kInterrupted,           ///< cooperative cancellation (e.g. SIGINT)
  kJournalCorrupt,        ///< sweep journal failed to parse
  kJournalMismatch,       ///< journal entry from different params/spec/engine
  kIoError,               ///< filesystem write/fsync/rename failure
  kInjectedFault,         ///< test fault-injection hook threw
  kSnapshotCorrupt,       ///< snapshot failed validation (truncated/corrupt)
  kSnapshotMismatch,      ///< snapshot from a different version/kind/run
  kModelError,            ///< any other exception from model code
};

[[nodiscard]] const char* to_string(ErrorCode code) noexcept;

/// Inverse of to_string (the journal stores codes by name).  Returns false
/// when `name` matches no code.
[[nodiscard]] bool error_code_from_string(const std::string& name, ErrorCode* out) noexcept;

/// True when the error is a deterministic function of (parameters, seed):
/// retrying with the same seed would reproduce it, so the retry policy
/// derives a fresh attempt seed.  Transient errors (injected faults,
/// environment hiccups) retry with the canonical replication seed so a
/// successful retry leaves results bit-identical to a clean run.
[[nodiscard]] bool error_is_deterministic(ErrorCode code) noexcept;

/// Exception carrying the taxonomy code plus human-readable context.
class SimError : public std::runtime_error {
 public:
  SimError(ErrorCode code, const std::string& context)
      : std::runtime_error(std::string(to_string(code)) + ": " + context), code_(code) {}

  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// What to do when a replication fails.
struct FailurePolicy {
  enum class Mode {
    kFailFast,  ///< rethrow the first failure (by replication index)
    kRetry,     ///< retry up to max_retries times, then fail
    kSkip,      ///< drop the replication, record it in failure accounting
  };
  Mode mode = Mode::kFailFast;
  /// Extra attempts after the first (kRetry only).
  std::size_t max_retries = 2;
};

/// Per-replication progress guard: converts runaway replications
/// (pathological parameters, livelocked models) into structured failures
/// instead of hung worker threads.
struct WatchdogSpec {
  /// Maximum events fired per replication attempt; 0 = unlimited.
  std::uint64_t max_events = 0;
};

/// One failed (or recovered) replication.
struct ReplicationFailure {
  std::size_t replication = 0;  ///< replication index within its point
  std::size_t attempts = 0;     ///< attempts consumed (>= 1)
  ErrorCode code = ErrorCode::kModelError;
  std::string message;          ///< what() of the last failure
};

/// Failure accounting of one multi-replication run.  Empty for clean runs,
/// so attaching it to RunResult/StudyResult never perturbs existing output.
struct FailureAccounting {
  /// Replications permanently dropped under FailurePolicy::kSkip.
  std::vector<ReplicationFailure> skipped;
  /// Replications that succeeded only after >= 1 retry (kRetry).
  std::vector<ReplicationFailure> recovered;

  [[nodiscard]] bool clean() const noexcept { return skipped.empty() && recovered.empty(); }

  /// One-line summary, e.g. "2 skipped, 1 recovered"; empty when clean.
  [[nodiscard]] std::string describe() const;
};

}  // namespace ckptsim
