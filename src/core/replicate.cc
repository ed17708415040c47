#include "src/core/replicate.h"

#include <cmath>

#include "src/san/executor.h"
#include "src/sim/pending_set.h"
#include "src/snapshot/file.h"
#include "src/snapshot/state_io.h"

namespace ckptsim {

namespace {

/// Map a snapshot-layer fault onto the driver ErrorCode taxonomy at the
/// layer boundary.
ErrorCode snapshot_error_code(snapshot::SnapshotFault fault) noexcept {
  switch (fault) {
    case snapshot::SnapshotFault::kIo:
      return ErrorCode::kIoError;
    case snapshot::SnapshotFault::kVersionMismatch:
    case snapshot::SnapshotFault::kKindMismatch:
    case snapshot::SnapshotFault::kContextMismatch:
      return ErrorCode::kSnapshotMismatch;
    case snapshot::SnapshotFault::kTruncated:
    case snapshot::SnapshotFault::kCorrupt:
      return ErrorCode::kSnapshotCorrupt;
  }
  return ErrorCode::kSnapshotCorrupt;
}

}  // namespace

std::string nonfinite_reason(const ReplicationResult& r) {
  if (std::isfinite(r.useful_fraction) && std::isfinite(r.gross_execution_fraction) &&
      std::isfinite(r.observed_span) && std::isfinite(r.breakdown.total())) {
    return {};
  }
  return "useful_fraction = " + std::to_string(r.useful_fraction);
}

std::string describe_failure(const ReplicationFailure& f) {
  return "replication " + std::to_string(f.replication) + " failed after " +
         std::to_string(f.attempts) + " attempt(s): " + f.message;
}

namespace detail {

void classify_failure(ErrorCode* code, std::string* message) {
  try {
    throw;
  } catch (const sim::EventBudgetExceeded& ex) {
    *code = ErrorCode::kEventBudgetExceeded;
    *message = ex.what();
  } catch (const san::LivelockError& ex) {
    *code = ErrorCode::kLivelock;
    *message = ex.what();
  } catch (const snapshot::SnapshotError& ex) {
    *code = snapshot_error_code(ex.fault());
    *message = ex.what();
  } catch (const SimError& ex) {
    *code = ex.code();
    *message = ex.what();
  } catch (const std::exception& ex) {
    *code = ErrorCode::kModelError;
    *message = ex.what();
  }
}

void discard_snapshot(const SnapshotSpec* snapshot) {
  if (snapshot != nullptr && snapshot->enabled()) snapshot::remove_snapshot_file(snapshot->path);
}

}  // namespace detail

}  // namespace ckptsim
