#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/durable_file.h"

namespace ckptsim::svc {

/// Crash-safe record of admitted-but-unfinished campaigns, kept beside the
/// result cache.
///
/// One JSON object per line in a durable::AppendLog, fsync'd after every
/// append, as the sweep journal is: a SIGKILL loses at most the in-flight
/// line, which the next open drops as a torn tail.  Two record kinds:
///
///   {"schema":1,"event":"admit","id":"c1","request":"<raw request line>"}
///   {"schema":1,"event":"retire","id":"c1"}
///
/// `admit` is appended the moment a campaign, sweep or op, passes admission
/// control, before any replication runs, and carries the request line
/// verbatim; `retire` is appended when the campaign ends any way but a
/// drain ("done", an "error", or a client-requested "cancelled"), so a
/// drained campaign stays pending.  A daemon that dies — SIGKILL included —
/// therefore leaves every unfinished campaign's full request on disk, and a
/// restart replays the pending lines through the normal request path:
/// completed points come back from the result cache, interrupted
/// replications resume from their event-granular snapshots.
///
/// Shutdown deliberately writes nothing: campaigns cancelled because the
/// daemon is stopping stay pending so the next start re-admits them.
///
/// Thread-safe; appends serialize on an internal mutex.
class CampaignLedger {
 public:
  /// Opens (or creates) `path` and replays it.  Throws SimError as the
  /// sweep journal does: kIoError on unopenable files, kJournalCorrupt on
  /// an unparseable interior line, kJournalMismatch on a schema bump.
  explicit CampaignLedger(std::string path);

  CampaignLedger(const CampaignLedger&) = delete;
  CampaignLedger& operator=(const CampaignLedger&) = delete;

  /// Record one admitted campaign (fsync'd before returning).
  void admit(const std::string& id, const std::string& request_line);

  /// Record one completed/cancelled campaign (fsync'd before returning).
  void retire(const std::string& id);

  /// (id, raw request line) of each campaign admitted but never retired,
  /// in admission order — what a restarted daemon should re-admit.
  /// Reflects the state loaded at construction plus any admit/retire since.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> pending() const;

  [[nodiscard]] const std::string& path() const noexcept { return log_.path(); }

 private:
  /// Apply one admit (admit = true) or retire record to the pending set.
  void record(bool admit, const std::string& id, std::string request);

  mutable std::mutex mu_;  ///< held across each append, so file and pending_ agree
  // Insertion-ordered pending set: (id, raw request line).
  std::vector<std::pair<std::string, std::string>> pending_;
  durable::AppendLog log_;  ///< after pending_: opening it loads them
};

}  // namespace ckptsim::svc
