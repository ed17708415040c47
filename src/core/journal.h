#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/durable_file.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/model/parameters.h"

namespace ckptsim {

/// Identity of one sweep point for journal lookup: an FNV-1a hash of a
/// canonical serialization of the series label, every Parameters field
/// (plus a failure trace's content hash, not only its path), the
/// result-affecting RunSpec knobs (transient/horizon/replications/
/// seed/confidence/failure policy/watchdog — not exec or observers), the
/// engine, and the swept x.  Any change to what would be simulated changes
/// the fingerprint, so resuming against a stale journal recomputes instead
/// of splicing in wrong results.
[[nodiscard]] std::uint64_t journal_fingerprint(const std::string& label, const Parameters& params,
                                                const RunSpec& spec, EngineKind engine, double x);

/// Canonical `name=value;` serialization of every Parameters field in
/// declaration order (doubles as %.17g) — the parameters section of
/// journal_fingerprint, shared with the snapshot layer, whose run-context
/// string embeds it so a snapshot taken under different parameters is
/// rejected instead of silently resumed.
[[nodiscard]] std::string parameters_field_string(const Parameters& params);

/// Append-only, crash-safe journal of completed sweep points.
///
/// One JSON object per line (schema-versioned) in a durable::AppendLog,
/// fsync'd after every append: a SIGKILL can lose at most the in-flight
/// line, which the next open drops as a torn tail.  Doubles are stored as
/// %.17g so a resumed sweep's CSV is byte-identical to an uninterrupted
/// run's.
///
/// Usage: construct with a path (loads whatever a previous run completed),
/// pass to sweep() — it skips journaled points and appends each point as
/// its last replication finishes.  Sharing one journal across the several
/// series of a figure is fine; fingerprints keep the entries apart.
class SweepJournal {
 public:
  /// Opens `path` for append (creating it if missing) and loads every
  /// complete entry.  Throws SimError(kIoError) when the file cannot be
  /// opened, kJournalCorrupt on an unparseable non-final line, and
  /// kJournalMismatch on a schema-version mismatch.
  explicit SweepJournal(std::string path);

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Completed points loaded from a pre-existing file.
  [[nodiscard]] std::size_t loaded() const noexcept { return loaded_; }

  /// Fetch a completed point's result; false when `fingerprint` is absent.
  [[nodiscard]] bool lookup(std::uint64_t fingerprint, RunResult* out) const;

  /// Append one completed point and fsync.  Thread-safe; also makes the
  /// entry visible to subsequent lookup() calls.
  void record(std::uint64_t fingerprint, double x, const RunResult& result);

  /// One completed point of record_all().
  struct Entry {
    std::uint64_t fingerprint = 0;
    double x = 0.0;
    RunResult result;
  };

  /// Append several completed points with one write and one fsync (a group
  /// commit); otherwise as record().  After a crash mid-append the loader
  /// keeps the batch's complete lines and drops a torn last one.
  void record_all(const std::vector<Entry>& entries);

  [[nodiscard]] const std::string& path() const noexcept { return log_.path(); }

 private:
  mutable std::mutex mu_;  ///< guards entries_; the log's own lock covers the fsync
  std::map<std::uint64_t, RunResult> entries_;
  durable::AppendLog log_;  ///< after entries_: opening it loads them
  std::size_t loaded_ = 0;
};

}  // namespace ckptsim
