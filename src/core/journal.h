#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
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

/// The store of completed points: every sweep journal, the CLI's
/// `--journal`, the figure benches' and the optimizer's, and the daemon's
/// result cache.
///
/// One JSON object per line (schema-versioned) in a durable::AppendLog,
/// fsync'd after every append: a SIGKILL can lose at most the in-flight
/// line, which the next open drops as a torn tail.  Doubles are stored as
/// %.17g so a resumed sweep's CSV is byte-identical to an uninterrupted
/// run's, and a cache hit's result is the cold run's bit for bit.  With an
/// empty path the journal is memory-only (tests, benches).
///
/// Usage: construct with a path (loads whatever a previous run completed),
/// pass to sweep() — it skips journaled points and inserts each point as
/// its last replication finishes.  Sharing one journal across the several
/// series of a figure, or across a daemon's campaigns, is fine;
/// fingerprints keep the entries apart.
///
/// Thread-safe: any number of threads may look up and insert concurrently.
class SweepJournal {
 public:
  /// Opens `path` for append (creating it if missing) and loads every
  /// complete entry; an empty path opens no file.  Throws
  /// SimError(kIoError) when the file cannot be opened, kJournalCorrupt on
  /// an unparseable non-final line, and kJournalMismatch on a
  /// schema-version mismatch.
  explicit SweepJournal(std::string path);

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Completed points loaded from a pre-existing file.
  [[nodiscard]] std::size_t loaded() const noexcept { return loaded_; }
  /// Completed points held, loaded and inserted.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool persistent() const noexcept { return log_.has_value(); }

  /// Fetch a completed point's result; false when `fingerprint` is absent.
  /// Never waits for an insert's fsync.
  [[nodiscard]] bool lookup(std::uint64_t fingerprint, RunResult* out) const;

  /// Store one completed point, as insert_all().
  void insert(std::uint64_t fingerprint, double x, const RunResult& result);

  /// One completed point of insert_all().
  struct Entry {
    std::uint64_t fingerprint = 0;
    double x = 0.0;
    RunResult result;
  };

  /// Store the entries whose fingerprints the journal does not hold yet,
  /// each once, with one write and one fsync when persistent (a group
  /// commit), and make them visible to lookup().  After a crash
  /// mid-append the loader keeps the batch's complete lines and drops a
  /// torn last one.
  void insert_all(const std::vector<Entry>& entries);

 private:
  mutable std::mutex mu_;  ///< guards entries_; held across no fsync
  std::map<std::uint64_t, RunResult> entries_;
  /// Serializes inserts, from the check for a held fingerprint through the
  /// append's fsync.
  std::mutex insert_mu_;
  std::optional<durable::AppendLog> log_;  ///< empty when memory-only
  std::size_t loaded_ = 0;
};

}  // namespace ckptsim
