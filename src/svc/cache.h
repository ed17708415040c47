#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/journal.h"
#include "src/core/results.h"

namespace ckptsim::svc {

/// Content-addressed result store of the campaign server.
///
/// Keys are `core::journal_fingerprint` values — a hash of everything that
/// affects a point's result (label, every Parameters field, the
/// result-affecting RunSpec knobs, the engine, and the swept x) — so two
/// requests collide exactly when they would simulate identical work, and a
/// hit returns the bit-identical `RunResult` the cold run produced.
///
/// With a path, entries persist through the same fsync'd JSONL journal the
/// sweep drivers use (`SweepJournal`): each insert is one appended,
/// fsync'd line, a crash loses at most the in-flight entry, and a restarted
/// daemon reloads every completed point.  The file is interchangeable with
/// a CLI `--journal` — a sweep journaled on the command line is a warm
/// cache for the service and vice versa.  With an empty path the cache is
/// memory-only (tests, benches).
///
/// Thread-safe: any number of connection and worker threads may look up and
/// insert concurrently.
class ResultCache {
 public:
  /// Opens (or creates) the backing journal; empty path = memory-only.
  /// Throws SimError as SweepJournal does on unopenable/corrupt files.
  explicit ResultCache(const std::string& path);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Entries restored from a pre-existing journal.
  [[nodiscard]] std::size_t loaded() const noexcept { return loaded_; }

  /// Fetch a completed point; false on a miss.  Bumps the hit/miss tally.
  [[nodiscard]] bool lookup(std::uint64_t fingerprint, RunResult* out);

  /// Store one completed point (fsync'd when persistent).  Idempotent: a
  /// fingerprint already present is left untouched, so two campaigns racing
  /// on the same cold point never double-append.
  void insert(std::uint64_t fingerprint, double x, const RunResult& result);

  /// Store several completed points, with one fsync when persistent (a
  /// group commit); otherwise as insert().
  void insert_all(const std::vector<SweepJournal::Entry>& entries);

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool persistent() const noexcept { return journal_ != nullptr; }

 private:
  std::unique_ptr<SweepJournal> journal_;  ///< null in memory-only mode
  std::mutex insert_mu_;  ///< serializes persistent inserts (held across the fsync)
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, RunResult> mem_;  ///< memory-only store
  std::size_t loaded_ = 0;
  std::size_t inserted_ = 0;  ///< distinct fingerprints inserted; guarded by mu_
  std::uint64_t hits_ = 0;    ///< guarded by mu_
  std::uint64_t misses_ = 0;  ///< guarded by mu_
};

}  // namespace ckptsim::svc
