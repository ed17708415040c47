#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <string_view>

namespace ckptsim::obs {
struct JsonValue;
}

namespace ckptsim::durable {

// The three ways ckptsim keeps a file through a crash.  As with the model's
// checkpoints, new content counts only once it commits, and what committed
// before stays valid until then.

/// The whole of `path`, read into one buffer sized from the file.  Throws
/// std::runtime_error naming the file and the failed step.
[[nodiscard]] std::string read_file(const std::string& path);

/// A whole-file replacement of `path`.  The temp file `path + ".tmp"` is
/// opened at construction, so a bad directory fails before any work.
/// commit() fsyncs it, renames it over `path` and fsyncs the directory: a
/// crash at any instant leaves the old file or the complete new one under
/// `path`, never a torn one.  A failed step, and the destructor of a
/// replacement never committed, remove the temp file.  Every step throws
/// std::runtime_error naming the file and the step.
class Replacement {
 public:
  explicit Replacement(std::string path);
  ~Replacement();

  Replacement(const Replacement&) = delete;
  Replacement& operator=(const Replacement&) = delete;

  void write(std::string_view bytes);
  void commit();

 private:
  [[noreturn]] void fail(const char* step, const std::string& file, int err);
  void discard() noexcept;

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  bool pending_ = false;  ///< the temp file exists and is not yet renamed
};

/// Replaces `path` with `content` (a Replacement written and committed).
void replace_file(const std::string& path, std::string_view content);

/// What an AppendLog's owner made of one complete line.
enum class LineStatus { kOk, kBad, kSchemaMismatch };

/// An append-only log of JSON lines, one record a line, each batch of
/// lines written with one write and one fsync: a SIGKILL loses at most the
/// batch in flight.  Opening applies the torn-tail rule:
///   - an unparseable last line (newline-terminated or not) is a crash
///     artifact: it is dropped with a warning and truncated away, so later
///     appends never run onto it;
///   - a complete last line that lacks only its newline is re-terminated;
///   - an unparseable interior line is SimError(kJournalCorrupt);
///   - a schema mismatch on any line is SimError(kJournalMismatch).
/// I/O failures are SimError(kIoError).  Messages start with `kind` and
/// the path ("journal 'sweep.jsonl': ...").
class AppendLog {
 public:
  /// Reads one complete line's parsed JSON into its owner's state.  It
  /// returns kOk only after taking the record, and takes nothing otherwise.
  using Apply = std::function<LineStatus(const obs::JsonValue&)>;
  /// What the owner holds so far, for the torn-tail warning
  /// ("2 completed point(s)").
  using Kept = std::function<std::string()>;

  /// Opens `path` (creating it if missing) and hands each complete line's
  /// JSON to `apply`, in file order.
  AppendLog(std::string path, std::string kind, const Apply& apply, const Kept& kept);
  ~AppendLog();

  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Append whole lines (each newline-terminated) and fsync, under the
  /// log's own lock.
  void append(std::string_view lines);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  void load(const Apply& apply, const Kept& kept);
  [[nodiscard]] std::string where() const;
  [[noreturn]] void io_failure(const char* step, int err) const;

  std::string path_;
  std::string kind_;
  int fd_ = -1;
  std::mutex mu_;  ///< one append (write + fsync) at a time
};

}  // namespace ckptsim::durable
