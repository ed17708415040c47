#include "src/core/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "src/core/fault.h"
#include "src/core/result_json.h"
#include "src/model/failure_trace.h"
#include "src/model/parameter_table.h"
#include "src/obs/json.h"
#include "src/obs/json_value.h"
#include "src/sim/rng.h"

namespace ckptsim {

namespace {

constexpr int kJournalSchema = 1;

/// One journal entry as a newline-terminated JSON line.
std::string journal_line(std::uint64_t fingerprint, double x, const RunResult& result) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", kJournalSchema);
  // Hex string: JSON numbers are doubles and cannot carry 64 hash bits.
  char fp_hex[17];
  std::snprintf(fp_hex, sizeof fp_hex, "%016llx", static_cast<unsigned long long>(fingerprint));
  w.kv("fp", fp_hex);
  w.kv("x", x);
  w.key("result");
  write_run_result(w, result);
  w.end_object();
  std::string line = w.str();
  line += '\n';
  return line;
}

enum class EntryStatus { kOk, kBad, kSchemaMismatch };

EntryStatus parse_entry(const obs::JsonValue& entry, std::uint64_t* fp, RunResult* result) {
  if (!entry.is_object()) return EntryStatus::kBad;
  const obs::JsonValue* schema = entry.find("schema");
  if (schema == nullptr) return EntryStatus::kBad;
  if (schema->uint() != kJournalSchema) return EntryStatus::kSchemaMismatch;
  const obs::JsonValue* fp_hex = entry.find("fp");
  const obs::JsonValue* result_v = entry.find("result");
  if (fp_hex == nullptr || !fp_hex->is_string() || result_v == nullptr) {
    return EntryStatus::kBad;
  }
  char* end = nullptr;
  *fp = std::strtoull(fp_hex->scalar.c_str(), &end, 16);
  if (end == nullptr || *end != '\0' || fp_hex->scalar.empty()) return EntryStatus::kBad;
  if (!read_run_result(*result_v, result)) return EntryStatus::kBad;
  return EntryStatus::kOk;
}

std::string format_double(double d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

void append_field(std::string& s, std::string_view name, double v) {
  s += name;
  s += '=';
  s += format_double(v);
  s += ';';
}

void append_field(std::string& s, std::string_view name, std::uint64_t v) {
  s += name;
  s += '=';
  s += std::to_string(v);
  s += ';';
}

}  // namespace

std::string parameters_field_string(const Parameters& p) {
  std::string s;
  s.reserve(1024);
  // Every row of the parameter table, in declaration order, so any model
  // change invalidates stale journal entries (and stale snapshots, which
  // embed this string in their run context).  Proactive and trace fields
  // appear only when active: a reactive Parameters keeps its pre-extension
  // fingerprint, so journals and snapshots written before the extensions
  // existed stay resumable.
  for (const ParameterField& field : parameter_fields()) {
    if ((field.group == FieldGroup::kProactive && !p.proactive_enabled()) ||
        (field.group == FieldGroup::kTrace && !p.trace_driven())) {
      continue;
    }
    s += field.name;
    s += '=';
    append_field_value(s, field, p);
    s += ';';
  }
  return s;
}

std::uint64_t journal_fingerprint(const std::string& label, const Parameters& p,
                                  const RunSpec& spec, EngineKind engine, double x) {
  std::string s;
  s.reserve(1024);
  s += "label=";
  s += label;
  s += ';';
  s += parameters_field_string(p);
  // The trace's contents, not just its path (parameters_field_string): a
  // trace rewritten in place must not resume or hit stale entries.
  if (p.trace_driven()) {
    append_field(s, "failure_trace_hash",
                 FailureTrace::shared(p.failure_trace_path)->content_hash());
  }
  // Result-affecting RunSpec knobs (exec/metrics/progress never change
  // results and are deliberately excluded).
  append_field(s, "transient", spec.transient);
  append_field(s, "horizon", spec.horizon);
  append_field(s, "replications", static_cast<std::uint64_t>(spec.replications));
  append_field(s, "seed", spec.seed);
  append_field(s, "confidence_level", spec.confidence_level);
  append_field(s, "failure_mode", static_cast<std::uint64_t>(spec.on_failure.mode));
  append_field(s, "max_retries", static_cast<std::uint64_t>(spec.on_failure.max_retries));
  append_field(s, "watchdog_max_events", spec.watchdog.max_events);
  // Sequential-stopping knobs, appended only when the controller is
  // enabled: a fixed-replication spec keeps its pre-adaptive fingerprint,
  // so journals written before this feature existed stay resumable.
  if (spec.sequential.enabled()) {
    append_field(s, "seq_rel_precision", spec.sequential.rel_precision);
    append_field(s, "seq_min_replications",
                 static_cast<std::uint64_t>(spec.sequential.min_replications));
    append_field(s, "seq_max_replications",
                 static_cast<std::uint64_t>(spec.sequential.max_replications));
    append_field(s, "seq_growth", spec.sequential.growth);
  }
  append_field(s, "engine", static_cast<std::uint64_t>(engine));
  append_field(s, "x", x);
  return sim::fnv1a64(s);
}

SweepJournal::SweepJournal(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_CREAT | O_RDWR | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw SimError(ErrorCode::kIoError,
                   "journal '" + path_ + "': open failed: " + std::strerror(errno));
  }
  // Load whatever a previous run completed.
  std::string content;
  char buf[65536];
  ssize_t got = 0;
  while ((got = ::read(fd_, buf, sizeof buf)) > 0) content.append(buf, static_cast<size_t>(got));
  if (got < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw SimError(ErrorCode::kIoError,
                   "journal '" + path_ + "': read failed: " + std::strerror(err));
  }
  std::size_t line_start = 0;
  std::size_t line_no = 0;
  while (line_start < content.size()) {
    const std::size_t nl = content.find('\n', line_start);
    const bool torn = nl == std::string::npos;  // SIGKILL mid-append
    const std::string_view line(content.data() + line_start,
                                (torn ? content.size() : nl) - line_start);
    const std::size_t line_offset = line_start;
    line_start = torn ? content.size() : nl + 1;
    ++line_no;
    if (line.empty()) continue;
    obs::JsonValue entry;
    RunResult result;
    std::uint64_t fp = 0;
    EntryStatus status = EntryStatus::kBad;
    if (obs::parse_json(line, &entry)) status = parse_entry(entry, &fp, &result);
    if (status != EntryStatus::kOk) {
      // A schema mismatch anywhere is a different-version journal the user
      // should look at, never something to silently discard.  Truncation
      // cannot manufacture one (a cut schema-1 line fails to parse long
      // before its version number reads differently), so this stays fatal
      // even on the final line.
      if (status == EntryStatus::kSchemaMismatch) {
        const int err_fd = fd_;
        fd_ = -1;
        ::close(err_fd);
        throw SimError(ErrorCode::kJournalMismatch,
                       "journal '" + path_ + "': entry at line " + std::to_string(line_no) +
                           " has an unsupported schema version");
      }
      // An unparseable *final* line is the signature of a crash mid-append
      // (truncated record, with or without the trailing newline making it
      // in): drop the fragment with a warning and truncate it away so
      // subsequent appends never concatenate onto the garbage — every
      // fully-journaled point before it stays resumable.  An unparseable
      // interior line is real corruption and stays fatal.
      const bool is_tail = content.find_first_not_of('\n', line_start) == std::string::npos;
      if (is_tail) {
        std::fprintf(stderr,
                     "ckptsim: journal '%s': dropping corrupt trailing entry at line %zu "
                     "(crash artifact); %zu completed point(s) kept\n",
                     path_.c_str(), line_no, entries_.size());
        if (::ftruncate(fd_, static_cast<off_t>(line_offset)) != 0) {
          const int err = errno;
          ::close(fd_);
          fd_ = -1;
          throw SimError(ErrorCode::kIoError, "journal '" + path_ + "': truncate failed: " +
                                                  std::strerror(err));
        }
        break;
      }
      const int err_fd = fd_;
      fd_ = -1;
      ::close(err_fd);
      throw SimError(ErrorCode::kJournalCorrupt,
                     "journal '" + path_ + "': unparseable entry at line " +
                         std::to_string(line_no));
    }
    // A crash can cut an append exactly at the newline: the record is
    // complete but unterminated.  Terminate it now (O_APPEND lands the byte
    // at end-of-file) so the next record() starts a fresh line instead of
    // concatenating onto this one.
    if (torn && ::write(fd_, "\n", 1) != 1) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw SimError(ErrorCode::kIoError,
                     "journal '" + path_ + "': repair failed: " + std::strerror(err));
    }
    entries_[fp] = std::move(result);
  }
  loaded_ = entries_.size();
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) ::close(fd_);
}

bool SweepJournal::lookup(std::uint64_t fingerprint, RunResult* out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

void SweepJournal::record(std::uint64_t fingerprint, double x, const RunResult& result) {
  append(journal_line(fingerprint, x, result));
  const std::lock_guard<std::mutex> lock(mu_);
  entries_[fingerprint] = result;
}

void SweepJournal::record_all(const std::vector<Entry>& entries) {
  if (entries.empty()) return;
  std::string lines;
  for (const Entry& e : entries) lines += journal_line(e.fingerprint, e.x, e.result);
  append(lines);
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries) entries_[e.fingerprint] = e.result;
}

void SweepJournal::append(const std::string& lines) {
  // append_mu_, not mu_: lookups keep answering from entries_ while the
  // fsync waits on the disk.
  const std::lock_guard<std::mutex> lock(append_mu_);
  std::size_t written = 0;
  while (written < lines.size()) {
    const ssize_t n = ::write(fd_, lines.data() + written, lines.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SimError(ErrorCode::kIoError,
                     "journal '" + path_ + "': write failed: " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    throw SimError(ErrorCode::kIoError,
                   "journal '" + path_ + "': fsync failed: " + std::strerror(errno));
  }
}

}  // namespace ckptsim
