#include "src/core/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/core/fault.h"
#include "src/obs/json_value.h"

namespace ckptsim::durable {

namespace {

/// Appends the rest of `fd` to `*out`, reserving the file's size first so
/// the bytes land in one buffer.  Returns 0, or the failing read's errno.
int read_rest(int fd, std::string* out) {
  struct stat st{};
  if (::fstat(fd, &st) == 0) out->reserve(static_cast<std::size_t>(st.st_size));
  char buf[65536];
  ssize_t got = 0;
  while ((got = ::read(fd, buf, sizeof buf)) > 0) out->append(buf, static_cast<std::size_t>(got));
  return got < 0 ? errno : 0;
}

/// Writes all of `bytes` to `fd`.  Returns 0, or the failing write's errno.
int write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return 0;
}

[[noreturn]] void throw_io(const char* step, const std::string& file, int err) {
  throw std::runtime_error("'" + file + "': " + step + " failed: " + std::strerror(err));
}

/// Fsyncs the directory holding `path`, so an entry just renamed into it
/// survives a crash.  Best effort: some filesystems refuse to open a
/// directory read-only.
void fsync_parent_dir(const std::string& path) noexcept {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_io("open", path, errno);
  std::string bytes;
  const int err = read_rest(fd, &bytes);
  ::close(fd);
  if (err != 0) throw_io("read", path, err);
  return bytes;
}

Replacement::Replacement(std::string path) : path_(std::move(path)), tmp_(path_ + ".tmp") {
  fd_ = ::open(tmp_.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_io("open", tmp_, errno);
  pending_ = true;
}

Replacement::~Replacement() { discard(); }

void Replacement::write(std::string_view bytes) {
  if (const int err = write_all(fd_, bytes); err != 0) fail("write", tmp_, err);
}

void Replacement::commit() {
  if (::fsync(fd_) != 0) fail("fsync", tmp_, errno);
  if (::close(std::exchange(fd_, -1)) != 0) fail("close", tmp_, errno);
  if (::rename(tmp_.c_str(), path_.c_str()) != 0) fail("rename", path_, errno);
  pending_ = false;
  fsync_parent_dir(path_);
}

void Replacement::fail(const char* step, const std::string& file, int err) {
  discard();
  throw_io(step, file, err);
}

void Replacement::discard() noexcept {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
  if (std::exchange(pending_, false)) ::unlink(tmp_.c_str());
}

void replace_file(const std::string& path, std::string_view content) {
  Replacement file(path);
  file.write(content);
  file.commit();
}

AppendLog::AppendLog(std::string path, std::string kind, const Apply& apply, const Kept& kept)
    : path_(std::move(path)), kind_(std::move(kind)) {
  fd_ = ::open(path_.c_str(), O_CREAT | O_RDWR | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) io_failure("open", errno);
  try {
    load(apply, kept);
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

AppendLog::~AppendLog() { ::close(fd_); }

void AppendLog::load(const Apply& apply, const Kept& kept) {
  std::string content;
  if (const int err = read_rest(fd_, &content); err != 0) io_failure("read", err);
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
    obs::JsonValue value;
    const LineStatus status = obs::parse_json(line, &value) ? apply(value) : LineStatus::kBad;
    // A schema mismatch anywhere is a log of another version the user
    // should look at, never something to discard.  Truncation cannot make
    // one (a cut schema-1 line fails to parse long before its version
    // reads differently), so it is fatal on the last line too.
    if (status == LineStatus::kSchemaMismatch) {
      throw SimError(ErrorCode::kJournalMismatch, where() + ": entry at line " +
                                                      std::to_string(line_no) +
                                                      " has an unsupported schema version");
    }
    if (status == LineStatus::kBad) {
      // An unparseable interior line is real corruption.  An unparseable
      // last line (its newline may have made it to disk before the kill)
      // is a crash artifact: truncate it away so later appends start a
      // fresh line, keeping every record before it.
      if (content.find_first_not_of('\n', line_start) != std::string::npos) {
        throw SimError(ErrorCode::kJournalCorrupt,
                       where() + ": unparseable entry at line " + std::to_string(line_no));
      }
      std::fprintf(stderr,
                   "ckptsim: %s: dropping corrupt trailing entry at line %zu (crash artifact); "
                   "%s kept\n",
                   where().c_str(), line_no, kept().c_str());
      if (::ftruncate(fd_, static_cast<off_t>(line_offset)) != 0) io_failure("truncate", errno);
      return;
    }
    // A crash can cut an append exactly at the newline: the record is
    // complete but unterminated.  Terminate it (O_APPEND lands the byte at
    // the end) so the next append starts a fresh line.
    if (torn && ::write(fd_, "\n", 1) != 1) io_failure("repair", errno);
  }
}

void AppendLog::append(std::string_view lines) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (const int err = write_all(fd_, lines); err != 0) io_failure("write", err);
  if (::fsync(fd_) != 0) io_failure("fsync", errno);
}

std::string AppendLog::where() const { return kind_ + " '" + path_ + "'"; }

void AppendLog::io_failure(const char* step, int err) const {
  throw SimError(ErrorCode::kIoError, where() + ": " + step + " failed: " + std::strerror(err));
}

}  // namespace ckptsim::durable
