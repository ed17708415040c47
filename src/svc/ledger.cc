#include "src/svc/ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

#include "src/core/fault.h"
#include "src/obs/json.h"
#include "src/obs/json_value.h"

namespace ckptsim::svc {

namespace {

constexpr int kLedgerSchema = 1;

enum class EntryStatus { kOk, kBad, kSchemaMismatch };

struct Entry {
  bool admit = false;
  std::string id;
  std::string request;  ///< raw request line (admit records only)
};

EntryStatus parse_entry(const obs::JsonValue& v, Entry* out) {
  if (!v.is_object()) return EntryStatus::kBad;
  const obs::JsonValue* schema = v.find("schema");
  if (schema == nullptr) return EntryStatus::kBad;
  if (schema->uint() != kLedgerSchema) return EntryStatus::kSchemaMismatch;
  const obs::JsonValue* event = v.find("event");
  const obs::JsonValue* id = v.find("id");
  if (event == nullptr || !event->is_string() || id == nullptr || !id->is_string()) {
    return EntryStatus::kBad;
  }
  out->id = id->scalar;
  if (event->scalar == "retire") {
    out->admit = false;
    return EntryStatus::kOk;
  }
  if (event->scalar != "admit") return EntryStatus::kBad;
  const obs::JsonValue* request = v.find("request");
  if (request == nullptr || !request->is_string()) return EntryStatus::kBad;
  out->admit = true;
  out->request = request->scalar;
  return EntryStatus::kOk;
}

}  // namespace

CampaignLedger::CampaignLedger(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_CREAT | O_RDWR | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw SimError(ErrorCode::kIoError,
                   "ledger '" + path_ + "': open failed: " + std::strerror(errno));
  }
  std::string content;
  char buf[65536];
  ssize_t got = 0;
  while ((got = ::read(fd_, buf, sizeof buf)) > 0) content.append(buf, static_cast<size_t>(got));
  if (got < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw SimError(ErrorCode::kIoError,
                   "ledger '" + path_ + "': read failed: " + std::strerror(err));
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
    obs::JsonValue v;
    Entry entry;
    EntryStatus status = EntryStatus::kBad;
    if (obs::parse_json(line, &v)) status = parse_entry(v, &entry);
    if (status != EntryStatus::kOk) {
      if (status == EntryStatus::kSchemaMismatch) {
        const int err_fd = fd_;
        fd_ = -1;
        ::close(err_fd);
        throw SimError(ErrorCode::kJournalMismatch,
                       "ledger '" + path_ + "': entry at line " + std::to_string(line_no) +
                           " has an unsupported schema version");
      }
      // Same torn-tail rule as the sweep journal: an unparseable final line
      // is a crash artifact and is truncated away; an interior one is real
      // corruption and stays fatal.
      const bool is_tail = content.find_first_not_of('\n', line_start) == std::string::npos;
      if (is_tail) {
        std::fprintf(stderr,
                     "ckptsim: ledger '%s': dropping corrupt trailing entry at line %zu "
                     "(crash artifact); %zu pending campaign(s) kept\n",
                     path_.c_str(), line_no, pending_.size());
        if (::ftruncate(fd_, static_cast<off_t>(line_offset)) != 0) {
          const int err = errno;
          ::close(fd_);
          fd_ = -1;
          throw SimError(ErrorCode::kIoError,
                         "ledger '" + path_ + "': truncate failed: " + std::strerror(err));
        }
        break;
      }
      const int err_fd = fd_;
      fd_ = -1;
      ::close(err_fd);
      throw SimError(ErrorCode::kJournalCorrupt, "ledger '" + path_ +
                                                     "': unparseable entry at line " +
                                                     std::to_string(line_no));
    }
    if (torn && ::write(fd_, "\n", 1) != 1) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw SimError(ErrorCode::kIoError,
                     "ledger '" + path_ + "': repair failed: " + std::strerror(err));
    }
    record(entry.admit, entry.id, std::move(entry.request));
  }
}

void CampaignLedger::record(bool admit, const std::string& id, std::string request) {
  // An admit re-arms the id (a restart may re-admit an already pending
  // campaign — last request line wins), a retire clears it.
  const auto it = std::find_if(pending_.begin(), pending_.end(),
                               [&id](const auto& entry) { return entry.first == id; });
  if (!admit) {
    if (it != pending_.end()) pending_.erase(it);
  } else if (it == pending_.end()) {
    pending_.emplace_back(id, std::move(request));
  } else {
    it->second = std::move(request);
  }
}

CampaignLedger::~CampaignLedger() {
  if (fd_ >= 0) ::close(fd_);
}

void CampaignLedger::append_line(std::string line) {
  line += '\n';
  std::size_t written = 0;
  while (written < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SimError(ErrorCode::kIoError,
                     "ledger '" + path_ + "': write failed: " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    throw SimError(ErrorCode::kIoError,
                   "ledger '" + path_ + "': fsync failed: " + std::strerror(errno));
  }
}

void CampaignLedger::admit(const std::string& id, const std::string& request_line) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", kLedgerSchema);
  w.kv("event", "admit");
  w.kv("id", id);
  w.kv("request", request_line);
  w.end_object();

  const std::lock_guard<std::mutex> lock(mu_);
  append_line(w.str());
  record(true, id, request_line);
}

void CampaignLedger::retire(const std::string& id) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", kLedgerSchema);
  w.kv("event", "retire");
  w.kv("id", id);
  w.end_object();

  const std::lock_guard<std::mutex> lock(mu_);
  append_line(w.str());
  record(false, id, {});
}

std::vector<std::pair<std::string, std::string>> CampaignLedger::pending() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

}  // namespace ckptsim::svc
