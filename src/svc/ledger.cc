#include "src/svc/ledger.h"

#include <algorithm>
#include <utility>

#include "src/obs/json.h"
#include "src/obs/json_value.h"

namespace ckptsim::svc {

namespace {

constexpr int kLedgerSchema = 1;

struct Entry {
  bool admit = false;
  std::string id;
  std::string request;  ///< raw request line (admit records only)
};

durable::LineStatus parse_entry(const obs::JsonValue& v, Entry* out) {
  using durable::LineStatus;
  if (!v.is_object()) return LineStatus::kBad;
  const obs::JsonValue* schema = v.find("schema");
  if (schema == nullptr) return LineStatus::kBad;
  if (schema->uint() != kLedgerSchema) return LineStatus::kSchemaMismatch;
  const obs::JsonValue* event = v.find("event");
  const obs::JsonValue* id = v.find("id");
  if (event == nullptr || !event->is_string() || id == nullptr || !id->is_string()) {
    return LineStatus::kBad;
  }
  out->id = id->scalar;
  if (event->scalar == "retire") {
    out->admit = false;
    return LineStatus::kOk;
  }
  if (event->scalar != "admit") return LineStatus::kBad;
  const obs::JsonValue* request = v.find("request");
  if (request == nullptr || !request->is_string()) return LineStatus::kBad;
  out->admit = true;
  out->request = request->scalar;
  return LineStatus::kOk;
}

}  // namespace

CampaignLedger::CampaignLedger(std::string path)
    : log_(
          std::move(path), "ledger",
          [this](const obs::JsonValue& line) {
            Entry entry;
            const durable::LineStatus status = parse_entry(line, &entry);
            if (status == durable::LineStatus::kOk) {
              record(entry.admit, entry.id, std::move(entry.request));
            }
            return status;
          },
          [this] { return std::to_string(pending_.size()) + " pending campaign(s)"; }) {}

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

void CampaignLedger::admit(const std::string& id, const std::string& request_line) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", kLedgerSchema);
  w.kv("event", "admit");
  w.kv("id", id);
  w.kv("request", request_line);
  w.end_object();

  const std::lock_guard<std::mutex> lock(mu_);
  log_.append(w.str() + '\n');
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
  log_.append(w.str() + '\n');
  record(false, id, {});
}

std::vector<std::pair<std::string, std::string>> CampaignLedger::pending() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

}  // namespace ckptsim::svc
