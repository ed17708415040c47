#include "src/core/journal.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

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

durable::LineStatus parse_entry(const obs::JsonValue& entry, std::uint64_t* fp,
                                RunResult* result) {
  using durable::LineStatus;
  if (!entry.is_object()) return LineStatus::kBad;
  const obs::JsonValue* schema = entry.find("schema");
  if (schema == nullptr) return LineStatus::kBad;
  if (schema->uint() != kJournalSchema) return LineStatus::kSchemaMismatch;
  const obs::JsonValue* fp_hex = entry.find("fp");
  const obs::JsonValue* result_v = entry.find("result");
  if (fp_hex == nullptr || !fp_hex->is_string() || result_v == nullptr) {
    return LineStatus::kBad;
  }
  char* end = nullptr;
  *fp = std::strtoull(fp_hex->scalar.c_str(), &end, 16);
  if (end == nullptr || *end != '\0' || fp_hex->scalar.empty()) return LineStatus::kBad;
  if (!read_run_result(*result_v, result)) return LineStatus::kBad;
  return LineStatus::kOk;
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

SweepJournal::SweepJournal(std::string path) {
  if (path.empty()) return;
  log_.emplace(
      std::move(path), "journal",
      [this](const obs::JsonValue& line) {
        std::uint64_t fp = 0;
        RunResult result;
        const durable::LineStatus status = parse_entry(line, &fp, &result);
        if (status == durable::LineStatus::kOk) entries_[fp] = std::move(result);
        return status;
      },
      [this] { return std::to_string(entries_.size()) + " completed point(s)"; });
  loaded_ = entries_.size();
}

std::size_t SweepJournal::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

bool SweepJournal::lookup(std::uint64_t fingerprint, RunResult* out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

void SweepJournal::insert(std::uint64_t fingerprint, double x, const RunResult& result) {
  insert_all({Entry{fingerprint, x, result}});
}

void SweepJournal::insert_all(const std::vector<Entry>& entries) {
  // Check and append under one lock: two campaigns racing on one cold
  // point both finish it, but only the first insert lands.  The same
  // fingerprint means the same simulated work, so the second result is
  // bit-identical and dropping it loses nothing.  Only inserts take
  // insert_mu_, so entries_ cannot change between the check and the
  // store, and mu_ is free while the append waits on the disk.
  const std::lock_guard<std::mutex> insert_lock(insert_mu_);
  std::vector<const Entry*> fresh;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries) {
      const bool batched = std::any_of(fresh.begin(), fresh.end(), [&e](const Entry* f) {
        return f->fingerprint == e.fingerprint;
      });
      if (!batched && !entries_.contains(e.fingerprint)) fresh.push_back(&e);
    }
  }
  if (fresh.empty()) return;
  if (log_) {
    std::string lines;
    for (const Entry* e : fresh) lines += journal_line(e->fingerprint, e->x, e->result);
    log_->append(lines);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Entry* e : fresh) entries_.emplace(e->fingerprint, e->result);
}

}  // namespace ckptsim
