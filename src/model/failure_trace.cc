#include "src/model/failure_trace.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>

#include "src/obs/json_value.h"
#include "src/sim/rng.h"

namespace ckptsim {

namespace {

[[noreturn]] void fail_line(std::size_t line_no, const std::string& msg) {
  throw std::invalid_argument("failure trace: line " + std::to_string(line_no) + ": " + msg);
}

/// Split `text` into lines, rejecting a torn tail: a non-empty final line
/// without its terminating newline is the signature of a truncated write,
/// and silently replaying a cut trace would misreport availability.
std::vector<std::string_view> split_lines_strict(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      throw std::invalid_argument(
          "failure trace: torn final line (missing terminating newline — truncated write?)");
    }
    std::string_view line = text.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    lines.push_back(line);
    start = nl + 1;
  }
  return lines;
}

void check_event(std::vector<TraceEvent>& events, TraceEvent ev, std::size_t line_no) {
  if (!std::isfinite(ev.time)) fail_line(line_no, "non-finite time");
  if (ev.time < 0.0) fail_line(line_no, "negative time");
  if (!events.empty() && ev.time < events.back().time) {
    fail_line(line_no, "timestamps out of order (trace must be sorted by time)");
  }
  events.push_back(ev);
}

}  // namespace

FailureTrace FailureTrace::parse_csv(std::string_view text) {
  FailureTrace trace;
  trace.content_hash_ = sim::fnv1a64(text);
  std::size_t line_no = 0;
  for (std::string_view line : split_lines_strict(text)) {
    ++line_no;
    if (line.empty()) continue;
    if (line_no == 1 && line == "node,time") continue;  // optional header
    const std::string s(line);
    const char* p = s.c_str();
    char* end = nullptr;
    errno = 0;
    const unsigned long long node = std::strtoull(p, &end, 10);
    if (end == p || errno == ERANGE) fail_line(line_no, "expected `node,time`");
    if (*end != ',') fail_line(line_no, "expected `node,time`");
    p = end + 1;
    const double time = std::strtod(p, &end);
    if (end == p || *end != '\0') fail_line(line_no, "expected `node,time`");
    check_event(trace.events_, TraceEvent{node, time}, line_no);
  }
  return trace;
}

FailureTrace FailureTrace::parse_jsonl(std::string_view text) {
  FailureTrace trace;
  trace.content_hash_ = sim::fnv1a64(text);
  std::size_t line_no = 0;
  for (std::string_view line : split_lines_strict(text)) {
    ++line_no;
    if (line.empty()) continue;
    obs::JsonValue v;
    if (!obs::parse_json(line, &v) || !v.is_object()) {
      fail_line(line_no, "expected a {\"node\":N,\"time\":T} object");
    }
    const obs::JsonValue* node = v.find("node");
    const obs::JsonValue* time = v.find("time");
    if (node == nullptr || !node->is_number() || time == nullptr || !time->is_number()) {
      fail_line(line_no, "expected numeric `node` and `time` members");
    }
    // Strict like the service protocol: a typo'd key is an error, not noise.
    for (const auto& [key, value] : v.members) {
      (void)value;
      if (key != "node" && key != "time") fail_line(line_no, "unknown key '" + key + "'");
    }
    check_event(trace.events_, TraceEvent{node->uint(), time->number()}, line_no);
  }
  return trace;
}

FailureTrace FailureTrace::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::invalid_argument("failure trace '" + path + "': open failed: " +
                                std::strerror(errno));
  }
  std::string text;
  char buf[65536];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw std::invalid_argument("failure trace '" + path + "': read failed");
  }
  try {
    const bool jsonl =
        path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
    return jsonl ? parse_jsonl(text) : parse_csv(text);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument('\'' + path + "': " + e.what());
  }
}

std::shared_ptr<const FailureTrace> FailureTrace::shared(const std::string& path) {
  static std::mutex mu;
  static std::map<std::string, std::weak_ptr<const FailureTrace>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[path];
  if (auto held = slot.lock()) return held;
  auto fresh = std::make_shared<const FailureTrace>(load(path));
  slot = fresh;
  return fresh;
}

void FailureTrace::validate_nodes(std::uint64_t nodes, const std::string& what) const {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].node >= nodes) {
      throw std::invalid_argument("failure trace " + what + ": event " + std::to_string(i) +
                                  " names node " + std::to_string(events_[i].node) +
                                  " but the topology has only " + std::to_string(nodes) +
                                  " nodes");
    }
  }
}

}  // namespace ckptsim
