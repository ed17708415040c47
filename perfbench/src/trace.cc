#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>

namespace {

// Per-thread so that counting never contends between the sweep's workers.
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t thread_allocations() noexcept { return t_allocations; }

std::uint64_t peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t request) {
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back();
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{name, now_ns(), 0, id, parent, request});
  stack_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    const std::string name = s.name;
    self[name.substr(0, name.find('.'))] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[s.id]) * 1e-9;
  }
  return self;
}

void Tracer::write_jsonl(const std::string& path, std::size_t cap) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::size_t n = std::min(cap, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

std::string json_numbers(const std::map<std::string, double>& values) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  bool first = true;
  for (const auto& [k, v] : values) {
    out << (first ? "" : ",") << "\"" << k << "\":" << (std::isfinite(v) ? v : 0.0);
    first = false;
  }
  out << "}";
  return out.str();
}

}  // namespace perfbench
