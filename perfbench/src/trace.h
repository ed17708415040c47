#pragma once

// Span recorder, allocation counter and small shared helpers of the
// benchmark driver.  Spans are recorded by the benchmark around its calls
// into the library's public functions; nothing inside the library is
// instrumented.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Heap allocations made by the calling thread so far (counted by the
/// driver's replacement operator new).
[[nodiscard]] std::uint64_t thread_allocations() noexcept;

/// Peak resident set of this process in kB (VmHWM), 0 if unavailable.
[[nodiscard]] std::uint64_t peak_rss_kb();

/// One timed call.  `name` is "<layer>.<function>", the layer being the
/// src/ module the called function belongs to; `parent` is the id of the
/// enclosing span (0 = none); `request` groups the spans of one request or
/// figure series.
struct Span {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
};

/// Single-threaded span store; begin()/end() nest through an explicit
/// stack.
class Tracer {
 public:
  std::uint32_t begin(const char* name, std::uint64_t request);
  void end(std::uint32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Seconds of self time per layer: each span's duration minus its
  /// children's, summed by the layer prefix of its name.  Children of one
  /// span never overlap here: every span comes from begin()/end() nesting
  /// on one thread.
  [[nodiscard]] std::map<std::string, double> layer_self_seconds() const;

  /// Write the spans as JSON lines (at most `cap` of them; the summary
  /// always covers every span).
  void write_jsonl(const std::string& path, std::size_t cap) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span on a tracer; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t request)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, request) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// Value at quantile q (0..1) of `v` by the nearest-rank rule; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Lines of a text file (without newlines); throws on open failure.
[[nodiscard]] std::vector<std::string> read_lines(const std::string& path);

/// `{"key": value, ...}` of a flat map of numbers, with all digits.
[[nodiscard]] std::string json_numbers(const std::map<std::string, double>& values);

}  // namespace perfbench
