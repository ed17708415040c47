#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>

namespace ckptsim::obs {

/// Rate-limited progress heartbeat for long multi-replication runs.
///
/// Attached to a RunSpec (off by default), the parallel drivers
/// call `begin` before a region, `tick` from workers as units complete, and
/// `finish` at the end.  Lines go to stderr (or an injected stream) showing
/// completed/total units, wall-clock elapsed, and an ETA extrapolated from
/// the mean per-unit time.  Emission is rate-limited to one line per
/// `min_interval_seconds` so a million ticks cost a million atomic
/// increments, not a million writes; `finish` always emits.
class ProgressReporter {
 public:
  struct Options {
    double min_interval_seconds = 1.0;
    std::ostream* out = nullptr;          ///< nullptr = std::cerr
    std::function<double()> clock;        ///< seconds; default steady_clock
  };

  ProgressReporter() : ProgressReporter(Options{}) {}
  explicit ProgressReporter(Options options);

  /// Start a phase of `total` units labelled e.g. "run_model"; resets the
  /// completed counter and the elapsed clock.
  void begin(std::string label, std::uint64_t total, std::string unit = "replications");

  /// Record `n` completed units; emits a line when the rate limit allows.
  /// Thread-safe; called from worker threads.
  void tick(std::uint64_t n = 1);

  /// Emit the final line for the current phase (always, ignoring the rate
  /// limit).  Idempotent.
  void finish();

  [[nodiscard]] std::uint64_t completed() const noexcept {
    return done_.load(std::memory_order_relaxed);
  }
  /// Lines actually written (tests pin the rate limiting through this).
  [[nodiscard]] std::uint64_t lines_emitted() const noexcept {
    return lines_.load(std::memory_order_relaxed);
  }

 private:
  void emit_line(std::uint64_t done, double now, bool final);

  Options options_;
  std::string label_;
  std::string unit_;
  std::uint64_t total_ = 0;
  double started_ = 0.0;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> lines_{0};
  std::mutex emit_mu_;           ///< serialises emission + last_emit_
  double last_emit_ = 0.0;       ///< guarded by emit_mu_
  bool finished_ = true;         ///< guarded by emit_mu_
};

}  // namespace ckptsim::obs
