#pragma once

#include <cstdint>
#include <string_view>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace ckptsim::snapshot {
class StateReader;
class StateWriter;
}  // namespace ckptsim::snapshot

namespace ckptsim::sim {

/// Piecewise-constant-rate integrator with impulses.
///
/// Tracks the time integral of a reward rate that changes at discrete
/// instants, plus instantaneous (possibly negative) impulse contributions —
/// exactly the accumulated-reward structure of the paper's useful_work
/// submodel.  `reset()` discards history at the end of a transient
/// warm-up period without losing the current rate.
class RateIntegral {
 public:
  /// Change the reward rate effective at time `now` (absolute sim time,
  /// must be non-decreasing across calls).
  void set_rate(double now, double rate);

  /// Add an instantaneous contribution (may be negative).
  void impulse(double amount) noexcept { integral_ += amount; }

  /// Integral value up to time `now` (flushes the running segment).
  [[nodiscard]] double value(double now) const;

  /// Current rate.
  [[nodiscard]] double rate() const noexcept { return rate_; }

  /// Forget everything accumulated before `now`; the current rate persists.
  void reset(double now);

  /// Exact accumulator state for the snapshot layer: restoring (rate,
  /// since, integral) and replaying the same rate changes reproduces
  /// value() bit-for-bit.
  void save_state(snapshot::StateWriter& w) const;
  void restore_state(snapshot::StateReader& r);

 private:
  double rate_ = 0.0;
  double since_ = 0.0;    // time the current rate became effective
  double integral_ = 0.0; // closed segments + impulses
};

/// Simulation engine: event queue + named RNG streams.
///
/// One Engine per replication.  Models own their state and schedule
/// callbacks on the engine; the engine stays model-agnostic.
class Engine {
 public:
  /// `seed` drives every stream in this replication; two engines with the
  /// same seed replay identically.
  explicit Engine(std::uint64_t seed) : pool_(seed) {}

  [[nodiscard]] double now() const noexcept { return queue_.now(); }
  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }
  [[nodiscard]] const EventQueue& queue() const noexcept { return queue_; }

  /// Named RNG substream (same name -> same stream for a given seed).
  [[nodiscard]] Rng stream(std::string_view name) const { return pool_.stream(name); }

  EventHandle schedule_in(double dt, EventQueue::Callback fn) {
    return queue_.schedule_in(dt, std::move(fn));
  }
  EventHandle schedule_at(double t, EventQueue::Callback fn) {
    return queue_.schedule(t, std::move(fn));
  }
  bool cancel(EventHandle& h) noexcept { return queue_.cancel(h); }

  /// Run the simulation clock to `t_end`.
  void run_until(double t_end) { queue_.run_until(t_end); }

 private:
  EventQueue queue_;
  RngPool pool_;
};

}  // namespace ckptsim::sim
