#include "src/obs/metrics.h"

#include <algorithm>
#include <utility>

#include "src/core/durable_file.h"
#include "src/obs/json.h"

namespace ckptsim::obs {

Metrics::Metrics(std::size_t workers) : shards_(workers == 0 ? 1 : workers) {}

void Metrics::Shard::absorb(const ReplicationProbe& p) noexcept {
  events += p.events;
  ++replications;
  activity_firings += p.activity_firings;
  activity_aborts += p.activity_aborts;
  queue.merge(p.queue);
}

ServiceSnapshot ServiceCounters::snapshot() const noexcept {
  ServiceSnapshot s;
  s.requests = requests.load(std::memory_order_relaxed);
  s.accepted = accepted.load(std::memory_order_relaxed);
  s.rejected = rejected.load(std::memory_order_relaxed);
  s.errors = errors.load(std::memory_order_relaxed);
  s.cancelled = cancelled.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses.load(std::memory_order_relaxed);
  s.points_completed = points_completed.load(std::memory_order_relaxed);
  s.replications_run = replications_run.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth.load(std::memory_order_relaxed);
  s.uptime_seconds = std::chrono::duration_cast<std::chrono::duration<double>>(
                         std::chrono::steady_clock::now() - started_)
                         .count();
  s.points_per_sec = s.uptime_seconds > 0.0
                         ? static_cast<double>(s.points_completed) / s.uptime_seconds
                         : 0.0;
  return s;
}

void Metrics::record_point(PointRecord record) {
  const std::lock_guard<std::mutex> lock(points_mu_);
  points_.push_back(std::move(record));
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot s;
  s.wall_seconds = wall_seconds_;
  s.service = service_.snapshot();
  {
    const std::lock_guard<std::mutex> lock(points_mu_);
    s.points = points_;
  }
  // Workers finalize points in completion order; sort so the snapshot is
  // stable across thread counts and runs.
  std::sort(s.points.begin(), s.points.end(), [](const PointRecord& a, const PointRecord& b) {
    if (a.label != b.label) return a.label < b.label;
    return a.x < b.x;
  });
  s.worker_busy_seconds.reserve(shards_.size());
  for (const auto& padded : shards_) {
    const Shard& sh = padded.cell;
    s.events += sh.events;
    s.replications += sh.replications;
    s.activity_firings += sh.activity_firings;
    s.activity_aborts += sh.activity_aborts;
    s.queue.merge(sh.queue);
    s.worker_busy_seconds.push_back(sh.busy_seconds);
  }
  return s;
}

std::string MetricsSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "ckptsim.metrics.v1");
  w.kv("replications", replications);
  w.kv("wall_seconds", wall_seconds);

  w.key("events");
  w.begin_object();
  for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
    w.kv(trace::to_string(static_cast<trace::EventKind>(k)), events.counts[k]);
  }
  w.end_object();

  w.key("activities");
  w.begin_object();
  w.kv("firings", activity_firings);
  w.kv("aborts", activity_aborts);
  w.end_object();

  w.key("event_queue");
  w.begin_object();
  w.kv("scheduled", queue.scheduled);
  w.kv("fired", queue.fired);
  w.kv("cancelled", queue.cancelled);
  w.kv("peak_size", static_cast<std::uint64_t>(queue.peak_size));
  w.end_object();

  if (!points.empty()) {
    w.key("points");
    w.begin_array();
    for (const auto& p : points) {
      w.begin_object();
      w.kv("label", p.label);
      w.kv("x", p.x);
      w.kv("replications", p.replications);
      w.key("rounds");
      w.begin_array();
      for (const auto r : p.rounds) w.value(static_cast<std::uint64_t>(r));
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }

  // Campaign-server block, emitted only once service traffic exists so the
  // snapshot of a plain CLI/bench run stays byte-identical to older builds.
  if (service.active()) {
    w.key("service");
    w.begin_object();
    w.kv("requests", service.requests);
    w.kv("accepted", service.accepted);
    w.kv("rejected", service.rejected);
    w.kv("errors", service.errors);
    w.kv("cancelled", service.cancelled);
    w.kv("cache_hits", service.cache_hits);
    w.kv("cache_misses", service.cache_misses);
    w.kv("points_completed", service.points_completed);
    w.kv("replications_run", service.replications_run);
    w.kv("queue_depth", static_cast<std::uint64_t>(
                            service.queue_depth < 0 ? 0 : service.queue_depth));
    w.kv("uptime_seconds", service.uptime_seconds);
    w.kv("points_per_sec", service.points_per_sec);
    w.end_object();
  }

  w.key("workers");
  w.begin_array();
  for (std::size_t i = 0; i < worker_busy_seconds.size(); ++i) {
    w.begin_object();
    w.kv("worker", static_cast<std::uint64_t>(i));
    w.kv("busy_seconds", worker_busy_seconds[i]);
    w.kv("busy_fraction",
         wall_seconds > 0.0 ? worker_busy_seconds[i] / wall_seconds : 0.0);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str();
}

void MetricsSnapshot::write_json(const std::string& path) const {
  // Atomic publish: a crash mid-write never leaves a torn snapshot.
  durable::replace_file(path, to_json() + '\n');
}

}  // namespace ckptsim::obs
