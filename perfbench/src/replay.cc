// Reference replay of service requests through the library's public
// functions.  Untraced, it recomputes every point of every request on a
// worker pool and writes the response_point line the daemon must have sent.
// Traced (--trace-dir), it replays each request on one thread with a span
// around every call: parse, fingerprint, cache load/lookup/insert,
// replications, aggregation and serialization.

#include "replay.h"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "src/core/journal.h"
#include "src/core/runner.h"
#include "src/core/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/sim/rng.h"
#include "src/svc/cache.h"
#include "src/svc/protocol.h"

namespace perfbench {
namespace {

using ckptsim::svc::Request;

double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

std::vector<Request> parse_all(const std::vector<std::string>& lines) {
  std::vector<Request> reqs(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string error;
    if (!ckptsim::svc::parse_request(lines[i], &reqs[i], &error)) {
      throw std::runtime_error("request " + std::to_string(i) + " does not parse: " + error);
    }
  }
  return reqs;
}

ckptsim::RunResult aggregate(const std::vector<ckptsim::ReplicationResult>& reps,
                             const ckptsim::RunSpec& spec, const ckptsim::Parameters& params) {
  // The daemon attaches empty failure accounting and rounds to a clean
  // fixed-replication point; aggregate_replications leaves them empty too.
  return ckptsim::aggregate_replications(reps, spec.confidence_level, params);
}

/// Untraced: every replication of every point on `jobs` workers.
void verify_replay(const std::vector<Request>& reqs, std::size_t jobs, std::ostream& out) {
  struct Point {
    std::size_t req;
    double x;
    ckptsim::Parameters params;
    std::size_t first_rep;
  };
  std::vector<Point> points;
  std::size_t total = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    for (const double x : reqs[i].values) {
      points.push_back({i, x, ckptsim::svc::apply_axis(reqs[i].axis, reqs[i].params, x), total});
      total += reqs[i].spec.replications;
    }
  }
  std::vector<ckptsim::ReplicationResult> results(total);
  std::vector<std::size_t> owner(total);
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t k = 0; k < reqs[points[p].req].spec.replications; ++k) {
      owner[points[p].first_rep + k] = p;
    }
  }
  ckptsim::parallel_for_workers(jobs, total, [&](std::size_t, std::size_t k) {
    const Point& pt = points[owner[k]];
    const ckptsim::RunSpec& spec = reqs[pt.req].spec;
    results[k] = ckptsim::run_replication(
        pt.params, reqs[pt.req].engine,
        ckptsim::sim::replication_seed(spec.seed, k - pt.first_rep), spec.transient,
        spec.horizon, nullptr, spec.watchdog.max_events, spec.scheduler);
  });
  for (const Point& pt : points) {
    const Request& r = reqs[pt.req];
    const std::vector<ckptsim::ReplicationResult> reps(
        results.begin() + static_cast<std::ptrdiff_t>(pt.first_rep),
        results.begin() + static_cast<std::ptrdiff_t>(pt.first_rep + r.spec.replications));
    out << ckptsim::svc::response_point(r.id, pt.x, false, aggregate(reps, r.spec, pt.params))
        << "\n";
  }
}

}  // namespace

std::map<std::string, double> ReplayStats::metrics() const {
  const double n = static_cast<double>(replication_ms.size());
  double total_ms = 0.0;
  for (const double ms : replication_ms) total_ms += ms;
  const double ev = static_cast<double>(events);
  return {
      {"model.ns_per_event", events > 0 ? total_ms * 1e6 / ev : 0.0},
      {"model.allocs_per_event", events > 0 ? static_cast<double>(allocations) / ev : 0.0},
      {"model.replication_ms_p50", quantile(replication_ms, 0.5)},
      {"model.replication_ms_p90", quantile(replication_ms, 0.9)},
      {"model.replications", n},
      {"model.events", ev},
      {"sim.scheduled", static_cast<double>(scheduled)},
      {"sim.cancelled_ratio",
       scheduled > 0 ? static_cast<double>(cancelled) / static_cast<double>(scheduled) : 0.0},
      {"sim.queue_peak", static_cast<double>(queue_peak)},
      {"core.aggregate_us",
       aggregates > 0 ? aggregate_seconds * 1e6 / static_cast<double>(aggregates) : 0.0},
  };
}

ckptsim::RunResult replay_point(const ckptsim::Parameters& params, const ckptsim::RunSpec& spec,
                                std::uint64_t request, Tracer* tracer, ReplayStats* stats) {
  const std::int64_t t0 = now_ns();
  std::vector<ckptsim::ReplicationResult> reps;
  reps.reserve(spec.replications);
  for (std::size_t rep = 0; rep < spec.replications; ++rep) {
    ckptsim::obs::ReplicationProbe probe;
    const std::uint64_t allocs0 = thread_allocations();
    const std::int64_t r0 = now_ns();
    {
      const Scope span(tracer, "model.run_replication", request);
      reps.push_back(ckptsim::run_replication(params, ckptsim::EngineKind::kDes,
                                              ckptsim::sim::replication_seed(spec.seed, rep),
                                              spec.transient, spec.horizon, &probe,
                                              spec.watchdog.max_events, spec.scheduler));
    }
    stats->replication_ms.push_back(static_cast<double>(now_ns() - r0) * 1e-6);
    stats->allocations += thread_allocations() - allocs0;
    stats->events += probe.queue.fired;
    stats->scheduled += probe.queue.scheduled;
    stats->cancelled += probe.queue.cancelled;
    stats->queue_peak = std::max<std::uint64_t>(stats->queue_peak, probe.queue.peak_size);
  }
  const std::int64_t a0 = now_ns();
  ckptsim::RunResult result;
  {
    const Scope span(tracer, "core.aggregate", request);
    result = aggregate(reps, spec, params);
  }
  const std::int64_t a1 = now_ns();
  stats->aggregate_seconds += static_cast<double>(a1 - a0) * 1e-9;
  ++stats->aggregates;
  stats->seconds += static_cast<double>(a1 - t0) * 1e-9;
  return result;
}

void write_trace(const Tracer& tracer, const std::string& dir,
                 const std::map<std::string, double>& metrics) {
  std::filesystem::create_directories(dir);
  constexpr std::size_t kSpanCap = 200000;
  tracer.write_jsonl(dir + "/spans.jsonl", kSpanCap);
  std::ofstream out(dir + "/layers.json");
  out << "{\"self_seconds\":" << json_numbers(tracer.layer_self_seconds())
      << ",\"spans\":" << tracer.spans().size()
      << ",\"spans_written\":" << std::min(kSpanCap, tracer.spans().size())
      << ",\"metrics\":" << json_numbers(metrics) << "}\n";
  if (!out) throw std::runtime_error("cannot write " + dir + "/layers.json");
}

int cmd_replay(const ckptsim::report::Cli& cli) {
  const std::vector<Request> reqs = parse_all(read_lines(cli.value("--requests")));
  std::ofstream out(cli.value("--out"));
  if (!out) throw std::runtime_error("cannot write --out");
  const std::string trace_dir = cli.value("--trace-dir");
  if (trace_dir.empty()) {
    verify_replay(reqs, static_cast<std::size_t>(cli.number("--jobs", 0)), out);
    return out.good() ? 0 : 1;
  }

  // Traced: one thread, the daemon's order of calls per request.
  const std::vector<std::string> lines = read_lines(cli.value("--requests"));
  std::filesystem::create_directories(trace_dir);
  Tracer tracer;
  ReplayStats stats;
  const std::int64_t l0 = now_ns();
  std::optional<ckptsim::svc::ResultCache> cache;
  {
    const Scope span(&tracer, "core.journal_load", 0);
    cache.emplace(cli.value("--cache"));
  }
  const double load_us = ns_to_us(now_ns() - l0);
  std::int64_t parse_ns = 0, fp_ns = 0, lookup_ns = 0, serialize_ns = 0;
  std::size_t points = 0, bytes = 0;
  std::vector<double> append_us;
  std::ofstream pre_accept(trace_dir + "/pre_accept_us.txt");
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::uint64_t request = i + 1;
    Request r;
    std::string error;
    std::int64_t a = now_ns();
    {
      const Scope span(&tracer, "svc.parse_request", request);
      if (!ckptsim::svc::parse_request(lines[i], &r, &error)) throw std::runtime_error(error);
    }
    std::int64_t pre = now_ns() - a;
    parse_ns += pre;
    std::size_t cached = 0;
    for (const double x : r.values) {
      ++points;
      a = now_ns();
      ckptsim::Parameters params;
      std::uint64_t fp = 0;
      {
        const Scope span(&tracer, "core.journal_fingerprint", request);
        params = ckptsim::svc::apply_axis(r.axis, r.params, x);
        fp = ckptsim::journal_fingerprint(r.label, params, r.spec, r.engine, x);
      }
      std::int64_t b = now_ns();
      fp_ns += b - a;
      pre += b - a;
      ckptsim::RunResult result;
      bool hit = false;
      {
        const Scope span(&tracer, "svc.lookup", request);
        hit = cache->lookup(fp, &result);
      }
      a = now_ns();
      lookup_ns += a - b;
      pre += a - b;
      if (!hit) {
        result = replay_point(params, r.spec, request, &tracer, &stats);
        b = now_ns();
        {
          const Scope span(&tracer, "core.journal_append", request);
          cache->insert(fp, x, result);
        }
        append_us.push_back(ns_to_us(now_ns() - b));
      }
      a = now_ns();
      std::string line;
      {
        const Scope span(&tracer, "svc.response_point", request);
        line = ckptsim::svc::response_point(r.id, x, hit, result);
      }
      b = now_ns();
      serialize_ns += b - a;
      // The daemon serializes cache hits before it writes "accepted".
      if (hit) {
        pre += b - a;
        ++cached;
      }
      bytes += line.size() + 1;
      out << line << "\n";
    }
    bytes += ckptsim::svc::response_accepted(r.id, r.values.size(), cached).size() + 1;
    bytes += ckptsim::svc::response_done(r.id, r.values.size(), cached, 0).size() + 1;
    pre_accept << ns_to_us(pre) << "\n";
  }
  const double replay_s = static_cast<double>(now_ns() - t0) * 1e-9;

  std::map<std::string, double> m = stats.metrics();
  const double np = points > 0 ? static_cast<double>(points) : 1.0;
  const double nr = lines.empty() ? 1.0 : static_cast<double>(lines.size());
  m["svc.parse_us"] = ns_to_us(parse_ns) / nr;
  m["core.fingerprint_us"] = ns_to_us(fp_ns) / np;
  m["svc.lookup_us"] = ns_to_us(lookup_ns) / np;
  m["svc.serialize_us"] = ns_to_us(serialize_ns) / np;
  m["svc.response_bytes"] = static_cast<double>(bytes) / nr;
  m["core.journal_append_us_p50"] = quantile(append_us, 0.5);
  m["core.journal_append_us_p90"] = quantile(append_us, 0.9);
  m["core.journal_load_us_per_entry"] =
      cache->loaded() > 0 ? load_us / static_cast<double>(cache->loaded()) : 0.0;
  m["replay_seconds"] = replay_s;
  m["replay_points"] = static_cast<double>(points);
  write_trace(tracer, trace_dir, m);
  std::cout << json_numbers(m) << std::endl;
  return out.good() ? 0 : 1;
}

}  // namespace perfbench
