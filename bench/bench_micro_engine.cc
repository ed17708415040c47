// google-benchmark microbenchmarks of the simulation substrates: pending
// set throughput, RNG streams, coordination-latency sampling, and
// events/second of both model engines.
//
// Invoked with --engine-json=PATH the binary instead runs a fixed engine
// harness and writes BENCH_engine.json: events/sec and firings/sec of the
// pending set, the SAN executor (incremental vs forced full-rescan
// refresh) and the DES engine, plus heap allocations per event in steady
// state — the CI smoke step asserts the latter is zero.  Each section's
// work is sized so that one run lasts at least a second, and the section
// runs several times: events_per_sec is the mean over the runs, with its
// 95% confidence half-width beside it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/model/san_model.h"
#include "src/obs/json.h"
#include "src/san/executor.h"
#include "src/sim/distributions.h"
#include "src/sim/pending_set.h"
#include "src/sim/rng.h"
#include "src/stats/confidence.h"
#include "src/stats/summary.h"

// --- global allocation counter ----------------------------------------------
// Counts every heap allocation in the process so the engine harness can
// prove the hot loop is allocation-free in steady state.  Counting is a
// relaxed atomic increment; the bench is effectively single-threaded.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// None of the replacements is inlined: GCC would otherwise see malloc()
// or free() where a caller's new or delete was, and warn of a mismatched
// pair (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
[[gnu::noinline]] void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using ckptsim::Parameters;
using ckptsim::units::kHour;

void BM_PendingSetArmFire(benchmark::State& state) {
  ckptsim::sim::PendingSet q(1);
  std::uint64_t counter = 0;
  for (auto _ : state) {
    q.arm_in(0, 1.0);
    q.step([&counter](std::uint32_t) { ++counter; });
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PendingSetArmFire);

void BM_PendingSetArmDisarm(benchmark::State& state) {
  ckptsim::sim::PendingSet q(1);
  for (auto _ : state) {
    q.arm_in(0, 1.0);
    q.disarm(0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PendingSetArmDisarm);

void BM_RngExponential(benchmark::State& state) {
  ckptsim::sim::Rng rng(1);
  double acc = 0.0;
  for (auto _ : state) acc += rng.exponential_mean(10.0);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngExponential);

void BM_MaxOfExponentialsSample(benchmark::State& state) {
  const ckptsim::sim::MaxOfExponentials dist(
      static_cast<std::uint64_t>(state.range(0)), 10.0);
  ckptsim::sim::Rng rng(1);
  double acc = 0.0;
  for (auto _ : state) acc += dist.sample(rng);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MaxOfExponentialsSample)->Arg(1024)->Arg(65536)->Arg(1 << 30);

void BM_DesModelSimYear(benchmark::State& state) {
  // Simulated hours per wall second for the default 64K-processor system.
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ckptsim::DesModel model(Parameters{}, seed++);
    const auto r = model.run(0.0, 100.0 * kHour);
    benchmark::DoNotOptimize(r.useful_fraction);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
  state.SetLabel("items = simulated hours");
}
BENCHMARK(BM_DesModelSimYear);

void BM_SanModelSimYear(benchmark::State& state) {
  const ckptsim::SanCheckpointModel model{Parameters{}};
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto r = model.run_replication(seed++, 0.0, 100.0 * kHour);
    benchmark::DoNotOptimize(r.useful_fraction);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
  state.SetLabel("items = simulated hours");
}
BENCHMARK(BM_SanModelSimYear);

void BM_SanExecutorMM1(benchmark::State& state) {
  // Raw SAN executor throughput on the M/M/1 toy net.
  ckptsim::san::Model m;
  const auto queue = m.add_place("queue", 0);
  ckptsim::san::ActivitySpec arrive;
  arrive.name = "arrive";
  arrive.latency = [](const ckptsim::san::Marking&, ckptsim::sim::Rng& r) {
    return r.exponential_rate(0.5);
  };
  arrive.output_arcs = {ckptsim::san::OutputArc{queue, 1}};
  m.add_activity(std::move(arrive));
  ckptsim::san::ActivitySpec serve;
  serve.name = "serve";
  serve.latency = [](const ckptsim::san::Marking&, ckptsim::sim::Rng& r) {
    return r.exponential_rate(1.0);
  };
  serve.input_arcs = {ckptsim::san::InputArc{queue, 1}};
  m.add_activity(std::move(serve));

  std::uint64_t fired = 0;
  for (auto _ : state) {
    ckptsim::san::Executor exec(m, 42);
    exec.run_until(10000.0);
    fired += exec.total_firings();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
  state.SetLabel("items = activity firings");
}
BENCHMARK(BM_SanExecutorMM1);

/// A "wide" SAN: `stations` independent M/M/1 nets sharing one executor.
/// Models the scaling regime the dependency index targets — per-event work
/// must stay O(affected activities), not O(all activities).
ckptsim::san::Model make_wide_model(std::uint32_t stations) {
  ckptsim::san::Model m;
  for (std::uint32_t i = 0; i < stations; ++i) {
    const auto queue = m.add_place("queue" + std::to_string(i), 0);
    ckptsim::san::ActivitySpec arrive;
    arrive.name = "arrive" + std::to_string(i);
    arrive.latency = [](const ckptsim::san::Marking&, ckptsim::sim::Rng& r) {
      return r.exponential_rate(0.5);
    };
    arrive.output_arcs = {ckptsim::san::OutputArc{queue, 1}};
    m.add_activity(std::move(arrive));
    ckptsim::san::ActivitySpec serve;
    serve.name = "serve" + std::to_string(i);
    serve.latency = [](const ckptsim::san::Marking&, ckptsim::sim::Rng& r) {
      return r.exponential_rate(1.0);
    };
    serve.input_arcs = {ckptsim::san::InputArc{queue, 1}};
    m.add_activity(std::move(serve));
  }
  return m;
}

void BM_SanExecutorWide(benchmark::State& state) {
  const auto m = make_wide_model(static_cast<std::uint32_t>(state.range(0)));
  std::uint64_t fired = 0;
  for (auto _ : state) {
    ckptsim::san::Executor exec(m, 42);
    exec.run_until(500.0);
    fired += exec.total_firings();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
  state.SetLabel("items = activity firings");
}
BENCHMARK(BM_SanExecutorWide)->Arg(16)->Arg(128);

// --- BENCH_engine.json harness ----------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct EngineSample {
  std::uint64_t events = 0;      ///< timed completions fired
  std::uint64_t firings = 0;     ///< activity firings (incl. instantaneous)
  std::uint64_t allocs = 0;      ///< heap allocations during the window
  std::uint64_t enabling_evals = 0;
  double seconds = 0.0;
};

/// Timed runs per section, and the least time one run must take.
constexpr int kRuns = 5;
constexpr double kMinRunSeconds = 1.0;

/// kRuns runs of one section's work: the per-run counts, and events/sec
/// across the runs.
struct Section {
  EngineSample total;  ///< summed over the runs
  ckptsim::stats::Summary events_per_sec;
};

/// The work scale at which `run(scale)` lasts at least kMinRunSeconds with
/// 25% to spare for the spread between runs: start at 1 and grow by the
/// missing factor (aiming at 1.5x the bound, at least doubling).  The run
/// that reaches it doubles as the warm-up.
template <typename Run>
std::uint64_t calibrate(const Run& run) {
  std::uint64_t scale = 1;
  for (;;) {
    const double seconds = run(scale).seconds;
    if (seconds >= 1.25 * kMinRunSeconds) return scale;
    const double grow = std::clamp(1.5 * kMinRunSeconds / std::max(seconds, 1e-6), 2.0, 1024.0);
    scale = static_cast<std::uint64_t>(std::ceil(static_cast<double>(scale) * grow));
  }
}

template <typename Run>
Section measure(const Run& run, std::uint64_t scale) {
  Section s;
  for (int i = 0; i < kRuns; ++i) {
    const EngineSample r = run(scale);
    s.total.events += r.events;
    s.total.firings += r.firings;
    s.total.allocs += r.allocs;
    s.total.enabling_evals += r.enabling_evals;
    s.total.seconds += r.seconds;
    s.events_per_sec.add(r.seconds > 0.0 ? static_cast<double>(r.events) / r.seconds : 0.0);
  }
  return s;
}

void write_section(ckptsim::obs::JsonWriter& w, const char* name, const Section& s) {
  const EngineSample& t = s.total;
  const auto per_event = [&t](std::uint64_t n) {
    return t.events > 0 ? static_cast<double>(n) / static_cast<double>(t.events) : 0.0;
  };
  w.key(name);
  w.begin_object();
  w.kv("runs", static_cast<std::uint64_t>(kRuns));
  w.kv("events", t.events / kRuns);  // per run: every run does the same work
  w.kv("firings", t.firings / kRuns);
  w.kv("seconds", t.seconds / kRuns);
  w.kv("events_per_sec", s.events_per_sec.mean());
  w.kv("events_per_sec_ci95", ckptsim::stats::mean_confidence(s.events_per_sec).half_width);
  w.kv("firings_per_sec", t.seconds > 0.0 ? static_cast<double>(t.firings) / t.seconds : 0.0);
  w.kv("allocs_per_event", per_event(t.allocs));
  w.kv("enabling_evals_per_event", per_event(t.enabling_evals));
  w.end_object();
}

/// Warm the executor past `warmup`, then measure the steady-state window up
/// to `horizon`.  Allocations are sampled across the measured window only:
/// all vector capacities (heap, candidate lists, scratch) settle during
/// warm-up, so steady state must be allocation-free.
EngineSample run_executor_window(const ckptsim::san::Model& m, bool full_rescan, double warmup,
                                 double horizon) {
  ckptsim::san::Executor exec(m, 42);
  exec.set_full_rescan(full_rescan);
  exec.run_until(warmup);
  EngineSample s;
  const auto fired0 = exec.queue_stats().fired;
  const auto firings0 = exec.total_firings();
  const auto evals0 = exec.enabling_evaluations();
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  exec.run_until(horizon);
  s.seconds = seconds_since(t0);
  s.allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  s.events = exec.queue_stats().fired - fired0;
  s.firings = exec.total_firings() - firings0;
  s.enabling_evals = exec.enabling_evaluations() - evals0;
  return s;
}

EngineSample run_pending_set_window(std::uint64_t events) {
  ckptsim::sim::PendingSet q(1);
  std::uint64_t counter = 0;
  // One key armed and fired over and over, the fire callback counting.
  const auto pump = [&q, &counter](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      q.arm_in(0, 1.0);
      q.step([&counter](std::uint32_t) { ++counter; });
    }
  };
  pump(10'000);
  EngineSample s;
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  pump(events);
  s.seconds = seconds_since(t0);
  s.allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  benchmark::DoNotOptimize(counter);
  s.events = events;
  s.firings = events;
  return s;
}

/// One DesModel per replication seed, the per-replication driver's cost
/// model (construct + run); events aggregate over the replications.
EngineSample run_des(const Parameters& p, std::size_t reps, double horizon) {
  EngineSample s;
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    ckptsim::DesModel model(p, ckptsim::sim::replication_seed(20260808, r));
    const auto result = model.run(0.0, horizon);
    benchmark::DoNotOptimize(result.useful_fraction);
    s.events += model.queue_stats().fired;
  }
  s.seconds = seconds_since(t0);
  s.allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  s.firings = s.events;
  return s;
}

/// An incremental and a full-rescan SAN executor section, each over a
/// window of `horizon - warm` seconds per unit of its own scale, and the
/// incremental refresh's events/sec over the full rescan's.
void write_executor_pair(ckptsim::obs::JsonWriter& w, const std::string& name,
                         const ckptsim::san::Model& m, double warm, double horizon) {
  const auto window = [&m, warm, horizon](bool full) {
    return [&m, warm, horizon, full](std::uint64_t scale) {
      return run_executor_window(m, full, warm,
                                 warm + (horizon - warm) * static_cast<double>(scale));
    };
  };
  const Section inc = measure(window(false), calibrate(window(false)));
  const Section full = measure(window(true), calibrate(window(true)));
  write_section(w, name.c_str(), inc);
  write_section(w, (name + "_full_rescan").c_str(), full);
  const double full_eps = full.events_per_sec.mean();
  w.kv(name + "_speedup_vs_full_rescan",
       full_eps > 0.0 ? inc.events_per_sec.mean() / full_eps : 0.0);
}

int run_engine_report(const std::string& path) {
  ckptsim::obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "ckptsim/bench-engine/v1");

  const auto pending = [](std::uint64_t scale) {
    return run_pending_set_window(2'000'000 * scale);
  };
  write_section(w, "pending_set", measure(pending, calibrate(pending)));

  // The paper's 12-submodel checkpoint model: the real hot path.
  const ckptsim::SanCheckpointModel model{Parameters{}};
  write_executor_pair(w, "san_checkpoint", model.model(), 100.0 * kHour, 2100.0 * kHour);

  // The wide net: per-event work must not scale with model size.
  write_executor_pair(w, "san_wide_128", make_wide_model(128), 50.0, 1050.0);

  // The DES engine at the paper's largest machine (256K processors), one
  // replication at a time as the drivers run it.  The window includes
  // model construction, the cost the replication drivers actually pay, so
  // allocs_per_event is amortized-small instead of zero.
  Parameters big;
  big.num_processors = 262144;
  const auto des = [&big](std::uint64_t scale) {
    return run_des(big, /*reps=*/8 * scale, /*horizon=*/600.0 * kHour);
  };
  write_section(w, "des_256k", measure(des, calibrate(des)));

  w.end_object();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro_engine: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kFlag = "--engine-json=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) != 0) continue;
    if (argc != 2) {
      std::fprintf(stderr, "error: --engine-json=FILE takes no other option\n");
      return 1;
    }
    return run_engine_report(argv[i] + std::strlen(kFlag));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
