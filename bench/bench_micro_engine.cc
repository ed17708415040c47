// google-benchmark microbenchmarks of the simulation substrates: event
// queue throughput, RNG streams, coordination-latency sampling, and
// events/second of both model engines.
//
// Invoked with --engine-json=PATH the binary instead runs a fixed engine
// harness and writes BENCH_engine.json: events/sec and firings/sec of the
// event queue and the SAN executor (incremental vs forced full-rescan
// refresh), plus heap allocations per event in steady state — the CI smoke
// step asserts the latter is zero.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
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
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

// --- global allocation counter ----------------------------------------------
// Counts every heap allocation in the process so the engine harness can
// prove the hot loop is allocation-free in steady state.  Counting is a
// relaxed atomic increment; the bench is effectively single-threaded.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using ckptsim::Parameters;
using ckptsim::units::kHour;

void BM_EventQueueScheduleFire(benchmark::State& state) {
  ckptsim::sim::EventQueue q;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    q.schedule_in(1.0, [&counter] { ++counter; });
    q.step();
  }
  benchmark::DoNotOptimize(counter);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueScheduleCancel(benchmark::State& state) {
  ckptsim::sim::EventQueue q;
  for (auto _ : state) {
    auto h = q.schedule_in(1.0, [] {});
    q.cancel(h);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleCancel);

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

void write_sample(ckptsim::obs::JsonWriter& w, const char* name, const EngineSample& s) {
  w.key(name);
  w.begin_object();
  w.kv("events", s.events);
  w.kv("firings", s.firings);
  w.kv("seconds", s.seconds);
  w.kv("events_per_sec", s.seconds > 0.0 ? static_cast<double>(s.events) / s.seconds : 0.0);
  w.kv("firings_per_sec", s.seconds > 0.0 ? static_cast<double>(s.firings) / s.seconds : 0.0);
  w.kv("allocs_per_event",
       s.events > 0 ? static_cast<double>(s.allocs) / static_cast<double>(s.events) : 0.0);
  w.kv("enabling_evals_per_event",
       s.events > 0 ? static_cast<double>(s.enabling_evals) / static_cast<double>(s.events) : 0.0);
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

EngineSample run_queue_window(std::uint64_t events, ckptsim::sim::SchedulerKind kind) {
  ckptsim::sim::EventQueue q(kind);
  std::uint64_t counter = 0;
  // Self-rescheduling payload mirroring the executor's callback shape
  // (pointer + index); warm-up settles the heap capacity and slot table.
  const auto pump = [&q, &counter](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      q.schedule_in(1.0, [&counter] { ++counter; });
      q.step();
    }
  };
  pump(10'000);
  EngineSample s;
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  pump(events);
  s.seconds = seconds_since(t0);
  s.allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
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

int run_engine_report(const std::string& path, ckptsim::sim::SchedulerKind kind) {
  ckptsim::obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "ckptsim/bench-engine/v1");
  w.kv("scheduler", std::string(ckptsim::sim::to_string(kind)));

  write_sample(w, "event_queue", run_queue_window(2'000'000, kind));

  // The paper's 12-submodel checkpoint model: the real hot path.
  const ckptsim::SanCheckpointModel model{Parameters{}};
  const double warm = 100.0 * kHour, horizon = 2100.0 * kHour;
  const auto ckpt_inc = run_executor_window(model.model(), false, warm, horizon);
  const auto ckpt_full = run_executor_window(model.model(), true, warm, horizon);
  write_sample(w, "san_checkpoint", ckpt_inc);
  write_sample(w, "san_checkpoint_full_rescan", ckpt_full);
  w.kv("san_checkpoint_speedup_vs_full_rescan",
       ckpt_inc.seconds > 0.0 ? ckpt_full.seconds / ckpt_inc.seconds : 0.0);

  // The wide net: per-event work must not scale with model size.
  const auto wide = make_wide_model(128);
  const auto wide_inc = run_executor_window(wide, false, 50.0, 1050.0);
  const auto wide_full = run_executor_window(wide, true, 50.0, 1050.0);
  write_sample(w, "san_wide_128", wide_inc);
  write_sample(w, "san_wide_128_full_rescan", wide_full);
  w.kv("san_wide_128_speedup_vs_full_rescan",
       wide_inc.seconds > 0.0 ? wide_full.seconds / wide_inc.seconds : 0.0);

  // The DES engine at the paper's largest machine (256K processors), one
  // replication at a time as the drivers run it.  The window includes
  // model construction, the cost the replication drivers actually pay, so
  // allocs_per_event is amortized-small instead of zero.  The DES engine
  // has no event queue: --scheduler does not reach this section.
  Parameters big;
  big.num_processors = 262144;
  write_sample(w, "des_256k", run_des(big, /*reps=*/8, /*horizon=*/600.0 * kHour));

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
  // --scheduler=heap|calendar selects the EventQueue backend for the
  // engine-json harness (results are identical; throughput differs).
  auto kind = ckptsim::sim::SchedulerKind::kBinaryHeap;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--engine-json=";
    constexpr const char* kSched = "--scheduler=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      json_path = argv[i] + std::strlen(kFlag);
    } else if (std::strncmp(argv[i], kSched, std::strlen(kSched)) == 0) {
      kind = ckptsim::sim::parse_scheduler_kind(argv[i] + std::strlen(kSched));
    }
  }
  if (json_path != nullptr) return run_engine_report(json_path, kind);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
