// Service-layer load generator: drives an in-process CampaignServer with N
// concurrent clients (N = 1, 4, 8), each submitting sweep campaigns and
// waiting for the streamed "done", and writes BENCH_service.json with
// sweep-points/sec per client count — one cold phase (every point
// simulated) and one cache-warm phase (the same campaigns resubmitted, every
// point a cache hit), so the artifact tracks both the scheduling path and
// the memoization path.
//
//   $ bench_service_throughput [--quick] [--out BENCH_service.json]
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/durable_file.h"
#include "src/obs/json.h"
#include "src/report/cli.h"
#include "src/svc/server.h"

namespace {

using Clock = std::chrono::steady_clock;
using ckptsim::svc::CampaignServer;

struct Workload {
  std::size_t campaigns_per_client = 3;
  std::size_t points_per_campaign = 4;
  std::size_t reps = 2;
  double horizon_hours = 40.0;
  std::uint64_t processors = 4096;
};

/// One client's completion tracker: the sink bumps counters, the client
/// thread blocks on `cv` until its campaign reaches a terminal line.
struct ClientState {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t points = 0;
  std::size_t terminal = 0;  ///< done / cancelled / error / rejected lines
  bool clean = true;         ///< false once anything but accepted/point/done

  [[nodiscard]] CampaignServer::Sink sink() {
    return [this](const std::string& line) {
      const auto has_type = [&line](const char* t) {
        return line.find(std::string("\"type\": \"") + t + "\"") != std::string::npos;
      };
      const std::lock_guard<std::mutex> lock(mu);
      if (has_type("point")) {
        ++points;
      } else if (has_type("done")) {
        ++terminal;
        cv.notify_all();
      } else if (has_type("error") || has_type("rejected") || has_type("cancelled")) {
        clean = false;
        ++terminal;
        cv.notify_all();
      }
    };
  }

  void wait_for_terminals(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this, n] { return terminal >= n; });
  }
};

/// The sweep request of client `c`, campaign `j`.  The label carries the
/// client count so each (clients, campaign) pair has its own cache
/// fingerprints: the cold phase of every run really is cold, and the warm
/// phase (same label, fresh id) hits every point.
std::string request_line(std::size_t clients, std::size_t c, std::size_t j, bool warm,
                         const Workload& w) {
  std::string values;
  for (std::size_t p = 0; p < w.points_per_campaign; ++p) {
    if (!values.empty()) values += ",";
    values += std::to_string(15 * (p + 1));
  }
  std::string line = "{\"op\":\"sweep\",\"id\":\"";
  line += (warm ? "warm-" : "cold-");
  line += std::to_string(c) + "-" + std::to_string(j);
  line += "\",\"label\":\"bench n" + std::to_string(clients) + " c" + std::to_string(c) + " j" +
          std::to_string(j) + "\"";
  line += ",\"axis\":\"interval\",\"values\":[" + values + "]";
  line += ",\"params\":{\"processors\":" + std::to_string(w.processors) + "}";
  line += ",\"spec\":{\"reps\":" + std::to_string(w.reps) +
          ",\"horizon_hours\":" + std::to_string(w.horizon_hours) + ",\"transient_hours\":2}}";
  return line;
}

struct PhaseSample {
  std::size_t points = 0;
  double seconds = 0.0;
  std::uint64_t replications_run = 0;
  std::uint64_t cache_hits = 0;
  bool clean = true;
};

/// Run one phase: `clients` threads, each submitting its campaigns one at a
/// time (submit, wait for the terminal line, next) — a closed-loop client.
PhaseSample run_phase(CampaignServer& server, std::size_t clients, bool warm, const Workload& w) {
  const auto before = server.metrics().service().snapshot();
  std::vector<ClientState> states(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&server, &states, &w, clients, warm, c] {
      ClientState& state = states[c];
      const CampaignServer::Sink sink = state.sink();
      for (std::size_t j = 0; j < w.campaigns_per_client; ++j) {
        server.handle_line(request_line(clients, c, j, warm, w), sink);
        state.wait_for_terminals(j + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseSample s;
  s.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  const auto after = server.metrics().service().snapshot();
  s.replications_run = after.replications_run - before.replications_run;
  s.cache_hits = after.cache_hits - before.cache_hits;
  for (ClientState& state : states) {
    s.points += state.points;
    s.clean = s.clean && state.clean;
  }
  return s;
}

void write_phase(ckptsim::obs::JsonWriter& jw, const char* name, const PhaseSample& s) {
  jw.key(name);
  jw.begin_object();
  jw.kv("points", static_cast<std::uint64_t>(s.points));
  jw.kv("seconds", s.seconds);
  jw.kv("points_per_sec", s.seconds > 0.0 ? static_cast<double>(s.points) / s.seconds : 0.0);
  jw.kv("replications_run", s.replications_run);
  jw.kv("cache_hits", s.cache_hits);
  jw.kv("clean", s.clean);
  jw.end_object();
}

constexpr ckptsim::report::FlagSpec kFlags[] = {
    {"--quick", false}, {"--out", true}, {"--jobs", true}, {"--help", false}, {"-h", false}};

}  // namespace

int main(int argc, char** argv) {
  const ckptsim::report::Cli cli(argc, argv);
  if (const int rc = cli.check_flags({std::begin(kFlags), std::end(kFlags)}); rc != 0) return rc;
  if (cli.given("--help") || cli.given("-h")) {
    std::cerr << "usage: bench_service_throughput [--quick] [--out FILE] [--jobs N]\n";
    return 0;
  }
  const bool quick = cli.given("--quick");
  std::string out_path = cli.value("--out");
  if (out_path.empty()) out_path = "BENCH_service.json";

  Workload w;
  if (quick) {
    w.campaigns_per_client = 2;
    w.points_per_campaign = 2;
    w.reps = 1;
    w.horizon_hours = 8.0;
    w.processors = 2048;
  }

  try {
    ckptsim::obs::JsonWriter jw;
    jw.begin_object();
    jw.kv("schema", "ckptsim/bench-service/v1");
    jw.kv("quick", quick);
    jw.kv("campaigns_per_client", static_cast<std::uint64_t>(w.campaigns_per_client));
    jw.kv("points_per_campaign", static_cast<std::uint64_t>(w.points_per_campaign));
    jw.kv("replications_per_point", static_cast<std::uint64_t>(w.reps));
    bool all_clean = true;
    jw.key("runs");
    jw.begin_array();
    for (const std::size_t clients : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      // A fresh server per client count: clean counters, a cold cache, and
      // enough queue headroom that closed-loop clients are never rejected.
      ckptsim::svc::ServerConfig config;
      config.workers = cli.count("--jobs", 0);
      config.max_queue_depth = clients + 1;
      CampaignServer server(config);
      const PhaseSample cold = run_phase(server, clients, /*warm=*/false, w);
      const PhaseSample warm = run_phase(server, clients, /*warm=*/true, w);
      const std::size_t workers = server.workers();
      server.stop();
      all_clean = all_clean && cold.clean && warm.clean && warm.replications_run == 0;
      jw.begin_object();
      jw.kv("clients", static_cast<std::uint64_t>(clients));
      jw.kv("workers", static_cast<std::uint64_t>(workers));
      write_phase(jw, "cold", cold);
      write_phase(jw, "warm", warm);
      jw.end_object();
      std::fprintf(stderr, "clients=%zu cold %.0f points/sec, warm %.0f points/sec\n", clients,
                   cold.seconds > 0.0 ? static_cast<double>(cold.points) / cold.seconds : 0.0,
                   warm.seconds > 0.0 ? static_cast<double>(warm.points) / warm.seconds : 0.0);
    }
    jw.end_array();
    jw.kv("clean", all_clean);
    jw.end_object();
    ckptsim::durable::replace_file(out_path, jw.str() + "\n");
    std::cout << jw.str() << "\n";
    std::cerr << "wrote " << out_path << "\n";
    // A warm phase that simulated anything, or any error/rejection, fails
    // the bench: CI treats a dirty artifact as a regression.
    return all_clean ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_service_throughput: " << e.what() << "\n";
    return 1;
  }
}
