// Service layer (src/svc): request protocol, content-addressed result
// cache, the campaign server and its TCP transport.  The load-bearing
// property is end-to-end memoization: a repeated sweep request returns
// byte-identical results from the cache with zero new simulation work,
// including across a daemon restart, and a cold service run is
// bit-identical to the CLI's sweep().
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/journal.h"
#include "src/core/result_json.h"
#include "src/core/sweep.h"
#include "src/obs/json.h"
#include "src/obs/json_value.h"
#include "src/obs/metrics.h"
#include "src/svc/daemon.h"
#include "src/svc/ledger.h"
#include "src/svc/protocol.h"
#include "src/svc/server.h"

namespace {

using ckptsim::EngineKind;
using ckptsim::Parameters;
using ckptsim::RunResult;
using ckptsim::RunSpec;
using ckptsim::SweepJournal;
using ckptsim::SweepSeries;
using ckptsim::obs::JsonValue;
using ckptsim::svc::CampaignServer;
using ckptsim::svc::Request;
using ckptsim::svc::ServerConfig;
using ckptsim::units::kHour;
using ckptsim::units::kMinute;

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + "ckptsim_svc_" + name + "_" +
             std::to_string(::getpid()) + ".jsonl") {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

/// Thread-safe response collector; inspect only after server.drain().
struct Collector {
  std::mutex mu;
  std::vector<std::string> lines;
  [[nodiscard]] CampaignServer::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mu);
      lines.push_back(line);
    };
  }
  [[nodiscard]] JsonValue parsed(std::size_t i) const {
    JsonValue v;
    EXPECT_TRUE(ckptsim::obs::parse_json(lines.at(i), &v)) << lines.at(i);
    return v;
  }
  [[nodiscard]] std::string type(std::size_t i) const {
    const JsonValue v = parsed(i);
    const JsonValue* t = v.find("type");
    return t != nullptr ? t->scalar : "";
  }
  /// Index of the first line of `type` for campaign `id`, or lines.size().
  [[nodiscard]] std::size_t find(const std::string& type, const std::string& id) {
    const std::lock_guard<std::mutex> lock(mu);
    return find_locked(type, id);
  }
  /// Wait up to 30 s for a line of `type` for campaign `id`.
  [[nodiscard]] bool await(const std::string& type, const std::string& id) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (find_locked(type, id) < lines.size()) return true;
      }
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  [[nodiscard]] std::size_t find_locked(const std::string& type, const std::string& id) const {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      JsonValue v;
      if (!ckptsim::obs::parse_json(lines[i], &v)) continue;
      const JsonValue* t = v.find("type");
      const JsonValue* line_id = v.find("id");
      if (t != nullptr && line_id != nullptr && t->scalar == type && line_id->scalar == id) {
        return i;
      }
    }
    return lines.size();
  }
};

/// A sweep small enough for unit tests: 2 points x 2 replications over a
/// short horizon on a small machine.
const char* kTinySweep =
    R"({"op":"sweep","id":"c1","axis":"interval","values":[15,30],)"
    R"("params":{"processors":4096},)"
    R"("spec":{"reps":2,"horizon_hours":20,"transient_hours":2}})";

RunSpec tiny_spec() {
  RunSpec spec;
  spec.replications = 2;
  spec.horizon = 20.0 * kHour;
  spec.transient = 2.0 * kHour;
  return spec;
}

Parameters tiny_params() {
  Parameters p;
  p.num_processors = 4096;
  return p;
}

Parameters apply_interval(Parameters p, double minutes) {
  p.checkpoint_interval = minutes * kMinute;
  return p;
}

std::string canonical(const RunResult& r) {
  ckptsim::obs::JsonWriter w;
  ckptsim::write_run_result(w, r);
  return w.str();
}

/// The cold "point" lines of a campaign with cached:false flipped to true —
/// what a byte-identical cache hit must emit.
std::vector<std::string> as_cached(std::vector<std::string> lines) {
  const std::string cold = "\"cached\": false";
  for (std::string& line : lines) {
    const std::size_t flag = line.find(cold);
    EXPECT_NE(flag, std::string::npos) << line;
    if (flag != std::string::npos) line.replace(flag, cold.size(), "\"cached\": true");
  }
  return lines;
}

// --- Protocol -------------------------------------------------------------

TEST(SvcProtocol, ParsesMinimalSweepWithDefaults) {
  Request req;
  std::string error;
  ASSERT_TRUE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"interval"})", &req, &error))
      << error;
  EXPECT_EQ(req.op, Request::Op::kSweep);
  EXPECT_EQ(req.id, "a");
  EXPECT_EQ(req.axis, "interval");
  EXPECT_EQ(req.label, "sweep interval");  // the CLI's label => shared cache keys
  EXPECT_EQ(req.values, ckptsim::figure4_interval_axis_minutes());
  EXPECT_EQ(req.priority, 0);
  EXPECT_EQ(req.engine, EngineKind::kDes);
  EXPECT_EQ(req.spec.replications, RunSpec{}.replications);
}

TEST(SvcProtocol, ParsesParamsAndSpecWithCliUnits) {
  Request req;
  std::string error;
  ASSERT_TRUE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"processors","values":[8192],"priority":3,)"
      R"("engine":"san","label":"mine",)"
      R"("params":{"mttf_years":5,"interval_min":60,"ckpt_mb":128,"io_failures":false},)"
      R"("spec":{"reps":7,"seed":9,"horizon_hours":100,"on_failure":"skip"}})",
      &req, &error))
      << error;
  EXPECT_EQ(req.priority, 3);
  EXPECT_EQ(req.engine, EngineKind::kSan);
  EXPECT_EQ(req.label, "mine");
  EXPECT_EQ(req.values, std::vector<double>{8192.0});
  EXPECT_DOUBLE_EQ(req.params.mttf_node, 5.0 * ckptsim::units::kYear);
  EXPECT_DOUBLE_EQ(req.params.checkpoint_interval, 60.0 * kMinute);
  EXPECT_DOUBLE_EQ(req.params.checkpoint_size_per_node, 128.0 * ckptsim::units::kMB);
  EXPECT_FALSE(req.params.io_failures_enabled);
  EXPECT_EQ(req.spec.replications, 7u);
  EXPECT_EQ(req.spec.seed, 9u);
  EXPECT_DOUBLE_EQ(req.spec.horizon, 100.0 * kHour);
  EXPECT_EQ(req.spec.on_failure.mode, ckptsim::FailurePolicy::Mode::kSkip);
}

TEST(SvcProtocol, RemovedSchedulerKeyGetsItsOwnError) {
  // Every engine runs on the binary heap; a request naming a scheduler is
  // told so, with one error line, instead of "unknown spec key".
  for (const char* kind : {"heap", "calendar"}) {
    CampaignServer server(ServerConfig{});
    Collector out;
    server.handle_line(std::string(R"({"op":"sweep","id":"s","axis":"interval","values":[30],)") +
                           R"("spec":{"reps":2,"scheduler":")" + kind + R"("}})",
                       out.sink());
    ASSERT_EQ(out.lines.size(), 1u) << kind;
    EXPECT_EQ(out.type(0), "error");
    EXPECT_NE(out.lines[0].find("'scheduler' was removed"), std::string::npos) << out.lines[0];
    EXPECT_NE(out.lines[0].find("binary-heap"), std::string::npos) << out.lines[0];
  }
}

TEST(SvcProtocol, RejectsMalformedAndUnknown) {
  Request req;
  std::string error;
  // Not JSON / not an object.
  EXPECT_FALSE(ckptsim::svc::parse_request("{\"op\":", &req, &error));
  EXPECT_FALSE(ckptsim::svc::parse_request("[1,2]", &req, &error));
  // Unknown op / missing op.
  EXPECT_FALSE(ckptsim::svc::parse_request(R"({"op":"fly"})", &req, &error));
  EXPECT_NE(error.find("unknown op"), std::string::npos) << error;
  EXPECT_FALSE(ckptsim::svc::parse_request(R"({"id":"a"})", &req, &error));
  // Unknown keys are rejected at every level — a typo'd key must not
  // silently simulate the default it masked.
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"interval","seed":1})", &req, &error));
  EXPECT_NE(error.find("unknown key 'seed'"), std::string::npos) << error;
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"interval","params":{"procesors":1}})", &req, &error));
  EXPECT_NE(error.find("procesors"), std::string::npos) << error;
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"interval","spec":{"repz":3}})", &req, &error));
  // Type errors.
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"interval","values":"15"})", &req, &error));
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"interval","priority":99})", &req, &error));
  // Domain validation runs at parse time, for every materialized point.
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"interval","values":[-5]})", &req, &error));
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"interval","spec":{"reps":0}})", &req, &error));
  // Counts are whole numbers that fit their field, read from the number's
  // own text; a negative shape is an error, not "exponential".
  for (const char* bad :
       {R"("spec":{"reps":2.5})", R"("params":{"processors":-8})",
        R"("params":{"procs_per_node":4294967304})", R"("spec":{"seed":1e30})",
        R"("params":{"weibull_shape":-1})", R"("params":{"full_period":2.9})"}) {
    const std::string line =
        std::string(R"({"op":"sweep","id":"a","axis":"interval","values":[30],)") + bad + "}";
    EXPECT_FALSE(ckptsim::svc::parse_request(line, &req, &error)) << bad;
  }
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"processors","values":[-8]})", &req, &error));
  EXPECT_NE(error.find("-8"), std::string::npos) << error;
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"processors","values":[8192.5]})", &req, &error));
  // Structural requirements.
  EXPECT_FALSE(ckptsim::svc::parse_request(R"({"op":"sweep","axis":"interval"})", &req, &error));
  EXPECT_FALSE(ckptsim::svc::parse_request(R"({"op":"sweep","id":"a"})", &req, &error));
  EXPECT_FALSE(ckptsim::svc::parse_request(R"({"op":"cancel"})", &req, &error));
  // A choice key names its choices.
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"interval","engine":"x"})", &req, &error));
  EXPECT_NE(error.find("key 'engine' expects one of des|san, got 'x'"), std::string::npos)
      << error;
  EXPECT_FALSE(ckptsim::svc::parse_request(R"({"op":"sweep","id":"a","axis":"x"})", &req, &error));
  EXPECT_NE(error.find("key 'axis' expects one of interval|processors, got 'x'"),
            std::string::npos)
      << error;
  // Simple ops accept no extra keys.
  EXPECT_FALSE(ckptsim::svc::parse_request(R"({"op":"ping","axis":"interval"})", &req, &error));
}

TEST(SvcProtocol, KeepsKnobsTheRequestReads) {
  // The same keys where they act: processors on an interval sweep, the
  // optimizer's base processors and policy when it has no list for them,
  // and the sub-knobs beside their switch.
  for (const char* line : {
           R"({"op":"sweep","id":"a","axis":"interval","values":[30],)"
           R"("params":{"processors":8192}})",
           R"({"op":"sweep","id":"a","axis":"processors","values":[8192],)"
           R"("params":{"interval_min":45}})",
           R"({"op":"optimize","id":"o","grid":3,"refine":0,)"
           R"("params":{"processors":4096,"proactive_policy":"none"}})",
           R"({"op":"sweep","id":"a","axis":"interval","values":[30],)"
           R"("spec":{"rel_precision":0.05,"min_replications":9,"max_replications":12,)"
           R"("on_failure":"retry","max_retries":7}})",
       }) {
    Request req;
    std::string error;
    EXPECT_TRUE(ckptsim::svc::parse_request(line, &req, &error)) << line << ": " << error;
  }
}

TEST(SvcProtocol, CountsAreReadExactly) {
  Request req;
  std::string error;
  ASSERT_TRUE(ckptsim::svc::parse_request(
      R"({"op":"sweep","id":"a","axis":"interval","values":[30],)"
      R"("params":{"processors":6.5536e4},"spec":{"reps":2e1,"seed":18446744073709551615}})",
      &req, &error))
      << error;
  EXPECT_EQ(req.params.num_processors, 65536u);
  EXPECT_EQ(req.spec.replications, 20u);
  EXPECT_EQ(req.spec.seed, 18446744073709551615ULL);
}

TEST(SvcProtocol, SimpleOpsParse) {
  Request req;
  std::string error;
  ASSERT_TRUE(ckptsim::svc::parse_request(R"({"op":"ping"})", &req, &error)) << error;
  EXPECT_EQ(req.op, Request::Op::kPing);
  ASSERT_TRUE(ckptsim::svc::parse_request(R"({"op":"stats"})", &req, &error)) << error;
  EXPECT_EQ(req.op, Request::Op::kStats);
  ASSERT_TRUE(ckptsim::svc::parse_request(R"({"op":"shutdown"})", &req, &error)) << error;
  EXPECT_EQ(req.op, Request::Op::kShutdown);
  ASSERT_TRUE(ckptsim::svc::parse_request(R"({"op":"cancel","id":"x"})", &req, &error)) << error;
  EXPECT_EQ(req.op, Request::Op::kCancel);
  EXPECT_EQ(req.id, "x");
}

// --- Result cache ---------------------------------------------------------

RunResult run_point(double interval_min) {
  return ckptsim::run_model(apply_interval(tiny_params(), interval_min), tiny_spec());
}

TEST(SvcCache, MemoryOnlyInsertAndLookup) {
  SweepJournal cache("");
  EXPECT_FALSE(cache.persistent());
  const RunResult r = run_point(30.0);
  RunResult out;
  EXPECT_FALSE(cache.lookup(1, &out));
  cache.insert(1, 30.0, r);
  cache.insert(1, 30.0, r);  // idempotent
  ASSERT_TRUE(cache.lookup(1, &out));
  EXPECT_EQ(canonical(out), canonical(r));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SvcCache, PersistentRoundTripSurvivesReopenByteIdentically) {
  TempFile file("cache_roundtrip");
  const RunResult r15 = run_point(15.0);
  const RunResult r30 = run_point(30.0);
  {
    SweepJournal cache(file.path);
    EXPECT_TRUE(cache.persistent());
    EXPECT_EQ(cache.loaded(), 0u);
    cache.insert(100, 15.0, r15);
    cache.insert(200, 30.0, r30);
    cache.insert(100, 15.0, r15);  // duplicate never double-appends
    EXPECT_EQ(cache.size(), 2u);
  }
  SweepJournal reopened(file.path);
  EXPECT_EQ(reopened.loaded(), 2u);
  RunResult out;
  ASSERT_TRUE(reopened.lookup(100, &out));
  EXPECT_EQ(canonical(out), canonical(r15));  // %.17g round trip: bit-identical
  ASSERT_TRUE(reopened.lookup(200, &out));
  EXPECT_EQ(canonical(out), canonical(r30));
  EXPECT_FALSE(reopened.lookup(300, &out));
}

TEST(SvcCache, InsertAllAppendsEachNewFingerprintOnce) {
  TempFile file("cache_insert_all");
  const RunResult r15 = run_point(15.0);
  const RunResult r30 = run_point(30.0);
  {
    SweepJournal cache(file.path);
    cache.insert(100, 15.0, r15);
    // One batch: a fingerprint already stored and a fingerprint twice.
    cache.insert_all({{100, 15.0, r15}, {200, 30.0, r30}, {200, 30.0, r30}, {300, 15.0, r15}});
    EXPECT_EQ(cache.size(), 3u);
  }
  SweepJournal reopened(file.path);
  EXPECT_EQ(reopened.loaded(), 3u);
  RunResult out;
  ASSERT_TRUE(reopened.lookup(200, &out));
  EXPECT_EQ(canonical(out), canonical(r30));
  ASSERT_TRUE(reopened.lookup(300, &out));
  EXPECT_EQ(canonical(out), canonical(r15));
}

TEST(SvcCache, ConcurrentInsertAndLookupIsSafe) {
  TempFile file("cache_concurrent");
  SweepJournal cache(file.path);
  const RunResult r = run_point(30.0);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &r] {
      for (std::uint64_t key = 1; key <= kKeys; ++key) {
        cache.insert(key, static_cast<double>(key), r);
        RunResult out;
        (void)cache.lookup(key, &out);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  // Racing inserts of the same fingerprint must not have double-appended.
  SweepJournal reopened(file.path);
  EXPECT_EQ(reopened.loaded(), static_cast<std::size_t>(kKeys));
}

// --- Campaign server ------------------------------------------------------

TEST(SvcServer, ColdSweepMatchesDirectSweepBitIdentically) {
  CampaignServer server(ServerConfig{});
  Collector out;
  server.handle_line(kTinySweep, out.sink());
  server.drain();

  const SweepSeries direct =
      ckptsim::sweep("sweep interval", tiny_params(), {15.0, 30.0}, apply_interval, tiny_spec());

  ASSERT_EQ(out.lines.size(), 4u);
  EXPECT_EQ(out.type(0), "accepted");
  EXPECT_EQ(out.type(3), "done");
  // The streamed point lines are exactly what the canonical encoder yields
  // for the native sweep's results — the service simulated the same work.
  std::vector<std::string> expected = {
      ckptsim::svc::response_point("c1", 15.0, false, direct.points[0].result),
      ckptsim::svc::response_point("c1", 30.0, false, direct.points[1].result),
  };
  std::vector<std::string> got = {out.lines[1], out.lines[2]};
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);
}

TEST(SvcServer, RepeatedSweepIsServedFromCacheWithZeroNewWork) {
  TempFile file("server_cache");
  ServerConfig config;
  config.cache_path = file.path;
  CampaignServer server(config);
  Collector first;
  server.handle_line(kTinySweep, first.sink());
  server.drain();
  const std::uint64_t cold_replications =
      server.metrics().service().snapshot().replications_run;
  EXPECT_EQ(cold_replications, 4u);  // 2 points x 2 reps

  Collector second;
  server.handle_line(kTinySweep, second.sink());
  server.drain();
  ASSERT_EQ(second.lines.size(), 4u);
  EXPECT_EQ(second.type(0), "accepted");
  EXPECT_EQ(second.type(3), "done");
  // Byte-identical results, flipped to cached:true, and not one extra
  // replication simulated.
  std::vector<std::string> cold_points = as_cached({first.lines[1], first.lines[2]});
  std::vector<std::string> warm_points = {second.lines[1], second.lines[2]};
  std::sort(cold_points.begin(), cold_points.end());
  std::sort(warm_points.begin(), warm_points.end());
  EXPECT_EQ(warm_points, cold_points);
  EXPECT_EQ(server.metrics().service().snapshot().replications_run, cold_replications);
  EXPECT_EQ(server.metrics().service().snapshot().cache_hits, 2u);
}

TEST(SvcServer, PersistentCacheHoldsEveryPointBeforeItsLine) {
  // Concurrent campaigns on four workers finish points while the store
  // thread appends earlier ones: whenever a cold "point" line reaches a
  // client, the journal already holds a complete entry for it and for
  // every cold point line sent before it.
  TempFile file("server_store_order");
  const std::vector<std::string> requests = {
      R"({"op":"sweep","id":"a","axis":"interval","values":[15,30,60,120],)"
      R"("params":{"processors":4096},"spec":{"reps":3,"horizon_hours":40,"transient_hours":2}})",
      R"({"op":"sweep","id":"b","axis":"processors","values":[2048,4096,8192],)"
      R"("spec":{"reps":2,"horizon_hours":40,"transient_hours":2}})",
      R"({"op":"sweep","id":"c","axis":"interval","values":[20,40,80],)"
      R"("params":{"processors":8192},"spec":{"reps":2,"horizon_hours":60,"transient_hours":2}})",
  };
  std::mutex mu;
  std::size_t cold_lines = 0;
  std::vector<std::string> persisted_short;
  Collector out;
  const CampaignServer::Sink sink = [&](const std::string& line) {
    out.sink()(line);
    if (line.find("\"cached\": false") == std::string::npos) return;
    const std::lock_guard<std::mutex> lock(mu);
    ++cold_lines;
    std::ifstream in(file.path);
    std::size_t entries = 0;
    std::string entry;
    while (std::getline(in, entry)) entries += in.eof() ? 0 : 1;
    if (entries < cold_lines) persisted_short.push_back(line);
  };
  ServerConfig config;
  config.workers = 4;
  config.cache_path = file.path;
  {
    CampaignServer server(config);
    for (const std::string& request : requests) server.handle_line(request, sink);
    server.drain();
    server.stop();
  }
  EXPECT_EQ(cold_lines, 10u);
  EXPECT_TRUE(persisted_short.empty()) << persisted_short.size() << " line(s), first: "
                                       << persisted_short.front();

  // The same requests on a memory-only server stream the same point lines.
  Collector memory;
  {
    CampaignServer server(ServerConfig{});
    for (const std::string& request : requests) server.handle_line(request, memory.sink());
    server.drain();
  }
  const auto points = [](const std::vector<std::string>& lines) {
    std::vector<std::string> kept;
    for (const std::string& line : lines) {
      if (line.find("\"type\": \"point\"") != std::string::npos) kept.push_back(line);
    }
    std::sort(kept.begin(), kept.end());
    return kept;
  };
  EXPECT_EQ(points(out.lines), points(memory.lines));
  EXPECT_EQ(SweepJournal(file.path).loaded(), 10u);
}

TEST(SvcServer, CacheSurvivesServerRestart) {
  TempFile file("server_restart");
  std::vector<std::string> cold_points;
  {
    ServerConfig config;
    config.cache_path = file.path;
    CampaignServer server(config);
    Collector out;
    server.handle_line(kTinySweep, out.sink());
    server.drain();
    cold_points = {out.lines.at(1), out.lines.at(2)};
    server.stop();
  }
  ServerConfig config;
  config.cache_path = file.path;
  CampaignServer restarted(config);
  EXPECT_EQ(restarted.cache().loaded(), 2u);
  Collector out;
  restarted.handle_line(kTinySweep, out.sink());
  restarted.drain();
  ASSERT_EQ(out.lines.size(), 4u);
  const JsonValue accepted = out.parsed(0);
  ASSERT_NE(accepted.find("cached"), nullptr);
  EXPECT_EQ(accepted.find("cached")->uint(), 2u);
  EXPECT_EQ(restarted.metrics().service().snapshot().replications_run, 0u);
  std::vector<std::string> warm_points = {out.lines[1], out.lines[2]};
  cold_points = as_cached(std::move(cold_points));
  std::sort(cold_points.begin(), cold_points.end());
  std::sort(warm_points.begin(), warm_points.end());
  EXPECT_EQ(warm_points, cold_points);
}

TEST(SvcServer, SweepWithProactiveParametersIsRejectedUpFront) {
  // The sweep op runs the base engines: proactive parameters are one error
  // line, before the ledger or the cache is touched.
  TempFile cache("proactive_cache");
  TempFile ledger("proactive_ledger");
  ServerConfig config;
  config.cache_path = cache.path;
  config.ledger_path = ledger.path;
  CampaignServer server(config);
  Collector out;
  server.handle_line(
      R"({"op":"sweep","id":"p1","axis":"interval","values":[15,30],)"
      R"("params":{"processors":4096,"proactive_policy":"migrate","predictor_recall":0.9},)"
      R"("spec":{"reps":2,"horizon_hours":20,"transient_hours":2}})",
      out.sink());
  server.drain();
  ASSERT_EQ(out.lines.size(), 1u);
  EXPECT_EQ(out.type(0), "error");
  EXPECT_NE(out.lines[0].find("sweep: proactive"), std::string::npos) << out.lines[0];
  EXPECT_EQ(server.cache().size(), 0u);
  EXPECT_EQ(server.metrics().service().snapshot().replications_run, 0u);
  server.stop();
  EXPECT_TRUE(ckptsim::svc::CampaignLedger(ledger.path).pending().empty());
}

/// kTinySweep's single point over a failure trace at `trace`.
std::string trace_sweep(const std::string& trace) {
  return R"({"op":"sweep","id":"t1","axis":"interval","values":[30],)"
         R"("params":{"processors":4096,"failure_trace":")" +
         trace + R"("},"spec":{"reps":2,"horizon_hours":20,"transient_hours":2}})";
}

TEST(SvcServer, RewrittenFailureTraceMissesTheCache) {
  // The cache keys on the trace's contents, not its path.
  TempFile cache("trace_cache");
  const std::string trace = cache.path + ".csv";
  const auto write_trace = [&trace](const std::string& text) {
    std::ofstream(trace, std::ios::binary) << text;
  };
  ServerConfig config;
  config.cache_path = cache.path;
  CampaignServer server(config);
  const auto point_line = [&server, &trace] {
    Collector out;
    server.handle_line(trace_sweep(trace), out.sink());
    server.drain();
    EXPECT_EQ(out.lines.size(), 3u);
    return out.lines.size() == 3 ? out.lines[1] : std::string();
  };
  write_trace("0,7200\n5,20000\n");
  const std::string cold = point_line();
  EXPECT_NE(point_line().find("\"cached\": true"), std::string::npos);
  write_trace("0,7200\n5,20000\n7,40000\n");
  const std::string rewritten = point_line();
  EXPECT_NE(rewritten.find("\"cached\": false"), std::string::npos) << rewritten;
  EXPECT_NE(rewritten, as_cached({cold})[0]);
  std::remove(trace.c_str());
}

TEST(SvcServer, UnreadableFailureTraceIsAnErrorLine) {
  CampaignServer server(ServerConfig{});
  Collector out;
  server.handle_line(trace_sweep("/nonexistent/ckptsim-trace.csv"), out.sink());
  server.drain();
  ASSERT_EQ(out.lines.size(), 1u);
  EXPECT_EQ(out.type(0), "error");
  EXPECT_NE(out.lines[0].find("failure trace"), std::string::npos) << out.lines[0];
}

TEST(SvcServer, ExponentRepsRunThatManyReplications) {
  CampaignServer server(ServerConfig{});
  Collector out;
  server.handle_line(
      R"({"op":"sweep","id":"e","axis":"interval","values":[30],"params":{"processors":4096},)"
      R"("spec":{"reps":2e1,"horizon_hours":5,"transient_hours":1}})",
      out.sink());
  server.drain();
  ASSERT_EQ(out.lines.size(), 3u);
  ASSERT_EQ(out.type(1), "point");
  const JsonValue point = out.parsed(1);
  const JsonValue* samples = point.find("result")->find("ci")->find("samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_EQ(samples->uint(), 20u);
}

TEST(SvcServer, NegativeProcessorAxisValueIsOneErrorLine) {
  CampaignServer server(ServerConfig{});
  Collector out;
  server.handle_line(R"({"op":"sweep","id":"n","axis":"processors","values":[-8]})", out.sink());
  server.drain();
  ASSERT_EQ(out.lines.size(), 1u);
  EXPECT_EQ(out.type(0), "error");
}

TEST(SvcServer, AdaptiveCampaignMatchesAdaptiveSweep) {
  CampaignServer server(ServerConfig{});
  Collector out;
  server.handle_line(
      R"({"op":"sweep","id":"ad","axis":"interval","values":[15,30],)"
      R"("params":{"processors":4096},)"
      R"("spec":{"horizon_hours":20,"transient_hours":2,)"
      R"("rel_precision":0.5,"min_replications":3,"max_replications":9}})",
      out.sink());
  server.drain();

  RunSpec spec = tiny_spec();
  spec.sequential.rel_precision = 0.5;
  spec.sequential.min_replications = 3;
  spec.sequential.max_replications = 9;
  const SweepSeries direct =
      ckptsim::sweep("sweep interval", tiny_params(), {15.0, 30.0}, apply_interval, spec);

  ASSERT_EQ(out.lines.size(), 4u);
  std::vector<std::string> expected = {
      ckptsim::svc::response_point("ad", 15.0, false, direct.points[0].result),
      ckptsim::svc::response_point("ad", 30.0, false, direct.points[1].result),
  };
  std::vector<std::string> got = {out.lines[1], out.lines[2]};
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);  // same rounds, same replication counts, same bits
}

TEST(SvcServer, AdmissionControlRejectsWhenQueueIsFull) {
  ServerConfig config;
  config.workers = 1;
  config.max_queue_depth = 1;
  CampaignServer server(config);
  Collector out;
  // Long enough to still be in flight when the second request lands.
  server.handle_line(
      R"({"op":"sweep","id":"long","axis":"interval","values":[30],)"
      R"("params":{"processors":8192},"spec":{"reps":4,"horizon_hours":500,"transient_hours":10}})",
      out.sink());
  Collector rejected;
  server.handle_line(kTinySweep, rejected.sink());
  ASSERT_EQ(rejected.lines.size(), 1u);
  const JsonValue line = rejected.parsed(0);
  ASSERT_NE(line.find("type"), nullptr);
  EXPECT_EQ(line.find("type")->scalar, "rejected");
  EXPECT_EQ(line.find("id")->scalar, "c1");
  EXPECT_EQ(line.find("max_queue_depth")->uint(), 1u);
  server.stop();
  EXPECT_EQ(server.metrics().service().snapshot().rejected, 1u);
}

TEST(SvcServer, CancelDropsQueuedWorkAndAcks) {
  ServerConfig config;
  config.workers = 1;
  CampaignServer server(config);
  Collector out;
  server.handle_line(
      R"({"op":"sweep","id":"victim","axis":"interval","values":[15,30,60,120],)"
      R"("params":{"processors":8192},"spec":{"reps":4,"horizon_hours":500,"transient_hours":10}})",
      out.sink());
  Collector canceller;
  server.handle_line(R"({"op":"cancel","id":"victim"})", canceller.sink());
  ASSERT_EQ(canceller.lines.size(), 1u);
  EXPECT_EQ(canceller.type(0), "cancelled");
  server.drain();
  // The campaign's own stream also terminates with a cancelled line.
  ASSERT_FALSE(out.lines.empty());
  EXPECT_EQ(out.type(out.lines.size() - 1), "cancelled");
  // Cancelling a campaign that no longer exists is a structured error.
  Collector again;
  server.handle_line(R"({"op":"cancel","id":"victim"})", again.sink());
  ASSERT_EQ(again.lines.size(), 1u);
  EXPECT_EQ(again.type(0), "error");
  const JsonValue err = again.parsed(0);
  ASSERT_NE(err.find("code"), nullptr);
  EXPECT_EQ(err.find("code")->scalar, "unknown_campaign");
}

TEST(SvcServer, CancelOfUnknownOrCompletedCampaignIsStructuredError) {
  ServerConfig config;
  config.workers = 1;
  CampaignServer server(config);
  // Never-submitted id.
  Collector unknown;
  server.handle_line(R"({"op":"cancel","id":"never-submitted"})", unknown.sink());
  ASSERT_EQ(unknown.lines.size(), 1u);
  EXPECT_EQ(unknown.type(0), "error");
  const JsonValue u = unknown.parsed(0);
  ASSERT_NE(u.find("code"), nullptr);
  EXPECT_EQ(u.find("code")->scalar, "unknown_campaign");
  EXPECT_EQ(u.find("id")->scalar, "never-submitted");
  // A campaign that ran to completion is indistinguishable from a
  // never-submitted id: retired campaigns leave the active list.
  Collector out;
  server.handle_line(kTinySweep, out.sink());
  server.drain();
  ASSERT_FALSE(out.lines.empty());
  EXPECT_EQ(out.type(out.lines.size() - 1), "done");
  Collector completed;
  server.handle_line(R"({"op":"cancel","id":"c1"})", completed.sink());
  ASSERT_EQ(completed.lines.size(), 1u);
  EXPECT_EQ(completed.type(0), "error");
  const JsonValue c = completed.parsed(0);
  ASSERT_NE(c.find("code"), nullptr);
  EXPECT_EQ(c.find("code")->scalar, "unknown_campaign");
  // No cancellation was counted — both were errors.
  EXPECT_EQ(server.metrics().service().snapshot().cancelled, 0u);
}

TEST(SvcServer, HigherPriorityCampaignOvertakesOnSharedPool) {
  const std::string bulk =
      R"({"op":"sweep","id":"bulk","axis":"interval","values":[15,30,60],)"
      R"("params":{"processors":4096},"spec":{"reps":3,"horizon_hours":40,"transient_hours":2}})";
  const std::string urgent =
      R"({"op":"sweep","id":"urgent","priority":5,"axis":"interval","values":[240],)"
      R"("params":{"processors":4096},"spec":{"reps":1,"horizon_hours":20,"transient_hours":2}})";
  // The one worker delivers bulk's first point line and, inside the sink,
  // submits `urgent`: it is held there until urgent is admitted, so bulk
  // still has 6 queued replications when urgent arrives.  When this thread
  // delivers that line instead (it was still flushing bulk's "accepted"),
  // the worker was never held, and the scenario is set up again.
  const std::thread::id submitter = std::this_thread::get_id();
  for (int attempt = 0; attempt < 20; ++attempt) {
    ServerConfig config;
    config.workers = 1;
    CampaignServer server(config);
    Collector all;  // one shared sink: global emission order is observable
    std::atomic<bool> first_point{true};
    std::atomic<bool> held{false};
    CampaignServer::Sink sink;
    sink = [&](const std::string& line) {
      all.sink()(line);
      JsonValue v;
      if (!first_point.load() || !ckptsim::obs::parse_json(line, &v)) return;
      const JsonValue* type = v.find("type");
      const JsonValue* id = v.find("id");
      if (type == nullptr || id == nullptr || type->scalar != "point" || id->scalar != "bulk") {
        return;
      }
      if (!first_point.exchange(false) || std::this_thread::get_id() == submitter) return;
      held = true;
      server.handle_line(urgent, sink);
    };
    server.handle_line(bulk, sink);
    server.drain();
    if (!held.load()) continue;
    std::size_t urgent_done = all.lines.size();
    std::size_t bulk_done = all.lines.size();
    for (std::size_t i = 0; i < all.lines.size(); ++i) {
      if (all.type(i) != "done") continue;
      const JsonValue v = all.parsed(i);
      ASSERT_NE(v.find("id"), nullptr);
      if (v.find("id")->scalar == "urgent") urgent_done = i;
      if (v.find("id")->scalar == "bulk") bulk_done = i;
    }
    ASSERT_LT(urgent_done, all.lines.size());
    ASSERT_LT(bulk_done, all.lines.size());
    EXPECT_LT(urgent_done, bulk_done);
    return;
  }
  FAIL() << "the worker never delivered bulk's first point line";
}

TEST(SvcServer, ReadmitRetiresLedgerLinesThatNoLongerParse) {
  // Pending lines this build rejects (a fractional count, the removed
  // scheduler key) get their error once and are retired; a line turned
  // away for capacity stays pending and is not counted as re-admitted.
  TempFile ledger("readmit_ledger");
  {
    ckptsim::svc::CampaignLedger seed(ledger.path);
    seed.admit("reps", R"({"op":"sweep","id":"reps","axis":"interval","values":[30],)"
                       R"("spec":{"reps":2.7}})");
    seed.admit("sched", R"({"op":"sweep","id":"sched","axis":"interval","values":[30],)"
                        R"("spec":{"reps":2,"scheduler":"calendar"}})");
    seed.admit("c1", kTinySweep);
  }
  ServerConfig full;
  full.ledger_path = ledger.path;
  full.max_queue_depth = 0;  // every campaign is turned away
  for (const std::size_t errors : {2u, 0u}) {
    CampaignServer server(full);
    Collector out;
    EXPECT_EQ(server.readmit_pending(out.sink()), 0u);
    server.stop();
    ASSERT_EQ(out.lines.size(), errors + 1);
    for (std::size_t i = 0; i < errors; ++i) EXPECT_EQ(out.type(i), "error");
    EXPECT_EQ(out.type(errors), "rejected");
  }
  std::ifstream in(ledger.path);
  std::string line, last;
  while (std::getline(in, line)) last = line;
  JsonValue record;
  ASSERT_TRUE(ckptsim::obs::parse_json(last, &record)) << last;
  ASSERT_NE(record.find("event"), nullptr);
  EXPECT_EQ(record.find("event")->scalar, "retire");
  EXPECT_EQ(record.find("id")->scalar, "sched");

  ServerConfig roomy;
  roomy.ledger_path = ledger.path;
  CampaignServer server(roomy);
  Collector out;
  EXPECT_EQ(server.readmit_pending(out.sink()), 1u);
  server.drain();
  EXPECT_EQ(out.type(out.lines.size() - 1), "done");
  EXPECT_TRUE(ckptsim::svc::CampaignLedger(ledger.path).pending().empty());
}

TEST(SvcServer, ReadmitRetiresLedgerLinesWithKnobsThatWereIgnored) {
  // A campaign an older build admitted while silently ignoring a knob (an
  // overridden axis field, a sub-knob without its switch) is answered
  // with one error on restart and retired, not re-run.
  TempFile ledger("readmit_knobs_ledger");
  {
    ckptsim::svc::CampaignLedger seed(ledger.path);
    seed.admit("axis", R"({"op":"sweep","id":"axis","axis":"interval","values":[30],)"
                       R"("params":{"interval_min":45},"spec":{"reps":2}})");
    seed.admit("bounds", R"({"op":"sweep","id":"bounds","axis":"interval","values":[30],)"
                         R"("spec":{"reps":2,"min_replications":9}})");
  }
  ServerConfig config;
  config.ledger_path = ledger.path;
  CampaignServer server(config);
  Collector out;
  EXPECT_EQ(server.readmit_pending(out.sink()), 0u);
  server.stop();
  ASSERT_EQ(out.lines.size(), 2u);
  EXPECT_EQ(out.type(0), "error");
  EXPECT_EQ(out.type(1), "error");
  EXPECT_EQ(server.metrics().service().snapshot().replications_run, 0u);
  EXPECT_TRUE(ckptsim::svc::CampaignLedger(ledger.path).pending().empty());
}

TEST(SvcServer, MalformedLinesGetErrorResponses) {
  CampaignServer server(ServerConfig{});
  Collector out;
  server.handle_line("this is not json", out.sink());
  server.handle_line(R"({"op":"sweep","id":"a","axis":"bogus"})", out.sink());
  server.handle_line("", out.sink());  // blank lines are ignored, not errors
  ASSERT_EQ(out.lines.size(), 2u);
  EXPECT_EQ(out.type(0), "error");
  EXPECT_EQ(out.type(1), "error");
  const auto stats = server.metrics().service().snapshot();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST(SvcServer, PingStatsAndShutdown) {
  CampaignServer server(ServerConfig{});
  Collector out;
  server.handle_line(R"({"op":"ping"})", out.sink());
  server.handle_line(R"({"op":"stats"})", out.sink());
  EXPECT_FALSE(server.shutdown_requested());
  server.handle_line(R"({"op":"shutdown"})", out.sink());
  EXPECT_TRUE(server.shutdown_requested());
  ASSERT_EQ(out.lines.size(), 3u);
  EXPECT_EQ(out.type(0), "pong");
  EXPECT_EQ(out.type(1), "stats");
  EXPECT_EQ(out.type(2), "bye");
  const JsonValue stats = out.parsed(1);
  ASSERT_NE(stats.find("requests"), nullptr);
  EXPECT_EQ(stats.find("requests")->uint(), 2u);  // ping + stats itself
}

TEST(SvcProtocol, ParsesInterferenceRequest) {
  Request req;
  std::string error;
  ASSERT_TRUE(ckptsim::svc::parse_request(
      R"({"op":"interference","id":"ix","jobs":"a:procs=4096;b:procs=8192,interval_min=15",)"
      R"("policy":"fcfs","pfs_mbs":2000,"spec":{"reps":2,"horizon_hours":12}})",
      &req, &error))
      << error;
  EXPECT_EQ(req.op, Request::Op::kInterference);
  ASSERT_EQ(req.mix.jobs.size(), 2u);
  EXPECT_EQ(req.mix.jobs[0].params.num_processors, 4096u);
  EXPECT_EQ(req.mix.jobs[1].params.num_processors, 8192u);
  EXPECT_EQ(req.mix.pfs.policy, ckptsim::platform::PfsPolicy::kFcfs);
  EXPECT_DOUBLE_EQ(req.mix.pfs.bandwidth, 2000.0 * ckptsim::units::kMB);
  EXPECT_EQ(req.spec.replications, 2u);
  // Rejections: missing jobs, bad policy (a removed alias too), bad mix.
  EXPECT_FALSE(ckptsim::svc::parse_request(R"({"op":"interference","id":"x"})", &req, &error));
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"interference","id":"x","jobs":"a","policy":"bogus"})", &req, &error));
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"interference","id":"x","jobs":"a","policy":"fair-share"})", &req, &error));
  EXPECT_EQ(error, "key 'policy' expects one of fair|fcfs|coop|stagger, got 'fair-share'");
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"interference","id":"x","jobs":"a:nope=1"})", &req, &error));
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"interference","jobs":"a"})", &req, &error));  // id required
}

TEST(SvcServer, InterferenceRequestStreamsJobAndPlatformLines) {
  ServerConfig config;
  config.workers = 1;
  CampaignServer server(config);
  Collector out;
  server.handle_line(
      R"({"op":"interference","id":"ix","jobs":"a:procs=4096;b:procs=8192,interval_min=15",)"
      R"("spec":{"reps":2,"horizon_hours":12,"transient_hours":1}})",
      out.sink());
  server.drain();
  // accepted, one "job" line per job, one "platform", done.
  ASSERT_EQ(out.lines.size(), 5u);
  EXPECT_EQ(out.type(0), "accepted");
  EXPECT_EQ(out.type(1), "job");
  EXPECT_EQ(out.type(2), "job");
  EXPECT_EQ(out.type(3), "platform");
  EXPECT_EQ(out.type(4), "done");
  const JsonValue job = out.parsed(1);
  ASSERT_NE(job.find("name"), nullptr);
  EXPECT_EQ(job.find("name")->scalar, "a");
  ASSERT_NE(job.find("useful_fraction"), nullptr);
  EXPECT_GT(job.find("useful_fraction")->number(), 0.0);
  const JsonValue platform = out.parsed(3);
  ASSERT_NE(platform.find("pfs_utilization"), nullptr);
  EXPECT_GT(platform.find("pfs_utilization")->number(), 0.0);
  ASSERT_NE(platform.find("policy"), nullptr);
  EXPECT_EQ(platform.find("policy")->scalar, "fair");
}

TEST(SvcServer, InterferenceRequestRejectsIgnoredKnobWithErrorLine) {
  ServerConfig config;
  config.workers = 1;
  CampaignServer server(config);
  Collector out;
  server.handle_line(
      R"({"op":"interference","id":"ix","jobs":"a:procs=4096;b:procs=8192",)"
      R"("spec":{"reps":2,"horizon_hours":12,"on_failure":"skip"}})",
      out.sink());
  server.drain();
  ASSERT_EQ(out.lines.size(), 2u);
  EXPECT_EQ(out.type(0), "accepted");
  EXPECT_EQ(out.type(1), "error");
  EXPECT_NE(out.lines[1].find("on_failure"), std::string::npos) << out.lines[1];
}

TEST(SvcServer, MultiJobInterferenceRejectsUnmodelledFieldAtParse) {
  ServerConfig config;
  config.workers = 1;
  CampaignServer server(config);
  Collector out;
  server.handle_line(
      R"({"op":"interference","id":"ix","jobs":"a:procs=4096;b:procs=8192",)"
      R"("params":{"prob_correlated":0.5},"spec":{"reps":2,"horizon_hours":12}})",
      out.sink());
  ASSERT_EQ(out.lines.size(), 1u);
  EXPECT_EQ(out.type(0), "error");
  EXPECT_NE(out.lines[0].find("prob_correlated"), std::string::npos) << out.lines[0];
}

TEST(SvcServer, OptimizeRequestRejectsIgnoredKnobWithErrorLine) {
  // A proactive candidate runs under run_proactive, which has no retry.
  ServerConfig config;
  config.workers = 1;
  CampaignServer server(config);
  Collector out;
  server.handle_line(
      R"({"op":"optimize","id":"opt","grid":3,"refine":0,"policies":["migrate"],)"
      R"("params":{"processors":8192,"predictor_recall":0.5},)"
      R"("spec":{"reps":2,"horizon_hours":12,"on_failure":"retry"}})",
      out.sink());
  server.drain();
  ASSERT_EQ(out.lines.size(), 2u);
  EXPECT_EQ(out.type(0), "accepted");
  EXPECT_EQ(out.type(1), "error");
  EXPECT_NE(out.lines[1].find("on_failure"), std::string::npos) << out.lines[1];
}

TEST(SvcServer, RepeatedOptimizeIsServedFromTheCache) {
  // Every candidate is a cached point: a resubmit, and a server restarted
  // on the same file, answer the op without simulating.
  TempFile file("optimize_cache");
  const auto request = [](const std::string& id) {
    return R"({"op":"optimize","id":")" + id + R"(","grid":3,"refine":1,)"
           R"("params":{"processors":8192},)"
           R"("spec":{"reps":2,"horizon_hours":12,"transient_hours":1}})";
  };
  // The op's candidate and optimum lines with its id taken out.
  const auto answer = [](const Collector& out, const std::string& id) {
    const std::string tag = R"("id": ")" + id + R"(", )";
    std::vector<std::string> kept;
    for (const std::string& line : out.lines) {
      if (line.find(R"("type": "candidate")") == std::string::npos &&
          line.find(R"("type": "optimum")") == std::string::npos) {
        continue;
      }
      std::string bare = line;
      const std::size_t at = bare.find(tag);
      EXPECT_NE(at, std::string::npos) << line;
      if (at != std::string::npos) bare.erase(at, tag.size());
      kept.push_back(bare);
    }
    return kept;
  };
  // The "cached" count of the op's done line.
  const auto done_cached = [](Collector& out, const std::string& id) {
    const std::size_t at = out.find("done", id);
    if (at == out.lines.size()) return std::string("no done line");
    const JsonValue done = out.parsed(at);
    const JsonValue* cached = done.find("cached");
    return cached != nullptr ? cached->scalar : std::string("no cached key");
  };
  ServerConfig config;
  config.workers = 2;
  config.cache_path = file.path;
  std::vector<std::string> cold;
  std::uint64_t candidates = 0;
  {
    CampaignServer server(config);
    Collector first;
    server.handle_line(request("o1"), first.sink());
    server.drain();
    cold = answer(first, "o1");
    ASSERT_GT(cold.size(), 1u);
    candidates = cold.size() - 1;  // every line but the optimum names a candidate
    const std::uint64_t simulated = server.metrics().snapshot().replications;
    EXPECT_GT(simulated, 0u);
    ckptsim::obs::ServiceSnapshot svc = server.metrics().service().snapshot();
    EXPECT_EQ(svc.cache_misses, candidates);
    EXPECT_EQ(svc.cache_hits, 0u);
    EXPECT_EQ(svc.replications_run, simulated);
    EXPECT_EQ(done_cached(first, "o1"), "0");
    Collector second;
    server.handle_line(request("o2"), second.sink());
    server.drain();
    EXPECT_EQ(answer(second, "o2"), cold);
    EXPECT_EQ(server.metrics().snapshot().replications, simulated);
    svc = server.metrics().service().snapshot();
    EXPECT_EQ(svc.cache_hits, candidates);
    EXPECT_EQ(svc.cache_misses, candidates);
    EXPECT_EQ(svc.replications_run, simulated);
    EXPECT_EQ(done_cached(second, "o2"), std::to_string(candidates));
  }
  CampaignServer restarted(config);
  EXPECT_EQ(restarted.cache().loaded(), candidates);
  Collector third;
  restarted.handle_line(request("o3"), third.sink());
  restarted.drain();
  EXPECT_EQ(answer(third, "o3"), cold);
  EXPECT_EQ(restarted.metrics().snapshot().replications, 0u);
  const ckptsim::obs::ServiceSnapshot svc = restarted.metrics().service().snapshot();
  EXPECT_EQ(svc.cache_hits, candidates);
  EXPECT_EQ(svc.cache_misses, 0u);
  EXPECT_EQ(svc.replications_run, 0u);
  EXPECT_EQ(done_cached(third, "o3"), std::to_string(candidates));
}

TEST(SvcServer, DuplicateActiveCampaignIdIsRejected) {
  ServerConfig config;
  config.workers = 1;
  CampaignServer server(config);
  Collector out;
  server.handle_line(
      R"({"op":"sweep","id":"dup","axis":"interval","values":[30],)"
      R"("params":{"processors":8192},"spec":{"reps":4,"horizon_hours":500,"transient_hours":10}})",
      out.sink());
  Collector second;
  server.handle_line(
      R"({"op":"sweep","id":"dup","axis":"interval","values":[60],)"
      R"("params":{"processors":8192},"spec":{"reps":1,"horizon_hours":20,"transient_hours":2}})",
      second.sink());
  ASSERT_EQ(second.lines.size(), 1u);
  EXPECT_EQ(second.type(0), "error");
  server.stop();
}

// --- Ops on the shared pool --------------------------------------------------

/// An interference op of 4 replications of two jobs over 50000 h: long
/// enough to still be running while a test acts on it.
std::string long_op(const std::string& id) {
  return R"({"op":"interference","id":")" + id +
         R"(","jobs":"a:procs=4096;b:procs=8192,interval_min=15",)"
         R"("spec":{"reps":4,"horizon_hours":50000,"transient_hours":1}})";
}

/// A priority-5 sweep of 8 replications over 50000 h that keeps a
/// 1-worker server busy while priority-0 work queues behind it.
std::string blocker_sweep(const std::string& id) {
  return R"({"op":"sweep","id":")" + id +
         R"(","priority":5,"axis":"interval","values":[30],"params":{"processors":8192},)"
         R"("spec":{"reps":8,"horizon_hours":50000,"transient_hours":10}})";
}

TEST(SvcServer, OpAndSweepIdsCollideWhileEitherIsActive) {
  ServerConfig config;
  config.workers = 1;
  CampaignServer server(config);
  Collector out;
  // An op named like an active sweep is turned away...
  server.handle_line(blocker_sweep("dup"), out.sink());
  Collector op;
  server.handle_line(long_op("dup"), op.sink());
  ASSERT_EQ(op.lines.size(), 1u);
  EXPECT_EQ(op.type(0), "error");
  EXPECT_NE(op.lines[0].find("already active"), std::string::npos) << op.lines[0];
  // ...and so is a sweep named like an active op, queued behind "dup".
  Collector running;
  server.handle_line(long_op("busy"), running.sink());
  ASSERT_TRUE(running.await("accepted", "busy"));
  Collector sweep;
  server.handle_line(R"({"op":"sweep","id":"busy","axis":"interval","values":[30]})",
                     sweep.sink());
  ASSERT_EQ(sweep.lines.size(), 1u);
  EXPECT_EQ(sweep.type(0), "error");
  EXPECT_NE(sweep.lines[0].find("already active"), std::string::npos) << sweep.lines[0];
  Collector canceller;
  server.handle_line(R"({"op":"cancel","id":"busy"})", canceller.sink());
  server.handle_line(R"({"op":"cancel","id":"dup"})", canceller.sink());
  server.drain();
  EXPECT_EQ(running.type(running.lines.size() - 1), "cancelled");
}

TEST(SvcServer, OpsCountTowardMaxQueue) {
  ServerConfig config;
  config.workers = 1;
  config.max_queue_depth = 1;
  CampaignServer server(config);
  // A running op fills the queue for a sweep...
  Collector op;
  server.handle_line(long_op("op"), op.sink());
  ASSERT_TRUE(op.await("accepted", "op"));
  Collector sweep;
  server.handle_line(kTinySweep, sweep.sink());
  ASSERT_EQ(sweep.lines.size(), 1u);
  ASSERT_EQ(sweep.type(0), "rejected");
  const JsonValue rejected = sweep.parsed(0);
  ASSERT_NE(rejected.find("max_queue_depth"), nullptr);
  EXPECT_EQ(rejected.find("max_queue_depth")->uint(), 1u);
  Collector canceller;
  server.handle_line(R"({"op":"cancel","id":"op"})", canceller.sink());
  server.drain();
  EXPECT_EQ(op.type(op.lines.size() - 1), "cancelled");
  // ...and a running sweep for an op.
  Collector blocker;
  server.handle_line(blocker_sweep("sweep"), blocker.sink());
  Collector turned_away;
  server.handle_line(long_op("op2"), turned_away.sink());
  ASSERT_EQ(turned_away.lines.size(), 1u);
  EXPECT_EQ(turned_away.type(0), "rejected");
  server.stop();
  EXPECT_EQ(server.metrics().service().snapshot().rejected, 2u);
}

TEST(SvcServer, CancelOfARunningOpEndsItsStreamCancelled) {
  // The op's replications queue behind a priority-5 sweep on the one
  // worker, so none of them has started when the cancel drops them: the
  // op ends before the sweep does, which it could not if any of its
  // replications still had to run.
  ServerConfig config;
  config.workers = 1;
  CampaignServer server(config);
  Collector all;  // one sink: global emission order is observable
  server.handle_line(blocker_sweep("blocker"), all.sink());
  server.handle_line(long_op("op"), all.sink());
  ASSERT_TRUE(all.await("accepted", "op"));
  Collector canceller;
  server.handle_line(R"({"op":"cancel","id":"op"})", canceller.sink());
  ASSERT_EQ(canceller.lines.size(), 1u);
  EXPECT_EQ(canceller.type(0), "cancelled");
  server.drain();
  const std::size_t op_cancelled = all.find("cancelled", "op");
  const std::size_t blocker_done = all.find("done", "blocker");
  ASSERT_LT(op_cancelled, all.lines.size());
  ASSERT_LT(blocker_done, all.lines.size());
  EXPECT_LT(op_cancelled, blocker_done);
  EXPECT_EQ(all.find("job", "op"), all.lines.size());
  EXPECT_EQ(all.find("done", "op"), all.lines.size());
  EXPECT_EQ(server.metrics().service().snapshot().cancelled, 1u);
}

TEST(SvcServer, CancelledSweepAndOpLeaveTheLedger) {
  // A cancel interrupts a campaign as a drain does, but its client wants
  // no more of it: a cancelled sweep or op is retired, not left pending
  // for the next start to simulate again.  Both run on the one worker, so
  // the sweep has points that have not started when the cancels come.
  const TempFile ledger("cancel_ledger");
  ServerConfig config;
  config.workers = 1;
  config.ledger_path = ledger.path;
  {
    CampaignServer server(config);
    Collector all;
    server.handle_line(
        R"({"op":"sweep","id":"sweep","axis":"interval","values":[30,60,90],)"
        R"("params":{"processors":8192},)"
        R"("spec":{"reps":4,"horizon_hours":50000,"transient_hours":10}})",
        all.sink());
    server.handle_line(
        R"({"op":"optimize","id":"opt","grid":5,"refine":2,"params":{"processors":4096},)"
        R"("spec":{"reps":2,"horizon_hours":100000,"transient_hours":10}})",
        all.sink());
    ASSERT_TRUE(all.await("accepted", "sweep"));
    ASSERT_TRUE(all.await("accepted", "opt"));
    Collector canceller;
    server.handle_line(R"({"op":"cancel","id":"sweep"})", canceller.sink());
    server.handle_line(R"({"op":"cancel","id":"opt"})", canceller.sink());
    ASSERT_TRUE(all.await("cancelled", "sweep"));
    ASSERT_TRUE(all.await("cancelled", "opt"));
    server.drain();
    EXPECT_EQ(all.find("done", "sweep"), all.lines.size());
    EXPECT_EQ(all.find("optimum", "opt"), all.lines.size());
    EXPECT_EQ(server.metrics().service().snapshot().cancelled, 2u);
  }
  EXPECT_TRUE(ckptsim::svc::CampaignLedger(ledger.path).pending().empty());
}

TEST(SvcServer, DrainMidOpEndsItsStreamDraining) {
  ServerConfig config;
  config.workers = 1;
  CampaignServer server(config);
  Collector all;
  server.handle_line(blocker_sweep("blocker"), all.sink());
  server.handle_line(long_op("op"), all.sink());
  ASSERT_TRUE(all.await("accepted", "op"));
  server.begin_drain();
  // The blocker's queued replications were dropped; its running one ends.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!server.drained() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(server.drained());
  ASSERT_FALSE(all.lines.empty());
  EXPECT_LT(all.find("draining", "op"), all.lines.size());
  EXPECT_EQ(all.find("done", "op"), all.lines.size());
  server.stop();
  EXPECT_EQ(all.find("done", "blocker"), all.lines.size());
}

TEST(SvcServer, OpRunsBehindAHigherPrioritySweepOnTheSharedPool) {
  ServerConfig config;
  config.workers = 1;
  CampaignServer server(config);
  Collector all;
  server.handle_line(
      R"({"op":"sweep","id":"urgent","priority":5,"axis":"interval","values":[15,30],)"
      R"("params":{"processors":8192},"spec":{"reps":2,"horizon_hours":20000,"transient_hours":10}})",
      all.sink());
  // The op's priority-0 replications queue behind the sweep's on the one
  // worker.
  server.handle_line(
      R"({"op":"interference","id":"op","jobs":"a:procs=4096;b:procs=8192,interval_min=15",)"
      R"("spec":{"reps":2,"horizon_hours":12,"transient_hours":1}})",
      all.sink());
  server.drain();
  const std::size_t urgent_done = all.find("done", "urgent");
  const std::size_t op_done = all.find("done", "op");
  ASSERT_LT(urgent_done, all.lines.size());
  ASSERT_LT(op_done, all.lines.size());
  EXPECT_LT(urgent_done, op_done);
}

// --- TCP transport ----------------------------------------------------------

/// Blocking loopback client: sends request lines and reads response lines,
/// each stamped with the steady clock when its newline arrived.
class LineClient {
 public:
  using Clock = std::chrono::steady_clock;

  /// `rcvbuf` > 0 sets the socket's receive buffer (SO_RCVBUF).
  explicit LineClient(std::uint16_t port, int timeout_s = 30, int rcvbuf = 0)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    timeval timeout{};
    timeout.tv_sec = timeout_s;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    if (rcvbuf > 0) ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                                       sizeof addr) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  [[nodiscard]] bool connected() const noexcept { return connected_; }

  [[nodiscard]] bool send_line(const std::string& line) {
    const std::string framed = line + '\n';
    return ::send(fd_, framed.data(), framed.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(framed.size());
  }

  /// Send nothing more (the daemon reads end of file) and keep reading.
  void half_close() { ::shutdown(fd_, SHUT_WR); }

  /// The next response line; false on timeout or hang-up.  A complete line
  /// is only ever found in the bytes of the latest recv, so that recv's
  /// time is when the line arrived.
  [[nodiscard]] bool read_line(std::string* line, Clock::time_point* at) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        *at = last_recv_;
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      last_recv_ = Clock::now();
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  bool connected_ = false;
  std::string buf_;
  Clock::time_point last_recv_;
};

/// A TcpDaemon's accept loop on its own thread, stopped and joined on
/// destruction, so a failed assertion cannot leave the thread running.
class AcceptLoop {
 public:
  explicit AcceptLoop(ckptsim::svc::TcpDaemon& daemon)
      : thread_([&daemon, this] { daemon.run(stop_); }) {}
  ~AcceptLoop() {
    stop_.store(true);
    thread_.join();
  }
  AcceptLoop(const AcceptLoop&) = delete;
  AcceptLoop& operator=(const AcceptLoop&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(TcpDaemon, RepliesAreNotHeldForTheClientsDelayedAck) {
  // A cached sweep is answered with an accepted line, one line per point
  // and a done line, each sent on its own.  With Nagle's algorithm on the
  // socket, every line after the first waits for the client's delayed ACK
  // (40 ms or more on Linux), so accepted -> done takes that long even
  // though the daemon has the whole reply at once.
  CampaignServer server(ServerConfig{});  // memory-only result cache
  ckptsim::svc::TcpDaemon daemon(server, 0);
  std::vector<double> gaps_ms;
  {
    const AcceptLoop loop(daemon);
    LineClient client(daemon.port());
    ASSERT_TRUE(client.connected());
    // The first submission fills the cache; the 20 after it are hits.
    for (int i = 0; i <= 20; ++i) {
      ASSERT_TRUE(client.send_line(kTinySweep));
      LineClient::Clock::time_point accepted{};
      LineClient::Clock::time_point done{};
      std::size_t points = 0;
      for (bool finished = false; !finished;) {
        std::string line;
        LineClient::Clock::time_point at;
        ASSERT_TRUE(client.read_line(&line, &at)) << "submission " << i;
        JsonValue v;
        ASSERT_TRUE(ckptsim::obs::parse_json(line, &v)) << line;
        const JsonValue* type = v.find("type");
        ASSERT_NE(type, nullptr) << line;
        if (type->scalar == "accepted") {
          accepted = at;
        } else if (type->scalar == "point") {
          ++points;
        } else {
          ASSERT_EQ(type->scalar, "done") << line;
          done = at;
          finished = true;
        }
      }
      EXPECT_EQ(points, 2u);
      if (i > 0) {
        gaps_ms.push_back(std::chrono::duration<double, std::milli>(done - accepted).count());
      }
    }
  }
  server.stop();
  EXPECT_EQ(server.metrics().service().snapshot().cache_hits, 40u);
  ASSERT_EQ(gaps_ms.size(), 20u);
  std::vector<double> sorted = gaps_ms;
  std::sort(sorted.begin(), sorted.end());
  const double median = (sorted[9] + sorted[10]) / 2.0;
  std::string all;
  for (const double g : gaps_ms) all += std::to_string(g) + " ";
  EXPECT_LT(median, 10.0) << "accepted -> done gaps (ms): " << all;
}

TEST(TcpDaemon, OpIsCancellableFromItsOwnConnection) {
  // The reader thread hands an op to its driver thread and reads on, so a
  // cancel sent right behind the op on the same connection reaches the op
  // while it runs: the ack and the op's stream both say "cancelled".
  ServerConfig config;
  config.workers = 1;
  CampaignServer server(config);
  ckptsim::svc::TcpDaemon daemon(server, 0);
  std::vector<std::string> got;
  {
    const AcceptLoop loop(daemon);
    LineClient client(daemon.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_line(long_op("op")));
    ASSERT_TRUE(client.send_line(R"({"op":"cancel","id":"op"})"));
    for (int i = 0; i < 3; ++i) {
      std::string line;
      LineClient::Clock::time_point at;
      ASSERT_TRUE(client.read_line(&line, &at)) << "line " << i;
      JsonValue v;
      ASSERT_TRUE(ckptsim::obs::parse_json(line, &v)) << line;
      const JsonValue* type = v.find("type");
      const JsonValue* id = v.find("id");
      ASSERT_NE(type, nullptr) << line;
      got.push_back(type->scalar + " " + (id != nullptr ? id->scalar : ""));
    }
  }
  server.stop();
  // The ack and the stream's last line are the same line, in either order.
  EXPECT_EQ(got, (std::vector<std::string>{"accepted op", "cancelled op", "cancelled op"}));
}

/// Descriptors this process has open.
std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

/// Answer to one ping on a fresh connection, or "" when none came.
std::string ping(std::uint16_t port, int timeout_s = 30) {
  LineClient client(port, timeout_s);
  std::string line;
  LineClient::Clock::time_point at;
  if (!client.connected() || !client.send_line(R"({"op":"ping"})") ||
      !client.read_line(&line, &at)) {
    return "";
  }
  return line;
}

TEST(TcpDaemon, ClosedConnectionsAreReleased) {
  CampaignServer server(ServerConfig{});
  ckptsim::svc::TcpDaemon daemon(server, 0);
  {
    const AcceptLoop loop(daemon);
    const std::size_t before = open_fds();
    for (int i = 0; i < 200; ++i) {
      ASSERT_NE(ping(daemon.port()).find("pong"), std::string::npos) << "cycle " << i;
    }
    // Each pass of the loop (at least every 200 ms) lets go of the sockets
    // of closed connections.
    std::size_t after = open_fds();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (after > before && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      after = open_fds();
    }
    EXPECT_LE(after, before);
  }
  server.stop();
}

/// CPU seconds (user + system, all threads) process `pid` has used.
double cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesized command: state is field 3, utime 14
  // and stime 15, in clock ticks.
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// A forked child process, killed and reaped on destruction.
struct Child {
  pid_t pid = -1;
  ~Child() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

TEST(TcpDaemon, BacksOffWhenOutOfDescriptorsAndServesOnceTheyFree) {
  // The daemon runs in a child process whose descriptor limit is 32.  The
  // test holds more connections than that, so the daemon's accept fails
  // with EMFILE while the rest wait in the listen backlog.
  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  Child child;
  child.pid = ::fork();
  ASSERT_GE(child.pid, 0);
  if (child.pid == 0) {
    ::close(port_pipe[0]);
    try {
      const rlimit limit{32, 32};
      if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(2);
      ServerConfig config;
      config.workers = 1;
      CampaignServer server(config);
      ckptsim::svc::TcpDaemon daemon(server, 0);
      const std::uint16_t port = daemon.port();
      if (::write(port_pipe[1], &port, sizeof port) != static_cast<ssize_t>(sizeof port)) {
        ::_exit(3);
      }
      ::close(port_pipe[1]);
      const std::atomic<bool> stop{false};
      daemon.run(stop);
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(0);
  }
  ::close(port_pipe[1]);
  std::uint16_t port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof port), static_cast<ssize_t>(sizeof port));
  ::close(port_pipe[0]);
  ASSERT_NE(ping(port).find("pong"), std::string::npos);
  std::vector<std::unique_ptr<LineClient>> held;
  for (int i = 0; i < 40; ++i) {
    held.push_back(std::make_unique<LineClient>(port));
    ASSERT_TRUE(held.back()->connected()) << "connection " << i;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // accept until EMFILE
  const double cpu_before = cpu_seconds(child.pid);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_LT(cpu_seconds(child.pid) - cpu_before, 0.2) << "the accept loop spins";
  held.clear();
  const auto closed = std::chrono::steady_clock::now();
  EXPECT_NE(ping(port, 5).find("pong"), std::string::npos);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - closed).count(),
            1.0);
}

/// An interval sweep of `points` (1000: about 1 MB of point lines,
/// simulated in a few tens of milliseconds) of one short replication each.
/// Sweeps with different seeds share no cache entry.
std::string wide_sweep(const std::string& id, int seed, int points = 1000) {
  std::string values;
  for (int x = 10; x < 10 + points; ++x) {
    if (x > 10) values += ',';
    values += std::to_string(x);
  }
  return R"({"op":"sweep","id":")" + id + R"(","axis":"interval","values":[)" + values +
         R"(],"params":{"processors":4096},)"
         R"("spec":{"reps":1,"horizon_hours":2,"transient_hours":0.5,"seed":)" +
         std::to_string(seed) + "}}";
}

/// A client with a 4 KiB receive buffer that submits 12 wide sweeps (about
/// 12 MB of replies) and reads nothing until asked to.
class StalledClient {
 public:
  static constexpr int kSweeps = 12;

  explicit StalledClient(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    const int rcvbuf = 4096;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    sent_ = fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
    for (int i = 0; i < kSweeps && sent_; ++i) {
      const std::string line = wide_sweep("stalled" + std::to_string(i), i + 1) + '\n';
      sent_ = ::send(fd_, line.data(), line.size(), MSG_NOSIGNAL) ==
              static_cast<ssize_t>(line.size());
    }
  }
  ~StalledClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  StalledClient(const StalledClient&) = delete;
  StalledClient& operator=(const StalledClient&) = delete;

  [[nodiscard]] bool sent() const noexcept { return sent_; }

  /// Read until the daemon hangs up; the bytes read, or -1 on a timeout.
  [[nodiscard]] long long read_to_eof() {
    timeval timeout{};
    timeout.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    long long total = 0;
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n == 0) return total;
      if (n < 0) return -1;
      total += n;
    }
  }

 private:
  int fd_;
  bool sent_ = false;
};

/// Read a sweep's stream up to its terminal line; the types in order.
std::vector<std::string> read_stream(LineClient& client) {
  std::vector<std::string> types;
  for (;;) {
    std::string line;
    LineClient::Clock::time_point at;
    if (!client.read_line(&line, &at)) return types;
    JsonValue v;
    const JsonValue* type = ckptsim::obs::parse_json(line, &v) ? v.find("type") : nullptr;
    types.push_back(type != nullptr ? type->scalar : line);
    if (types.back() != "accepted" && types.back() != "point") return types;
  }
}

TEST(TcpDaemon, StalledClientHoldsNoServerThread) {
  // The stalled client's point lines come from the workers.  When nothing
  // is queued a line is sent on the worker without blocking, and what the
  // socket does not take waits in the connection's queue; so the other
  // client's sweep runs and ends meanwhile.  Once the queue passes its cap
  // the stalled client is hung up, and its campaigns run on into the cache.
  ServerConfig config;
  config.workers = 2;
  config.max_queue_depth = 16;
  CampaignServer server(config);
  ckptsim::svc::TcpDaemon daemon(server, 0);
  const AcceptLoop loop(daemon);
  StalledClient stalled(daemon.port());
  ASSERT_TRUE(stalled.sent());
  std::this_thread::sleep_for(std::chrono::seconds(1));
  {
    LineClient other(daemon.port(), 10);
    ASSERT_TRUE(other.connected());
    const auto sent = std::chrono::steady_clock::now();
    ASSERT_TRUE(other.send_line(kTinySweep));
    EXPECT_EQ(read_stream(other),
              (std::vector<std::string>{"accepted", "point", "point", "done"}));
    EXPECT_LT(std::chrono::steady_clock::now() - sent, std::chrono::seconds(10));
  }
  const ckptsim::obs::ServiceCounters& svcc = server.metrics().service();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (svcc.queue_depth.load() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(svcc.queue_depth.load(), 0) << "the stalled client's campaigns did not finish";
  EXPECT_EQ(svcc.snapshot().cache_misses, 2u + 1000u * StalledClient::kSweeps);
  // Hung up once its queue passed the cap: it reads what the kernel
  // holds, then end of file.
  EXPECT_GT(stalled.read_to_eof(), 0);
  LineClient again(daemon.port());
  ASSERT_TRUE(again.connected());
  ASSERT_TRUE(again.send_line(wide_sweep("again", 1)));  // the first stalled sweep
  std::string line;
  LineClient::Clock::time_point at;
  ASSERT_TRUE(again.read_line(&line, &at));
  EXPECT_NE(line.find(R"("points": 1000, "cached": 1000)"), std::string::npos) << line;
  const std::vector<std::string> rest = read_stream(again);
  ASSERT_EQ(rest.size(), 1001u);
  EXPECT_EQ(rest.back(), "done");
  EXPECT_EQ(svcc.snapshot().cache_hits, 1000u);
}

TEST(TcpDaemon, DrainExitsWhileAStalledClientStaysConnected) {
  // No server thread waits on the stalled client, so a drain ends once the
  // campaigns do, however much of their reply the client left unread.
  ServerConfig config;
  config.workers = 2;
  config.max_queue_depth = 16;
  CampaignServer server(config);
  ckptsim::svc::TcpDaemon daemon(server, 0);
  std::atomic<bool> stop{false};
  std::atomic<bool> returned{false};
  std::thread loop([&] {
    daemon.run(stop);
    returned.store(true);
  });
  {
    StalledClient stalled(daemon.port());
    EXPECT_TRUE(stalled.sent());
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    stop.store(true);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!returned.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(returned.load()) << "run() waits for the stalled client";
  }  // hanging up lets a run() that waits on the client return
  loop.join();
  server.stop();
}

/// Threads this process runs.
std::size_t threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(TcpDaemon, ConnectionsCostNoThread) {
  CampaignServer server(ServerConfig{});
  ckptsim::svc::TcpDaemon daemon(server, 0);
  const AcceptLoop loop(daemon);
  ASSERT_NE(ping(daemon.port()).find("pong"), std::string::npos);
  const std::size_t before = threads();
  std::vector<std::unique_ptr<LineClient>> clients;
  for (int i = 0; i < 16; ++i) {
    clients.push_back(std::make_unique<LineClient>(daemon.port()));
    LineClient& client = *clients.back();
    ASSERT_TRUE(client.connected()) << "connection " << i;
    ASSERT_TRUE(client.send_line(R"({"op":"ping"})"));
    std::string line;
    LineClient::Clock::time_point at;
    ASSERT_TRUE(client.read_line(&line, &at)) << "connection " << i;
    EXPECT_NE(line.find("pong"), std::string::npos) << line;
  }
  EXPECT_EQ(threads(), before);
}

TEST(TcpDaemon, HalfClosedClientGetsItsReplies) {
  // The client sends its sweep and then nothing more, and starts reading
  // only once its reply has outgrown the socket buffers: the loop, which
  // has read the client's end of file, writes the rest of the queue.
  CampaignServer server(ServerConfig{});
  ckptsim::svc::TcpDaemon daemon(server, 0);
  std::vector<std::string> types;
  {
    const AcceptLoop loop(daemon);
    LineClient client(daemon.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_line(wide_sweep("half", 1)));
    client.half_close();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    types = read_stream(client);
  }
  server.stop();
  ASSERT_EQ(types.size(), 1002u);
  EXPECT_EQ(types.front(), "accepted");
  EXPECT_EQ(std::count(types.begin(), types.end(), "point"), 1000);
  EXPECT_EQ(types.back(), "done");
}

/// The first `count` lines of a reply, read as fast as they come: how many
/// arrived before a timeout or a hang-up, their bytes and the last one.
struct Reply {
  std::size_t lines = 0;
  std::size_t bytes = 0;
  std::string last;
};
Reply read_lines(LineClient& client, std::size_t count) {
  Reply reply;
  std::string line;
  LineClient::Clock::time_point at;
  while (reply.lines < count && client.read_line(&line, &at)) {
    ++reply.lines;
    reply.bytes += line.size() + 1;
    reply.last = std::move(line);
  }
  return reply;
}

TEST(TcpDaemon, ReadingClientGetsAWarmReplyLargerThanTheQueueCap) {
  // A sweep served wholly from the cache is sent by the loop itself, which
  // cannot write a connection's queue until the sweep's last line is made.
  // The client (a 4 KiB receive buffer, as StalledClient's) leaves a first
  // warm reply (about 3.8 MB, under the cap) unread, so bytes are queued
  // when the second (about 5 MB) starts, and then reads both.  Each line
  // sends what the socket takes of the queue, so the client gets both
  // replies; were lines sent only onto an empty queue, none of the second
  // would leave until it was all made, and the client would be hung up
  // once the queue passed kMaxQueuedBytes.
  constexpr std::size_t kFirst = 4500;
  constexpr std::size_t kSecond = 6000;
  CampaignServer server(ServerConfig{});
  ckptsim::svc::TcpDaemon daemon(server, 0);
  const AcceptLoop loop(daemon);
  {  // The cold run, which puts every point of both replies in the cache.
    LineClient cold(daemon.port());
    ASSERT_TRUE(cold.connected());
    ASSERT_TRUE(cold.send_line(wide_sweep("cold", 1, static_cast<int>(kSecond))));
    const Reply reply = read_lines(cold, kSecond + 2);
    ASSERT_EQ(reply.lines, kSecond + 2);
    EXPECT_NE(reply.last.find(R"("type": "done")"), std::string::npos) << reply.last;
  }
  LineClient client(daemon.port(), 30, /*rcvbuf=*/4096);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(wide_sweep("first", 1, static_cast<int>(kFirst))));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // its reply fills the buffers
  ASSERT_TRUE(client.send_line(wide_sweep("second", 1, static_cast<int>(kSecond))));
  const Reply first = read_lines(client, kFirst + 2);
  const Reply second = read_lines(client, kSecond + 2);
  ASSERT_EQ(first.lines, kFirst + 2);
  ASSERT_EQ(second.lines, kSecond + 2);
  EXPECT_GT(second.bytes, ckptsim::svc::TcpDaemon::kMaxQueuedBytes);
  EXPECT_NE(second.last.find(R"("type": "done")"), std::string::npos) << second.last;
  EXPECT_NE(second.last.find(R"("id": "second")"), std::string::npos) << second.last;
  EXPECT_EQ(server.metrics().service().snapshot().cache_hits, kFirst + kSecond);
}

TEST(TcpDaemon, DrainWritesWhatAClientThatReadsLateHasQueued) {
  // The client's 4500-point reply (about 3.8 MB, under the cap) outgrows
  // its socket buffers and waits in its queue; the client reads only once
  // the drain has settled.  The drained loop writes on until the queue is
  // empty, so every line arrives.
  constexpr std::uint64_t kPoints = 4500;
  CampaignServer server(ServerConfig{});
  ckptsim::svc::TcpDaemon daemon(server, 0);
  std::atomic<bool> stop{false};
  std::thread loop([&] { daemon.run(stop); });
  std::vector<std::string> types;
  {
    LineClient client(daemon.port(), 30, /*rcvbuf=*/4096);
    EXPECT_TRUE(client.connected());
    EXPECT_TRUE(client.send_line(wide_sweep("late", 1, static_cast<int>(kPoints))));
    // Wait for the campaign to end: every line is queued or sent.
    const ckptsim::obs::ServiceCounters& svcc = server.metrics().service();
    const auto ended = [&svcc] {
      return svcc.points_completed.load() == kPoints && svcc.queue_depth.load() == 0;
    };
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!ended() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(ended());
    stop.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));  // the drain settles
    types = read_stream(client);
  }
  loop.join();
  server.stop();
  ASSERT_EQ(types.size(), kPoints + 2);
  EXPECT_EQ(types.front(), "accepted");
  EXPECT_EQ(types.back(), "done");
}

// --- A ledger that cannot grow ---------------------------------------------
//
// Each case runs in a child whose files may not grow past a limit
// (RLIMIT_FSIZE, with SIGXFSZ ignored), so a ledger append fails with EFBIG.

/// The exit code of `child` once it exits within `seconds`; -1 when a
/// signal ended it or it is still running (Child's destructor kills it).
int exit_code_within(Child& child, int seconds) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  for (;;) {
    int status = 0;
    const pid_t got = ::waitpid(child.pid, &status, WNOHANG);
    if (got == child.pid) {
      child.pid = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (got < 0 || std::chrono::steady_clock::now() > deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void limit_file_size(rlim_t bytes) {
  ::signal(SIGXFSZ, SIG_IGN);
  const rlimit limit{bytes, bytes};
  if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(90);
}

TEST(SvcLedgerFull, OnceModeExitsOneWhenTheAdmitFails) {
  // The failed admit unlists the campaign before the error leaves
  // handle_line, so the server's teardown does not wait for it.
  TempFile ledger("full_admit_ledger");
  TempFile input("full_admit_input");
  TempFile errors("full_admit_stderr");
  std::ofstream(input.path) << kTinySweep << "\n";
  Child child;
  child.pid = ::fork();
  ASSERT_GE(child.pid, 0);
  if (child.pid == 0) {
    limit_file_size(16);
    std::FILE* in = std::freopen(input.path.c_str(), "r", stdin);
    std::FILE* out = std::freopen("/dev/null", "w", stdout);
    std::FILE* err = std::freopen(errors.path.c_str(), "w", stderr);
    if (in == nullptr || out == nullptr || err == nullptr) ::_exit(91);
    ::execl(CKPTSIM_DAEMON, "ckptsimd", "--once", "--ledger", ledger.path.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(92);
  }
  EXPECT_EQ(exit_code_within(child, 60), 1) << "ckptsimd hung or crashed";
  // The limit cuts the message short too; its first bytes name the tool.
  std::stringstream said;
  said << std::ifstream(errors.path).rdbuf();
  EXPECT_EQ(said.str().rfind("ckptsimd: ", 0), 0u) << said.str();
}

TEST(SvcLedgerFull, TcpDaemonAnswersAFailedAdmitAndServesOn) {
  // No room for the admit record: the sweep's connection gets one error
  // line naming the ledger, and the daemon serves on, that connection and
  // the next.
  TempFile ledger("full_tcp_ledger");
  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  Child child;
  child.pid = ::fork();
  ASSERT_GE(child.pid, 0);
  if (child.pid == 0) {
    ::close(port_pipe[0]);
    limit_file_size(0);
    try {
      ServerConfig config;
      config.workers = 1;
      config.ledger_path = ledger.path;
      CampaignServer server(config);
      ckptsim::svc::TcpDaemon daemon(server, 0);
      const std::uint16_t port = daemon.port();
      if (::write(port_pipe[1], &port, sizeof port) != static_cast<ssize_t>(sizeof port)) {
        ::_exit(3);
      }
      ::close(port_pipe[1]);
      const std::atomic<bool> stop{false};
      daemon.run(stop);
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(0);
  }
  ::close(port_pipe[1]);
  std::uint16_t port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof port), static_cast<ssize_t>(sizeof port));
  ::close(port_pipe[0]);
  LineClient client(port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(kTinySweep));
  std::string line;
  LineClient::Clock::time_point at;
  ASSERT_TRUE(client.read_line(&line, &at)) << "the daemon hung up";
  JsonValue error;
  ASSERT_TRUE(ckptsim::obs::parse_json(line, &error)) << line;
  ASSERT_NE(error.find("type"), nullptr) << line;
  EXPECT_EQ(error.find("type")->scalar, "error") << line;
  EXPECT_NE(line.find("ledger '" + ledger.path + "'"), std::string::npos) << line;
  // The sweep's answer was that one line: the next is the ping's.
  ASSERT_TRUE(client.send_line(R"({"op":"ping"})"));
  ASSERT_TRUE(client.read_line(&line, &at));
  EXPECT_NE(line.find("pong"), std::string::npos) << line;
  EXPECT_NE(ping(port).find("pong"), std::string::npos);
}

TEST(SvcLedgerFull, FailedRetireEndsTheStreamWithAnError) {
  // Room for the admit record but not the retire: the points stream, the
  // stream ends with an error line, and the campaign stays pending.
  TempFile ledger("full_retire_ledger");
  ckptsim::svc::CampaignLedger(ledger.path).admit("c1", kTinySweep);
  const auto admitted = std::filesystem::file_size(ledger.path);
  std::remove(ledger.path.c_str());
  Child child;
  child.pid = ::fork();
  ASSERT_GE(child.pid, 0);
  if (child.pid == 0) {
    limit_file_size(admitted + 8);
    ServerConfig config;
    config.workers = 2;
    config.ledger_path = ledger.path;
    Collector out;
    {
      CampaignServer server(config);
      server.handle_line(kTinySweep, out.sink());
      server.drain();
    }
    if (out.lines.size() != 4 || out.type(1) != "point" || out.type(2) != "point") ::_exit(1);
    if (out.type(3) != "error") ::_exit(2);
    if (out.lines[3].find("cannot retire the campaign") == std::string::npos) ::_exit(3);
    if (ckptsim::svc::CampaignLedger(ledger.path).pending().size() != 1) ::_exit(4);
    ::_exit(0);
  }
  EXPECT_EQ(exit_code_within(child, 60), 0);
}

}  // namespace
