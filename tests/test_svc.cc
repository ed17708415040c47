// Service layer (src/svc): request protocol, content-addressed result
// cache, and the campaign server.  The load-bearing property is end-to-end
// memoization: a repeated sweep request returns byte-identical results from
// the cache with zero new simulation work, including across a daemon
// restart, and a cold service run is bit-identical to the CLI's sweep().
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/result_json.h"
#include "src/core/sweep.h"
#include "src/obs/json.h"
#include "src/obs/json_value.h"
#include "src/obs/metrics.h"
#include "src/svc/cache.h"
#include "src/svc/ledger.h"
#include "src/svc/protocol.h"
#include "src/svc/server.h"

namespace {

using ckptsim::EngineKind;
using ckptsim::Parameters;
using ckptsim::RunResult;
using ckptsim::RunSpec;
using ckptsim::SweepSeries;
using ckptsim::obs::JsonValue;
using ckptsim::svc::CampaignServer;
using ckptsim::svc::Request;
using ckptsim::svc::ResultCache;
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
  // Simple ops accept no extra keys.
  EXPECT_FALSE(ckptsim::svc::parse_request(R"({"op":"ping","axis":"interval"})", &req, &error));
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
  ResultCache cache("");
  EXPECT_FALSE(cache.persistent());
  const RunResult r = run_point(30.0);
  RunResult out;
  EXPECT_FALSE(cache.lookup(1, &out));
  cache.insert(1, 30.0, r);
  cache.insert(1, 30.0, r);  // idempotent
  ASSERT_TRUE(cache.lookup(1, &out));
  EXPECT_EQ(canonical(out), canonical(r));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SvcCache, PersistentRoundTripSurvivesReopenByteIdentically) {
  TempFile file("cache_roundtrip");
  const RunResult r15 = run_point(15.0);
  const RunResult r30 = run_point(30.0);
  {
    ResultCache cache(file.path);
    EXPECT_TRUE(cache.persistent());
    EXPECT_EQ(cache.loaded(), 0u);
    cache.insert(100, 15.0, r15);
    cache.insert(200, 30.0, r30);
    cache.insert(100, 15.0, r15);  // duplicate never double-appends
    EXPECT_EQ(cache.size(), 2u);
  }
  ResultCache reopened(file.path);
  EXPECT_EQ(reopened.loaded(), 2u);
  RunResult out;
  ASSERT_TRUE(reopened.lookup(100, &out));
  EXPECT_EQ(canonical(out), canonical(r15));  // %.17g round trip: bit-identical
  ASSERT_TRUE(reopened.lookup(200, &out));
  EXPECT_EQ(canonical(out), canonical(r30));
  EXPECT_FALSE(reopened.lookup(300, &out));
  EXPECT_EQ(reopened.hits(), 2u);
  EXPECT_EQ(reopened.misses(), 1u);
}

TEST(SvcCache, ConcurrentInsertAndLookupIsSafe) {
  TempFile file("cache_concurrent");
  ResultCache cache(file.path);
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
  ResultCache reopened(file.path);
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
  EXPECT_EQ(server.cache().hits(), 2u);
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
  // Rejections: missing jobs, bad policy, bad mix.
  EXPECT_FALSE(ckptsim::svc::parse_request(R"({"op":"interference","id":"x"})", &req, &error));
  EXPECT_FALSE(ckptsim::svc::parse_request(
      R"({"op":"interference","id":"x","jobs":"a","policy":"bogus"})", &req, &error));
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
  // Synchronous: accepted, one "job" line per job, one "platform", done.
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
  ASSERT_EQ(out.lines.size(), 2u);
  EXPECT_EQ(out.type(0), "accepted");
  EXPECT_EQ(out.type(1), "error");
  EXPECT_NE(out.lines[1].find("on_failure"), std::string::npos) << out.lines[1];
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

}  // namespace
