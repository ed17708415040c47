#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/san/model.h"
#include "src/san/study.h"
#include "src/trace/event_log.h"

namespace {

using ckptsim::EngineKind;
using ckptsim::Parameters;
using ckptsim::RunSpec;
using ckptsim::obs::Metrics;
using ckptsim::obs::MetricsSnapshot;
using ckptsim::obs::ProgressReporter;
using ckptsim::obs::ReplicationProbe;
using ckptsim::obs::TraceSpan;
using ckptsim::trace::EventKind;
using ckptsim::trace::EventLog;

RunSpec small_spec(std::size_t jobs) {
  RunSpec spec;
  spec.transient = 2.0 * 3600.0;
  spec.horizon = 30.0 * 3600.0;
  spec.replications = 6;
  spec.seed = 7;
  spec.exec.jobs = jobs;
  return spec;
}

// --- metrics registry -------------------------------------------------------

TEST(Metrics, EmptyRegistrySnapshotsToZeros) {
  Metrics m(4);
  EXPECT_EQ(m.workers(), 4u);
  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.replications, 0u);
  EXPECT_EQ(s.events.total(), 0u);
  EXPECT_EQ(s.activity_firings, 0u);
  EXPECT_EQ(s.queue.scheduled, 0u);
  ASSERT_EQ(s.worker_busy_seconds.size(), 4u);
  for (const double b : s.worker_busy_seconds) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(Metrics, ZeroWorkersClampsToOne) {
  Metrics m(0);
  EXPECT_EQ(m.workers(), 1u);
}

TEST(Metrics, ShardAbsorbAddsCountsAndMaxesQueuePeaks) {
  Metrics m(2);
  ReplicationProbe a;
  a.events.bump(EventKind::kRollback);
  a.activity_firings = 10;
  a.activity_aborts = 1;
  a.queue = {100, 90, 10, 50};
  ReplicationProbe b;
  b.events.bump(EventKind::kRollback);
  b.queue = {10, 10, 0, 80};
  m.shard(0).absorb(a);
  m.shard(1).absorb(b);
  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.replications, 2u);
  EXPECT_EQ(s.events.of(EventKind::kRollback), 2u);
  EXPECT_EQ(s.activity_firings, 10u);
  EXPECT_EQ(s.activity_aborts, 1u);
  EXPECT_EQ(s.queue.scheduled, 110u);
  EXPECT_EQ(s.queue.cancelled, 10u);
  EXPECT_EQ(s.queue.peak_size, 80u);  // maxed, not summed
}

TEST(Metrics, RunModelCollectionIsThreadCountInvariant) {
  // The tentpole determinism claim: the merged snapshot's deterministic
  // fields (everything except busy/wall seconds) are identical whether the
  // replications ran on 1 worker or 4 — and identical to what a run with
  // no metrics attached produces as results.
  const Parameters p;
  const auto plain = ckptsim::run_model(p, small_spec(4));

  Metrics serial(1);
  RunSpec s1 = small_spec(1);
  s1.metrics = &serial;
  const auto r1 = ckptsim::run_model(p, s1);

  Metrics wide(4);
  RunSpec s4 = small_spec(4);
  s4.metrics = &wide;
  const auto r4 = ckptsim::run_model(p, s4);

  EXPECT_DOUBLE_EQ(r1.useful_fraction.mean, plain.useful_fraction.mean);
  EXPECT_DOUBLE_EQ(r4.useful_fraction.mean, plain.useful_fraction.mean);
  EXPECT_DOUBLE_EQ(r1.useful_fraction.half_width, r4.useful_fraction.half_width);

  const MetricsSnapshot a = serial.snapshot();
  const MetricsSnapshot b = wide.snapshot();
  EXPECT_EQ(a.replications, 6u);
  EXPECT_EQ(b.replications, 6u);
  for (std::size_t k = 0; k < ckptsim::trace::kEventKindCount; ++k) {
    EXPECT_EQ(a.events.counts[k], b.events.counts[k]) << "kind " << k;
  }
  EXPECT_GT(a.events.of(EventKind::kCkptCommitted), 0u);
  EXPECT_GT(a.events.of(EventKind::kComputeFailure), 0u);
  EXPECT_EQ(a.queue.scheduled, b.queue.scheduled);
  EXPECT_EQ(a.queue.fired, b.queue.fired);
  EXPECT_EQ(a.queue.cancelled, b.queue.cancelled);
  EXPECT_EQ(a.queue.peak_size, b.queue.peak_size);
  EXPECT_GT(a.queue.peak_size, 0u);
}

TEST(Metrics, SanStudyReportsFiringsAndAborts) {
  using namespace ckptsim::san;
  // on/off model with a third "preempt" activity that disables to_off's
  // scheduled completion, forcing aborts.
  Model m;
  const PlaceId on = m.add_place("on", 1);
  const PlaceId off = m.add_place("off", 0);
  ActivitySpec to_off;
  to_off.name = "to_off";
  to_off.latency = [](const Marking&, ckptsim::sim::Rng& r) { return r.exponential_rate(1.0); };
  to_off.input_arcs = {InputArc{on, 1}};
  to_off.output_arcs = {OutputArc{off, 1}};
  m.add_activity(std::move(to_off));
  ActivitySpec to_on;
  to_on.name = "to_on";
  to_on.latency = [](const Marking&, ckptsim::sim::Rng& r) { return r.exponential_rate(3.0); };
  to_on.input_arcs = {InputArc{off, 1}};
  to_on.output_arcs = {OutputArc{on, 1}};
  m.add_activity(std::move(to_on));

  Study study(m, {RateRewardSpec{"on", [on](const Marking& mk) { return mk.has(on) ? 1.0 : 0.0; }}},
              {});
  RunSpec spec;
  spec.transient = 10.0;
  spec.horizon = 500.0;
  spec.replications = 4;
  spec.seed = 1;
  Metrics metrics(2);
  spec.metrics = &metrics;
  spec.exec.jobs = 2;
  const auto result = study.run(spec);
  const MetricsSnapshot s = metrics.snapshot();
  EXPECT_EQ(s.replications, 4u);
  EXPECT_EQ(s.activity_firings, result.total_firings);
  EXPECT_GT(s.activity_firings, 100u);
  EXPECT_GT(s.queue.scheduled, s.queue.fired);  // resampling cancels events
}

TEST(Metrics, JsonSnapshotHasSchemaAndAllEventKinds) {
  Metrics m(2);
  ReplicationProbe p;
  p.events.bump(EventKind::kDumpDone);
  m.shard(0).absorb(p);
  m.add_wall_seconds(1.5);
  const std::string json = m.snapshot().to_json();
  EXPECT_NE(json.find("\"schema\": \"ckptsim.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"replications\": 1"), std::string::npos);
  for (std::size_t k = 0; k < ckptsim::trace::kEventKindCount; ++k) {
    const std::string key =
        std::string("\"") + ckptsim::trace::to_string(static_cast<EventKind>(k)) + "\"";
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"event_queue\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_fraction\""), std::string::npos);
}

TEST(Metrics, WriteJsonThrowsOnUnwritablePath) {
  Metrics m(1);
  EXPECT_THROW(m.snapshot().write_json("/nonexistent-dir/metrics.json"), std::runtime_error);
}

// --- JSON writer ------------------------------------------------------------

TEST(JsonWriter, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(ckptsim::obs::JsonWriter::escape("a\"b\\c\nd\te\x01"),
            "a\\\"b\\\\c\\nd\\te\\u0001");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  ckptsim::obs::JsonWriter w;
  w.begin_object();
  w.kv("x", std::numeric_limits<double>::infinity());
  w.kv("y", std::numeric_limits<double>::quiet_NaN());
  w.end_object();
  EXPECT_EQ(w.str(), "{\"x\": null, \"y\": null}");
}

TEST(JsonWriter, EscapesEveryControlCharacter) {
  // RFC 8259: all of U+0000–U+001F must be escaped, not just the named few.
  for (int c = 0; c < 0x20; ++c) {
    const std::string in(1, static_cast<char>(c));
    const std::string out = ckptsim::obs::JsonWriter::escape(in);
    switch (c) {
      case '\n': EXPECT_EQ(out, "\\n"); break;
      case '\r': EXPECT_EQ(out, "\\r"); break;
      case '\t': EXPECT_EQ(out, "\\t"); break;
      default: {
        char expect[8];
        std::snprintf(expect, sizeof expect, "\\u%04x", static_cast<unsigned>(c));
        EXPECT_EQ(out, expect) << "control char " << c;
      }
    }
  }
  // High bytes must never sign-extend into \uffXX garbage.
  EXPECT_EQ(ckptsim::obs::JsonWriter::escape("\x01\x1f"), "\\u0001\\u001f");
}

TEST(JsonWriter, ValidUtf8PassesThroughUntouched) {
  // 2-, 3-, and 4-byte sequences: é, €, 🂡 (and plain ASCII around them).
  const std::string s = "a\xc3\xa9-\xe2\x82\xac-\xf0\x9f\x82\xa1z";
  EXPECT_EQ(ckptsim::obs::JsonWriter::escape(s), s);
}

TEST(JsonWriter, InvalidUtf8BytesBecomeReplacementCharacter) {
  // Stray Latin-1 byte (a mislabeled path), lone continuation byte, and a
  // truncated lead each become � so the output is always valid JSON.
  EXPECT_EQ(ckptsim::obs::JsonWriter::escape("caf\xe9"), "caf\\ufffd");
  EXPECT_EQ(ckptsim::obs::JsonWriter::escape("\x80x"), "\\ufffdx");
  EXPECT_EQ(ckptsim::obs::JsonWriter::escape("\xc3"), "\\ufffd");
  // Overlong encodings, UTF-16 surrogates, and > U+10FFFF are invalid too.
  EXPECT_EQ(ckptsim::obs::JsonWriter::escape("\xe0\x80\x80"), "\\ufffd\\ufffd\\ufffd");
  EXPECT_EQ(ckptsim::obs::JsonWriter::escape("\xed\xa0\x80"), "\\ufffd\\ufffd\\ufffd");
  EXPECT_EQ(ckptsim::obs::JsonWriter::escape("\xf4\x90\x80\x80"),
            "\\ufffd\\ufffd\\ufffd\\ufffd");
  // A quoted invalid byte still parses as JSON.
  ckptsim::obs::JsonWriter w;
  w.begin_object();
  w.kv("label", "bad\xfflabel");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"label\": \"bad\\ufffdlabel\"}");
}

// --- service counters -------------------------------------------------------

TEST(Metrics, ServiceBlockAppearsOnlyWithServiceTraffic) {
  Metrics m(1);
  EXPECT_EQ(m.snapshot().to_json().find("\"service\""), std::string::npos);
  m.service().requests.fetch_add(3);
  m.service().cache_hits.fetch_add(2);
  m.service().queue_depth.fetch_add(1);
  const std::string json = m.snapshot().to_json();
  EXPECT_NE(json.find("\"service\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"cache_hits\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\": 1"), std::string::npos);
  const auto s = m.service().snapshot();
  EXPECT_TRUE(s.active());
  EXPECT_GE(s.uptime_seconds, 0.0);
}

// --- progress reporter ------------------------------------------------------

/// Reporter with an injected clock and capture stream: `now` is read by
/// reference so tests advance time between ticks.
struct FakeClockReporter {
  double now = 0.0;
  std::ostringstream out;
  ProgressReporter reporter;

  explicit FakeClockReporter(double min_interval)
      : reporter(ProgressReporter::Options{
            min_interval, &out, [this] { return now; }}) {}
};

TEST(Progress, RateLimitsToOneLinePerInterval) {
  FakeClockReporter f(5.0);
  f.reporter.begin("test", 1000);
  for (int i = 0; i < 100; ++i) f.reporter.tick();
  // Clock frozen: the first tick emits, the other 99 are suppressed.
  EXPECT_EQ(f.reporter.completed(), 100u);
  EXPECT_EQ(f.reporter.lines_emitted(), 1u);

  f.now = 4.9;
  f.reporter.tick();
  EXPECT_EQ(f.reporter.lines_emitted(), 1u);  // still inside the interval

  f.now = 5.0;
  f.reporter.tick();
  EXPECT_EQ(f.reporter.lines_emitted(), 2u);

  f.reporter.finish();
  EXPECT_EQ(f.reporter.lines_emitted(), 3u);  // finish ignores the limit
  f.reporter.finish();
  EXPECT_EQ(f.reporter.lines_emitted(), 3u);  // idempotent
}

TEST(Progress, LineShowsLabelCountsAndEta) {
  FakeClockReporter f(0.0);
  f.reporter.begin("run_model", 10);
  f.now = 2.0;
  f.reporter.tick(5);  // 5 done in 2 s -> 2 s remaining
  const std::string text = f.out.str();
  EXPECT_NE(text.find("[run_model]"), std::string::npos);
  EXPECT_NE(text.find("5/10 replications"), std::string::npos);
  EXPECT_NE(text.find("eta"), std::string::npos);
  f.reporter.finish();
  EXPECT_NE(f.out.str().find("done"), std::string::npos);
}

TEST(Progress, BeginResetsForNextPhase) {
  FakeClockReporter f(0.0);
  f.reporter.begin("a", 2);
  f.reporter.tick(2);
  f.reporter.finish();
  f.reporter.begin("b", 3);
  EXPECT_EQ(f.reporter.completed(), 0u);
  f.reporter.tick();
  EXPECT_NE(f.out.str().find("[b] 1/3"), std::string::npos);
}

TEST(Progress, AttachedToRunSpecTicksPerReplication) {
  FakeClockReporter f(0.0);  // no rate limit: every tick emits
  const Parameters p;
  RunSpec spec = small_spec(2);
  spec.replications = 3;
  spec.progress = &f.reporter;
  (void)ckptsim::run_model(p, spec);
  EXPECT_EQ(f.reporter.completed(), 3u);
  EXPECT_NE(f.out.str().find("3/3 replications"), std::string::npos);
  EXPECT_NE(f.out.str().find("done"), std::string::npos);
}

// --- chrome-trace span derivation -------------------------------------------

TEST(ChromeTrace, DerivesAcceptancePairsAsSpans) {
  EventLog log(100);
  log.record(1.0, EventKind::kDumpStarted);
  log.record(2.0, EventKind::kDumpDone);
  log.record(3.0, EventKind::kRecoveryStage1);
  log.record(5.0, EventKind::kRecoveryDone);
  log.record(6.0, EventKind::kRebootStarted);
  log.record(9.0, EventKind::kRebootDone);
  const std::vector<TraceSpan> spans = ckptsim::obs::derive_spans(log);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "dump");
  EXPECT_DOUBLE_EQ(spans[0].begin, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].end, 2.0);
  EXPECT_STREQ(spans[1].name, "recovery");
  EXPECT_DOUBLE_EQ(spans[1].end, 5.0);
  EXPECT_STREQ(spans[2].name, "reboot");
  EXPECT_DOUBLE_EQ(spans[2].end, 9.0);
  for (const auto& s : spans) EXPECT_FALSE(s.aborted);
}

TEST(ChromeTrace, AbortClosesInFlightCheckpointSpans) {
  EventLog log(100);
  log.record(1.0, EventKind::kCkptInitiated);
  log.record(2.0, EventKind::kQuiesceStarted);
  log.record(4.0, EventKind::kCkptAborted);
  const std::vector<TraceSpan> spans = ckptsim::obs::derive_spans(log);
  ASSERT_EQ(spans.size(), 2u);
  for (const auto& s : spans) {
    EXPECT_TRUE(s.aborted) << s.name;
    EXPECT_DOUBLE_EQ(s.end, 4.0);
  }
}

TEST(ChromeTrace, SupersededAndTrailingOpensAreDropped) {
  EventLog log(100);
  log.record(1.0, EventKind::kDumpStarted);  // superseded: no close before next open
  log.record(3.0, EventKind::kDumpStarted);
  log.record(4.0, EventKind::kDumpDone);
  log.record(5.0, EventKind::kRebootStarted);  // still in flight at end of log
  const std::vector<TraceSpan> spans = ckptsim::obs::derive_spans(log);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].begin, 3.0);
  EXPECT_DOUBLE_EQ(spans[0].end, 4.0);
}

TEST(ChromeTrace, CloseWithEvictedOpenIsDropped) {
  EventLog log(2);
  log.record(1.0, EventKind::kDumpStarted);
  log.record(2.0, EventKind::kComputeFailure);
  log.record(3.0, EventKind::kDumpDone);  // its open at t=1 was evicted
  ASSERT_TRUE(log.dropped_any());
  EXPECT_TRUE(ckptsim::obs::derive_spans(log).empty());
}

TEST(ChromeTrace, JsonRoundTripsSpansAndInstants) {
  EventLog log(100);
  log.record(1.0, EventKind::kDumpStarted);
  log.record(2.5, EventKind::kDumpDone);
  log.record(3.0, EventKind::kComputeFailure);
  log.record(3.5, EventKind::kRollback, 120.0);
  const std::string json = ckptsim::obs::to_chrome_trace_json(log);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The dump pair becomes one complete event: 1.0 s -> ts 1000000 us,
  // 1.5 s duration -> 1500000 us.
  EXPECT_NE(json.find("\"name\": \"dump\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1000000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 1500000"), std::string::npos);
  // Unpaired kinds stay visible as instants, payload preserved.
  EXPECT_NE(json.find("\"compute_failure\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"rollback\""), std::string::npos);
  EXPECT_NE(json.find("120"), std::string::npos);
}

TEST(ChromeTrace, RealDesTraceProducesWellFormedSpans) {
  Parameters p;
  p.num_processors = 131072;
  EventLog log(1 << 16);
  ckptsim::DesModel model(p, 3);
  model.set_event_log(&log);
  (void)model.run(0.0, 200.0 * ckptsim::units::kHour);
  const auto spans = ckptsim::obs::derive_spans(log);
  EXPECT_GT(spans.size(), 100u);
  std::size_t recoveries = 0;
  for (const auto& s : spans) {
    EXPECT_LE(s.begin, s.end) << s.name;
    if (std::string(s.name) == "recovery") ++recoveries;
  }
  EXPECT_GT(recoveries, 0u);
  // Spans come out sorted by begin time for the JSON writer.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].begin, spans[i].begin);
  }
}

}  // namespace
