// Snapshot layer (src/snapshot) and event-granular crash-resume: the
// load-bearing properties are (1) restore is bit-identical — a replication
// killed at any event count and resumed from its snapshot produces exactly
// the golden trajectory and %.17g results of an uninterrupted run — and (2)
// restore is all-or-nothing — a snapshot truncated or corrupted at ANY byte
// offset, or taken under a different format version / state kind / run
// context / failure-trace content, is rejected with a structured
// SnapshotError, never partially loaded (the mirror of the torn-journal
// tests in test_durable_files.cc).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/fault.h"
#include "src/core/result_json.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/model/san_model.h"
#include "src/nodelevel/node_level_model.h"
#include "src/obs/json.h"
#include "src/obs/json_value.h"
#include "src/san/executor.h"
#include "src/sim/pending_set.h"
#include "src/sim/rng.h"
#include "src/snapshot/file.h"
#include "src/snapshot/state_io.h"
#include "src/svc/ledger.h"
#include "src/svc/server.h"
#include "src/trace/event_log.h"

namespace {

using ckptsim::DesModel;
using ckptsim::EngineKind;
using ckptsim::ErrorCode;
using ckptsim::Parameters;
using ckptsim::ReplicationResult;
using ckptsim::RunResult;
using ckptsim::RunSpec;
using ckptsim::SimError;
using ckptsim::SnapshotSpec;
using ckptsim::SweepSeries;
using ckptsim::sim::EventBudgetExceeded;
using ckptsim::sim::fnv1a64;
using ckptsim::snapshot::decode_snapshot;
using ckptsim::snapshot::encode_snapshot;
using ckptsim::snapshot::kKindDesModel;
using ckptsim::snapshot::kKindSanExecutor;
using ckptsim::snapshot::read_snapshot_file;
using ckptsim::snapshot::remove_snapshot_file;
using ckptsim::snapshot::snapshot_exists;
using ckptsim::snapshot::SnapshotError;
using ckptsim::snapshot::SnapshotFault;
using ckptsim::snapshot::StateReader;
using ckptsim::snapshot::StateWriter;
using ckptsim::snapshot::write_snapshot_file;
using ckptsim::trace::EventLog;
using ckptsim::units::kHour;

/// Scratch directory removed (recursively) at scope exit.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name)
      : path(std::string(::testing::TempDir()) + "ckptsim_snap_" + name + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const { return path + "/" + name; }
};

SnapshotFault fault_of(const std::function<void()>& op) {
  try {
    op();
  } catch (const SnapshotError& e) {
    return e.fault();
  }
  ADD_FAILURE() << "operation did not throw SnapshotError";
  return SnapshotFault::kIo;
}

// --- StateWriter / StateReader --------------------------------------------

TEST(SnapshotStateIo, RoundTripsEveryFieldTypeBitExactly) {
  StateWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::denorm_min());
  w.f64(-std::numeric_limits<double>::infinity());
  w.b(true);
  w.b(false);
  w.str("");
  w.str(std::string("bin\0ary", 7));  // embedded NUL survives

  StateReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero)) << "-0.0 must survive bit-exactly";
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.f64(), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("bin\0ary", 7));
  EXPECT_EQ(r.remaining(), 0u);
  r.expect_end();
}

TEST(SnapshotStateIo, ReadPastEndThrowsTruncated) {
  StateReader r(std::string_view("ab"));
  EXPECT_EQ(fault_of([&] { (void)r.u32(); }), SnapshotFault::kTruncated);
}

TEST(SnapshotStateIo, BadBoolByteThrowsCorrupt) {
  StateWriter w;
  w.u8(2);  // neither 0 nor 1
  StateReader r(w.bytes());
  EXPECT_EQ(fault_of([&] { (void)r.b(); }), SnapshotFault::kCorrupt);
}

TEST(SnapshotStateIo, TrailingBytesRejected) {
  StateWriter w;
  w.u8(1);
  w.u8(2);
  StateReader r(w.bytes());
  (void)r.u8();
  EXPECT_EQ(fault_of([&] { r.expect_end(); }), SnapshotFault::kCorrupt);
}

// --- Container validation (satellite: byte-offset fuzz) -------------------

std::string sample_payload() {
  StateWriter w;
  w.str("run-context-fingerprint");
  w.u64(42);
  for (int i = 0; i < 16; ++i) w.f64(1.0 / (i + 1));
  w.b(true);
  return w.take();
}

TEST(SnapshotContainer, RoundTripsThroughEncodeDecode) {
  const std::string payload = sample_payload();
  const std::string file = encode_snapshot(kKindDesModel, payload);
  EXPECT_EQ(decode_snapshot(file, kKindDesModel), payload);
}

TEST(SnapshotContainer, TruncationAtEveryByteOffsetIsRejected) {
  // The fuzz mirror of the torn-journal test: no prefix of a valid snapshot
  // may decode, whatever field the cut lands in.
  const std::string file = encode_snapshot(kKindDesModel, sample_payload());
  for (std::size_t len = 0; len < file.size(); ++len) {
    try {
      (void)decode_snapshot(std::string_view(file).substr(0, len), kKindDesModel);
      ADD_FAILURE() << "truncation to " << len << " of " << file.size() << " bytes was accepted";
    } catch (const SnapshotError&) {
      // structured rejection — exactly what a crash-torn file must get
    }
  }
}

TEST(SnapshotContainer, CorruptionAtEveryByteOffsetIsRejected) {
  // Flip every byte in turn: header fields fail their own checks, payload
  // bytes fail the FNV-1a checksum.  Nothing may decode.
  const std::string file = encode_snapshot(kKindDesModel, sample_payload());
  for (std::size_t i = 0; i < file.size(); ++i) {
    std::string flipped = file;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
    try {
      (void)decode_snapshot(flipped, kKindDesModel);
      ADD_FAILURE() << "corruption at byte " << i << " was accepted";
    } catch (const SnapshotError&) {
    }
  }
}

TEST(SnapshotContainer, VersionBumpIsRejectedAsVersionMismatch) {
  std::string file = encode_snapshot(kKindDesModel, sample_payload());
  file[8] = static_cast<char>(file[8] + 1);  // format-version LSB (bytes 8..11)
  EXPECT_EQ(fault_of([&] { (void)decode_snapshot(file, kKindDesModel); }),
            SnapshotFault::kVersionMismatch);
}

TEST(SnapshotContainer, WrongStateKindIsRejectedAsKindMismatch) {
  const std::string file = encode_snapshot(kKindDesModel, sample_payload());
  EXPECT_EQ(fault_of([&] { (void)decode_snapshot(file, kKindSanExecutor); }),
            SnapshotFault::kKindMismatch);
}

TEST(SnapshotFile, AtomicWriteReadRemoveRoundTrip) {
  TempDir dir("file");
  const std::string path = dir.file("a.snap");
  EXPECT_FALSE(snapshot_exists(path));
  const std::string payload = sample_payload();
  write_snapshot_file(path, kKindDesModel, payload);
  EXPECT_TRUE(snapshot_exists(path));
  EXPECT_EQ(read_snapshot_file(path, kKindDesModel), payload);
  remove_snapshot_file(path);
  EXPECT_FALSE(snapshot_exists(path));
  remove_snapshot_file(path);  // noexcept, idempotent
  EXPECT_EQ(fault_of([&] { (void)read_snapshot_file(path, kKindDesModel); }), SnapshotFault::kIo);
}

TEST(SnapshotFile, OnDiskTruncationIsRejected) {
  TempDir dir("torn");
  const std::string path = dir.file("torn.snap");
  write_snapshot_file(path, kKindDesModel, sample_payload());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW((void)read_snapshot_file(path, kKindDesModel), SnapshotError);
}

// --- DES engine: kill at K events, resume, golden trajectory --------------

// Mirrors test_golden_trajectory.cc: the resumed half must splice onto the
// killed half to reproduce the exact pinned checksum.
constexpr std::uint64_t kDesGoldenChecksum = 0x303d1019efe156f9ULL;
constexpr std::uint64_t kDesGoldenTotalEvents = 2653ULL;

std::uint64_t merged_log_checksum(const std::vector<const EventLog*>& logs) {
  std::string s;
  char buf[96];
  std::uint64_t total = 0;
  for (const EventLog* log : logs) {
    for (const auto& e : log->events()) {
      std::snprintf(buf, sizeof buf, "%.17g|%u|%.17g;", e.time, static_cast<unsigned>(e.kind),
                    e.value);
      s += buf;
    }
    total += log->total_recorded();
  }
  std::snprintf(buf, sizeof buf, "#%llu", static_cast<unsigned long long>(total));
  s += buf;
  return fnv1a64(s);
}

void expect_same_replication(const ReplicationResult& a, const ReplicationResult& b) {
  EXPECT_EQ(a.useful_fraction, b.useful_fraction);
  EXPECT_EQ(a.gross_execution_fraction, b.gross_execution_fraction);
  EXPECT_EQ(a.observed_span, b.observed_span);
  EXPECT_EQ(a.breakdown.executing, b.breakdown.executing);
  EXPECT_EQ(a.breakdown.checkpointing, b.breakdown.checkpointing);
  EXPECT_EQ(a.breakdown.recovering, b.breakdown.recovering);
  EXPECT_EQ(a.breakdown.rebooting, b.breakdown.rebooting);
  EXPECT_EQ(a.counters.compute_failures, b.counters.compute_failures);
  EXPECT_EQ(a.counters.ckpt_committed, b.counters.ckpt_committed);
  EXPECT_EQ(a.counters.recoveries_completed, b.counters.recoveries_completed);
  EXPECT_EQ(a.counters.reboots, b.counters.reboots);
}

struct KilledRun {
  std::uint64_t checksum = 0;  ///< merged (killed + resumed) trajectory
  ReplicationResult result;    ///< of the resumed half
};

/// Run the golden replication, abort it after exactly `kill_at` fired
/// events with the state captured at that boundary, then resume a freshly
/// constructed model (different constructor seed — stream positions travel
/// in the snapshot) and splice the two event logs.
KilledRun kill_and_resume(std::uint64_t kill_at) {
  EventLog before(1 << 18);
  DesModel m1(Parameters{}, /*seed=*/20260805);
  m1.set_event_log(&before);
  std::string payload;
  m1.set_fire_hook(kill_at, [&] {
    StateWriter w;
    m1.save_state(w);
    payload = w.take();
  });
  m1.set_event_budget(kill_at);
  EXPECT_THROW((void)m1.run(0.0, 60.0 * kHour), EventBudgetExceeded);
  EXPECT_FALSE(payload.empty());

  EventLog after(1 << 18);
  DesModel m2(Parameters{}, /*seed=*/1);
  m2.set_event_log(&after);
  StateReader r(payload);
  m2.restore_state(r);
  r.expect_end();
  KilledRun out;
  out.result = m2.continue_run(0.0, 60.0 * kHour);
  out.checksum = merged_log_checksum({&before, &after});
  return out;
}

TEST(SnapshotDesResume, KillAtVariedEventCountsReproducesGoldenTrajectory) {
  EventLog full_log(1 << 18);
  DesModel full(Parameters{}, 20260805);
  full.set_event_log(&full_log);
  const ReplicationResult full_result = full.run(0.0, 60.0 * kHour);
  ASSERT_EQ(merged_log_checksum({&full_log}), kDesGoldenChecksum);
  ASSERT_EQ(full_log.total_recorded(), kDesGoldenTotalEvents);

  // Early, mid, prime-offset and late kills: every splice point must land
  // on the same pinned baseline the uninterrupted run produces.
  for (const std::uint64_t kill_at : {1ULL, 97ULL, 1000ULL, 2500ULL}) {
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at));
    const KilledRun killed = kill_and_resume(kill_at);
    EXPECT_EQ(killed.checksum, kDesGoldenChecksum);
    expect_same_replication(killed.result, full_result);
  }
}

TEST(SnapshotDesResume, ChainedKillsResumeAcrossMultipleSnapshots) {
  // Crash twice: 0 -> 500 (snapshots every 250), resume 500 -> 1250, resume
  // 1250 -> completion.  Three spliced segments, one golden checksum.  The
  // kill points sit on capture boundaries so the spliced logs partition the
  // trajectory exactly (a kill between boundaries re-executes — and re-logs
  // — the tail since the last capture; the single-kill tests cover that).
  EventLog log1(1 << 18), log2(1 << 18), log3(1 << 18);
  std::string payload;
  const auto capture = [&payload](DesModel& m) {
    return [&payload, &m] {
      StateWriter w;
      m.save_state(w);
      payload = w.take();
    };
  };

  DesModel m1(Parameters{}, 20260805);
  m1.set_event_log(&log1);
  m1.set_fire_hook(250, capture(m1));
  m1.set_event_budget(500);
  EXPECT_THROW((void)m1.run(0.0, 60.0 * kHour), EventBudgetExceeded);

  DesModel m2(Parameters{}, 2);
  m2.set_event_log(&log2);
  {
    StateReader r(payload);
    m2.restore_state(r);
    r.expect_end();
  }
  m2.set_fire_hook(250, capture(m2));
  m2.set_event_budget(1250);  // lifetime budget: restored fired count included
  EXPECT_THROW((void)m2.continue_run(0.0, 60.0 * kHour), EventBudgetExceeded);

  DesModel m3(Parameters{}, 3);
  m3.set_event_log(&log3);
  {
    StateReader r(payload);
    m3.restore_state(r);
    r.expect_end();
  }
  const ReplicationResult result = m3.continue_run(0.0, 60.0 * kHour);

  EXPECT_EQ(merged_log_checksum({&log1, &log2, &log3}), kDesGoldenChecksum);

  EventLog full_log(1 << 18);
  DesModel full(Parameters{}, 20260805);
  full.set_event_log(&full_log);
  expect_same_replication(result, full.run(0.0, 60.0 * kHour));
}

TEST(SnapshotDesResume, UnloggedCapturesLandOnEveryBoundaryAndResume) {
  // Without an event log the application cycle fires in its own loop; the
  // capture hook must still run at every multiple of its period, and a
  // resume from the last capture must finish bit-identically.
  DesModel full(Parameters{}, 20260805);
  const ReplicationResult full_result = full.run(0.0, 60.0 * kHour);
  for (const std::uint64_t every : {1ULL, 7ULL, 97ULL, 1000ULL}) {
    SCOPED_TRACE("every=" + std::to_string(every));
    DesModel m1(Parameters{}, 20260805);
    std::string payload;
    std::vector<std::uint64_t> captured_at;
    m1.set_fire_hook(every, [&] {
      captured_at.push_back(m1.queue_stats().fired);
      StateWriter w;
      m1.save_state(w);
      payload = w.take();
    });
    const std::uint64_t kill_at = 2 * every + every / 2 + 1;
    m1.set_event_budget(kill_at);
    EXPECT_THROW((void)m1.run(0.0, 60.0 * kHour), EventBudgetExceeded);
    EXPECT_EQ(m1.queue_stats().fired, kill_at);
    std::vector<std::uint64_t> boundaries;
    for (std::uint64_t n = every; n <= kill_at; n += every) boundaries.push_back(n);
    EXPECT_EQ(captured_at, boundaries);

    DesModel m2(Parameters{}, 1);
    StateReader r(payload);
    m2.restore_state(r);
    r.expect_end();
    expect_same_replication(m2.continue_run(0.0, 60.0 * kHour), full_result);
    EXPECT_EQ(m2.queue_stats().fired, full.queue_stats().fired);
    EXPECT_EQ(m2.queue_stats().scheduled, full.queue_stats().scheduled);
  }
}

/// The state of the golden replication after exactly `at` fired events.
std::string des_payload_at(std::uint64_t at) {
  std::string payload;
  DesModel m(Parameters{}, 20260805);
  m.set_fire_hook(at, [&] {
    StateWriter w;
    m.save_state(w);
    payload = w.take();
  });
  m.set_event_budget(at);
  EXPECT_THROW((void)m.run(0.0, 60.0 * kHour), EventBudgetExceeded);
  return payload;
}

// The v2 payload ends with the pending set: the clock, four counters
// (scheduled, fired, cancelled, live peak), then 19 (time, seq) slots.
constexpr std::size_t kPendingSlots = 19;
constexpr std::size_t kPendingBytes = 5 * 8 + kPendingSlots * 16;

std::uint64_t get_u64(const std::string& s, std::size_t at) {
  std::uint64_t v = 0;
  for (int b = 7; b >= 0; --b) v = (v << 8) | static_cast<unsigned char>(s[at + b]);
  return v;
}
void put_u64(std::string& s, std::size_t at, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) s[at + b] = static_cast<char>((v >> (8 * b)) & 0xFF);
}
double get_f64(const std::string& s, std::size_t at) {
  const std::uint64_t bits = get_u64(s, at);
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}
void put_f64(std::string& s, std::size_t at, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof d);
  put_u64(s, at, bits);
}

SnapshotFault restore_fault(const std::string& payload) {
  return fault_of([&] {
    DesModel m(Parameters{}, 1);
    StateReader r(payload);
    m.restore_state(r);
    r.expect_end();
  });
}

TEST(SnapshotDesResume, PendingSetIsValidatedBeforeRestore) {
  // The checks sim::PendingSet::restore_state makes on its keys, on the
  // slot array: armed times finite and >= the clock, sequence numbers below
  // the counter and distinct, counters consistent with the armed slots.
  const std::string good = des_payload_at(1000);
  const std::size_t base = good.size() - kPendingBytes;
  const std::size_t slots = base + 5 * 8;
  const double now = get_f64(good, base);
  const std::uint64_t next_seq = get_u64(good, base + 8);
  std::vector<std::size_t> armed, empty;
  for (std::size_t s = 0; s < kPendingSlots; ++s) {
    (std::isinf(get_f64(good, slots + 16 * s)) ? empty : armed).push_back(slots + 16 * s);
  }
  ASSERT_GE(armed.size(), 2u);
  ASSERT_FALSE(empty.empty());
  {
    DesModel m(Parameters{}, 1);
    StateReader r(good);
    m.restore_state(r);
    r.expect_end();
  }

  const auto mutated = [&good](const std::function<void(std::string&)>& edit) {
    std::string bad = good;
    edit(bad);
    return bad;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"nan clock", mutated([&](std::string& s) { put_f64(s, base, nan); })},
      {"nan time", mutated([&](std::string& s) { put_f64(s, armed[0], nan); })},
      {"-inf time", mutated([&](std::string& s) { put_f64(s, armed[0], -inf); })},
      {"past time", mutated([&](std::string& s) { put_f64(s, armed[0], now - 1.0); })},
      {"seq at counter", mutated([&](std::string& s) { put_u64(s, armed[0] + 8, next_seq); })},
      {"duplicate seq",
       mutated([&](std::string& s) { put_u64(s, armed[1] + 8, get_u64(s, armed[0] + 8)); })},
      {"empty slot seq", mutated([&](std::string& s) { put_u64(s, empty[0] + 8, 1); })},
      // seq 0 (the first interval timer, long fired) is unique: only the
      // counters can reject this one.
      {"extra armed slot", mutated([&](std::string& s) { put_f64(s, empty[0], now); })},
      {"scheduled count", mutated([&](std::string& s) { put_u64(s, base + 8, next_seq + 1); })},
      {"live peak", mutated([&](std::string& s) { put_u64(s, base + 32, 1); })},
  };
  for (const auto& [name, payload] : cases) {
    SCOPED_TRACE(name);
    EXPECT_EQ(restore_fault(payload), SnapshotFault::kCorrupt);
  }
}

TEST(SnapshotDesResume, TruncationInsideThePayloadIsRejected) {
  // Every prefix that cuts the fixed-width state or the pending set fails
  // as truncated (the RNG streams before them are length-prefixed text).
  const std::string good = des_payload_at(97);
  for (std::size_t len = good.size() - kPendingBytes - 400; len < good.size(); ++len) {
    EXPECT_EQ(restore_fault(good.substr(0, len)), SnapshotFault::kTruncated) << len;
  }
}

TEST(SnapshotDesResume, ModelWithArmedExtensionEventsRefusesToSave) {
  // Subclass events and their state are not part of the DES payload; a
  // snapshot of them must fail loudly instead of dropping them.
  Parameters p;
  p.num_processors = 8192;
  ckptsim::SpatialCorrelation spatial;
  spatial.probability = 1.0;
  spatial.factor = 500.0;
  ckptsim::NodeLevelModel model(p, spatial, 7);
  bool refused = false;
  model.set_fire_hook(1, [&] {
    StateWriter w;
    try {
      model.save_state(w);
    } catch (const std::logic_error&) {
      refused = true;
      throw;
    }
  });
  EXPECT_THROW((void)model.run(0.0, 2000.0 * kHour), std::logic_error);
  EXPECT_TRUE(refused);
}

// --- SAN executor: same property on the 12-submodel SAN ------------------

constexpr std::uint64_t kSanGoldenChecksum = 0xfd90e5a4dba98054ULL;

std::string san_step_trace(ckptsim::san::Executor& exec, std::size_t steps) {
  std::string s;
  char buf[96];
  for (std::size_t i = 0; i < steps; ++i) {
    if (!exec.step()) break;
    std::snprintf(buf, sizeof buf, "%.17g|%llu;", exec.now(),
                  static_cast<unsigned long long>(exec.total_firings()));
    s += buf;
  }
  return s;
}

std::uint64_t san_resumed_checksum(std::size_t cut, std::size_t steps) {
  const ckptsim::SanCheckpointModel san1{Parameters{}};
  ckptsim::san::Executor e1(san1.model(), 20260805);
  std::string trace = san_step_trace(e1, cut);
  StateWriter w;
  e1.save_state(w);
  const std::string payload = w.take();

  // A separately constructed (structurally identical) model instance, as a
  // restarted process would build — and a different constructor seed.
  const ckptsim::SanCheckpointModel san2{Parameters{}};
  ckptsim::san::Executor e2(san2.model(), 7);
  StateReader r(payload);
  e2.restore_state(r);
  r.expect_end();
  trace += san_step_trace(e2, steps - cut);
  return fnv1a64(trace);
}

TEST(SnapshotSanResume, KillAtVariedStepsReproducesGoldenTrajectory) {
  for (const std::size_t cut : {1u, 777u, 9999u}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    EXPECT_EQ(san_resumed_checksum(cut, 20000), kSanGoldenChecksum);
  }
}

TEST(SnapshotSanResume, PendingSetIsValidatedBeforeRestore) {
  // The executor saves its pending set last: the clock, four counters
  // (scheduled, fired, cancelled, live peak), then (time, seq) per
  // activity.  Before it come the activation table (u64 count, then per
  // activity an enabled byte and a u64 marking version), the candidate
  // table (u64 count and a byte per activity) and the timed-candidate list,
  // empty at a step boundary (a u64 0).
  const ckptsim::SanCheckpointModel san{Parameters{}};
  const std::size_t n = san.model().activity_count();
  ckptsim::san::Executor e1(san.model(), 20260805);
  (void)san_step_trace(e1, 100);
  StateWriter w;
  e1.save_state(w);
  const std::string good = w.take();
  const std::size_t base = good.size() - (5 * 8 + 16 * n);
  const std::size_t activation = base - 8 - (8 + n) - (8 + 9 * n);
  ASSERT_EQ(get_u64(good, base - 8), 0u);
  ASSERT_EQ(get_u64(good, base - 8 - (8 + n)), n);
  ASSERT_EQ(get_u64(good, activation), n);
  const auto key_at = [base](std::size_t i) { return base + 5 * 8 + 16 * i; };
  const auto enabled_at = [activation](std::size_t i) { return activation + 8 + 9 * i; };
  std::vector<std::size_t> armed, idle_timed;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isinf(get_f64(good, key_at(i)))) {
      armed.push_back(i);
    } else if (san.model().activity(ckptsim::san::ActivityId{static_cast<std::uint32_t>(i)})
                   .timed) {
      idle_timed.push_back(i);
    }
  }
  ASSERT_GE(armed.size(), 2u);
  ASSERT_FALSE(idle_timed.empty());

  const auto restore = [&san](const std::string& payload) {
    ckptsim::san::Executor e2(san.model(), 7);
    StateReader r(payload);
    e2.restore_state(r);
    r.expect_end();
  };
  restore(good);
  const auto mutated = [&good](const std::function<void(std::string&)>& edit) {
    std::string bad = good;
    edit(bad);
    return bad;
  };
  const double now = get_f64(good, base);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"time before the clock",
       mutated([&](std::string& s) { put_f64(s, key_at(armed[0]), now - 1.0); })},
      {"duplicate seq", mutated([&](std::string& s) {
         put_u64(s, key_at(armed[1]) + 8, get_u64(s, key_at(armed[0]) + 8));
       })},
      {"counters do not add up",
       mutated([&](std::string& s) { put_u64(s, base + 16, get_u64(s, base + 16) + 1); })},
      {"armed key on a disabled activity",
       mutated([&](std::string& s) { s[enabled_at(armed[0])] = 0; })},
      {"enabled activity with no armed key",
       mutated([&](std::string& s) { s[enabled_at(idle_timed[0])] = 1; })},
  };
  for (const auto& [name, payload] : cases) {
    SCOPED_TRACE(name);
    EXPECT_EQ(fault_of([&] { restore(payload); }), SnapshotFault::kCorrupt);
  }
}

TEST(SnapshotSanResume, TruncationInsideThePendingSetIsRejected) {
  // Every prefix that cuts the activation tables or the pending set fails
  // as truncated.
  const ckptsim::SanCheckpointModel san{Parameters{}};
  const std::size_t n = san.model().activity_count();
  ckptsim::san::Executor e1(san.model(), 20260805);
  (void)san_step_trace(e1, 50);
  StateWriter w;
  e1.save_state(w);
  const std::string good = w.take();
  const std::size_t tables = (8 + 9 * n) + (8 + n) + 8 + (5 * 8 + 16 * n);
  for (std::size_t len = good.size() - tables; len < good.size(); ++len) {
    EXPECT_EQ(fault_of([&] {
                ckptsim::san::Executor e2(san.model(), 7);
                StateReader r(std::string_view(good).substr(0, len));
                e2.restore_state(r);
              }),
              SnapshotFault::kTruncated)
        << len;
  }
}

TEST(SnapshotSanResume, RestoreNeedsAFreshExecutor) {
  const ckptsim::SanCheckpointModel san{Parameters{}};
  ckptsim::san::Executor e1(san.model(), 20260805);
  (void)san_step_trace(e1, 10);
  StateWriter w;
  e1.save_state(w);
  const std::string payload = w.take();
  ckptsim::san::Executor started(san.model(), 1);
  (void)started.step();
  StateReader r(payload);
  EXPECT_THROW(started.restore_state(r), std::logic_error);
  ckptsim::san::Executor fresh(san.model(), 1);
  EXPECT_THROW((void)fresh.save_state(w), std::logic_error);  // never started
}

TEST(SnapshotSanResume, KindMismatchRejectsDesSnapshotInSanReader) {
  // A DES snapshot file can never be fed into a SAN restore: the container
  // kind gates it before any payload parse.
  std::string payload;
  DesModel m(Parameters{}, 20260805);
  m.set_fire_hook(50, [&] {
    StateWriter w;
    m.save_state(w);
    payload = w.take();
  });
  m.set_event_budget(50);
  EXPECT_THROW((void)m.run(0.0, 60.0 * kHour), EventBudgetExceeded);

  TempDir dir("kind");
  const std::string path = dir.file("des.snap");
  write_snapshot_file(path, kKindDesModel, payload);
  EXPECT_EQ(fault_of([&] { (void)read_snapshot_file(path, kKindSanExecutor); }),
            SnapshotFault::kKindMismatch);
}

// --- Runner / sweep integration (satellite: kill-at-every-K regression) ---

RunSpec fast_spec() {
  RunSpec spec;
  spec.transient = 20.0 * kHour;
  spec.horizon = 300.0 * kHour;
  spec.replications = 3;
  return spec;
}

void expect_same_run(const RunResult& a, const RunResult& b) {
  // Canonical JSON renders every double %.17g — full byte identity.
  ckptsim::obs::JsonWriter wa, wb;
  ckptsim::write_run_result(wa, a);
  ckptsim::write_run_result(wb, b);
  EXPECT_EQ(wa.str(), wb.str());
}

TEST(SnapshotRunner, KillAtVariedEventCountsThenResumeMatchesCleanRun) {
  const RunResult clean = ckptsim::run_model(Parameters{}, fast_spec());

  for (const std::size_t jobs : {1u, 4u}) {
    // 700 lands on a snapshot boundary; 1357 falls between boundaries, so
    // the resume re-executes the tail since the last capture.
    for (const std::uint64_t kill_at : {700ULL, 1357ULL}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " kill_at=" + std::to_string(kill_at));
      TempDir dir("runner_" + std::to_string(jobs) + "_" + std::to_string(kill_at));
      RunSpec spec = fast_spec();
      spec.exec.jobs = jobs;
      spec.snapshot_every_events = 250;
      spec.snapshot_dir = dir.path;
      spec.watchdog.max_events = kill_at;
      try {
        (void)ckptsim::run_model(Parameters{}, spec);
        FAIL() << "watchdog budget should have aborted the run";
      } catch (const SimError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kEventBudgetExceeded);
      }
      EXPECT_TRUE(snapshot_exists(dir.file("rep-0.snap")));

      spec.watchdog.max_events = 0;
      const RunResult resumed = ckptsim::run_model(Parameters{}, spec);
      expect_same_run(resumed, clean);
      // Completed replications retire their snapshots.
      for (std::size_t rep = 0; rep < spec.replications; ++rep) {
        EXPECT_FALSE(snapshot_exists(dir.file("rep-" + std::to_string(rep) + ".snap")));
      }
    }
  }
}

TEST(SnapshotRunner, CorruptSnapshotIsStructuredFailureAndRetryRecovers) {
  const RunResult clean = ckptsim::run_model(Parameters{}, fast_spec());

  TempDir dir("corrupt");
  {
    std::ofstream out(dir.file("rep-0.snap"), std::ios::binary);
    out << "this is not a snapshot";
  }
  RunSpec spec = fast_spec();
  spec.snapshot_every_events = 250;
  spec.snapshot_dir = dir.path;
  spec.on_failure.mode = ckptsim::FailurePolicy::Mode::kRetry;
  spec.on_failure.max_retries = 1;
  // The corrupt file fails replication 0's first attempt with a structured
  // code; the retry starts clean (the file is removed, the canonical seed
  // is kept) and the aggregate stays bit-identical to a clean run.
  const RunResult recovered = ckptsim::run_model(Parameters{}, spec);
  RunResult stripped = recovered;
  stripped.failures = {};  // only the recovery accounting may differ
  expect_same_run(stripped, clean);
  ASSERT_EQ(recovered.failures.recovered.size(), 1u);
  EXPECT_EQ(recovered.failures.recovered[0].replication, 0u);
  EXPECT_EQ(recovered.failures.recovered[0].code, ErrorCode::kSnapshotCorrupt);

  // Fail-fast surfaces the same structured code directly.
  {
    std::ofstream out(dir.file("rep-0.snap"), std::ios::binary);
    out << "this is not a snapshot";
  }
  spec.on_failure = ckptsim::FailurePolicy{};
  try {
    (void)ckptsim::run_model(Parameters{}, spec);
    FAIL() << "corrupt snapshot should fail the run under fail-fast";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSnapshotCorrupt);
  }
}

TEST(SnapshotRunner, SkippedReplicationDoesNotLeakSnapshotFile) {
  // Regression: a replication dropped under the skip policy used to leave
  // its .snap behind, so the next run of the same point wrongly resumed
  // mid-failure (or re-rejected a corrupt file forever).
  TempDir dir("skip_leak");
  {
    std::ofstream out(dir.file("rep-0.snap"), std::ios::binary);
    out << "this is not a snapshot";
  }
  RunSpec spec = fast_spec();
  spec.snapshot_every_events = 250;
  spec.snapshot_dir = dir.path;
  spec.on_failure.mode = ckptsim::FailurePolicy::Mode::kSkip;
  const RunResult result = ckptsim::run_model(Parameters{}, spec);
  ASSERT_EQ(result.failures.skipped.size(), 1u);
  EXPECT_EQ(result.failures.skipped[0].replication, 0u);
  EXPECT_EQ(result.failures.skipped[0].code, ErrorCode::kSnapshotCorrupt);
  // Neither the skipped replication's corrupt file nor the completed
  // replications' retired snapshots may linger.
  for (std::size_t rep = 0; rep < spec.replications; ++rep) {
    EXPECT_FALSE(snapshot_exists(dir.file("rep-" + std::to_string(rep) + ".snap")));
  }
  // A fresh run of the same spec starts clean and sees no stale file.
  const RunResult again = ckptsim::run_model(Parameters{}, spec);
  EXPECT_TRUE(again.failures.skipped.empty());
}

TEST(SnapshotRunner, StaleContextIsRejectedNotResumed) {
  TempDir dir("ctx");
  const Parameters params{};
  const double transient = 20.0 * kHour;
  const double horizon = 300.0 * kHour;
  SnapshotSpec snap;
  snap.every = 200;
  snap.path = dir.file("ctx.snap");
  snap.context =
      ckptsim::snapshot_run_context(params, 42, transient, horizon, EngineKind::kDes, 0);
  EXPECT_THROW((void)ckptsim::run_replication(params, EngineKind::kDes, 7, transient, horizon,
                                              nullptr, 600, {}, &snap),
               EventBudgetExceeded);
  ASSERT_TRUE(snapshot_exists(snap.path));

  // Same file, different run fingerprint (another master seed): rejected as
  // stale — and left on disk, never half-consumed.
  SnapshotSpec stale = snap;
  stale.context =
      ckptsim::snapshot_run_context(params, 43, transient, horizon, EngineKind::kDes, 0);
  EXPECT_EQ(fault_of([&] {
              (void)ckptsim::run_replication(params, EngineKind::kDes, 7, transient, horizon,
                                             nullptr, 0, {}, &stale);
            }),
            SnapshotFault::kContextMismatch);
  EXPECT_TRUE(snapshot_exists(snap.path));

  // The original context resumes and completes; the snapshot is retired.
  (void)ckptsim::run_replication(params, EngineKind::kDes, 7, transient, horizon, nullptr, 0, {},
                                 &snap);
  EXPECT_FALSE(snapshot_exists(snap.path));
}

TEST(SnapshotRunner, VersionOneSnapshotIsMismatchNotCorrupt) {
  // A .snap left by a build that wrote format version 1 (event-queue DES
  // state) is a clean version mismatch after an upgrade, never "corrupt".
  const RunResult clean = ckptsim::run_model(Parameters{}, fast_spec());
  TempDir dir("v1");
  const auto plant_v1 = [&dir] {
    std::string file = encode_snapshot(kKindDesModel, sample_payload());
    file[8] = 1;  // u32 LE format version at bytes 8..11
    file[9] = file[10] = file[11] = 0;
    std::ofstream(dir.file("rep-0.snap"), std::ios::binary) << file;
  };
  plant_v1();
  RunSpec spec = fast_spec();
  spec.snapshot_every_events = 250;
  spec.snapshot_dir = dir.path;
  try {
    (void)ckptsim::run_model(Parameters{}, spec);
    FAIL() << "a version-1 snapshot should fail the run under fail-fast";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSnapshotMismatch) << e.what();
  }

  // Retry removes the stale file and reruns replication 0 on its canonical
  // seed: the aggregate is bit-identical to a plain run.
  plant_v1();
  spec.on_failure.mode = ckptsim::FailurePolicy::Mode::kRetry;
  spec.on_failure.max_retries = 1;
  const RunResult recovered = ckptsim::run_model(Parameters{}, spec);
  ASSERT_EQ(recovered.failures.recovered.size(), 1u);
  EXPECT_EQ(recovered.failures.recovered[0].replication, 0u);
  EXPECT_EQ(recovered.failures.recovered[0].code, ErrorCode::kSnapshotMismatch);
  RunResult stripped = recovered;
  stripped.failures = {};
  expect_same_run(stripped, clean);
}

TEST(SnapshotRunner, FormatTwoSanSnapshotIsMismatchNotCorrupt) {
  // Format 2 saved the SAN executor's event queue with handle ids and a
  // backend byte; format 3 keys its pending set by activity.  A SAN .snap
  // left by a format-2 build is a version mismatch, never "corrupt".
  TempDir dir("san_v2");
  std::string file = encode_snapshot(kKindSanExecutor, sample_payload());
  file[8] = 2;  // u32 LE format version at bytes 8..11
  file[9] = file[10] = file[11] = 0;
  std::ofstream(dir.file("rep-0.snap"), std::ios::binary) << file;
  RunSpec spec = fast_spec();
  spec.replications = 1;
  spec.snapshot_every_events = 250;
  spec.snapshot_dir = dir.path;
  try {
    (void)ckptsim::run_model(Parameters{}, spec, EngineKind::kSan);
    FAIL() << "a format-2 SAN snapshot should fail the run under fail-fast";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSnapshotMismatch) << e.what();
  }
}

TEST(SnapshotRunner, RewrittenFailureTraceIsRejectedOnResume) {
  // The run context names the trace by path only; the snapshot also carries
  // a hash of the trace contents, so a trace rewritten in place between the
  // kill and the resume cannot splice two different traces into one run.
  TempDir dir("trace");
  const std::string trace = dir.file("failures.csv");
  std::ofstream(trace, std::ios::binary) << "0,3600\n1,36000\n2,200000\n3,600000\n";
  Parameters params;
  params.failure_trace_path = trace;
  RunSpec spec = fast_spec();
  spec.replications = 1;
  spec.snapshot_every_events = 250;
  spec.snapshot_dir = dir.path;
  spec.watchdog.max_events = 700;
  EXPECT_THROW((void)ckptsim::run_model(params, spec), SimError);
  ASSERT_TRUE(snapshot_exists(dir.file("rep-0.snap")));

  std::ofstream(trace, std::ios::binary) << "0,3700\n1,36100\n2,200100\n3,600100\n";
  spec.watchdog.max_events = 0;
  try {
    (void)ckptsim::run_model(params, spec);
    FAIL() << "resuming against a rewritten trace must fail";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSnapshotMismatch) << e.what();
    EXPECT_NE(std::string(e.what()).find("changed since the snapshot"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotSweep, KilledSweepResumesBitIdentically) {
  RunSpec spec = fast_spec();
  spec.replications = 2;
  const auto apply = [](Parameters p, double minutes) {
    p.checkpoint_interval = minutes * ckptsim::units::kMinute;
    return p;
  };
  const std::vector<double> xs = {15.0, 30.0};
  const SweepSeries clean = ckptsim::sweep("interval", Parameters{}, xs, apply, spec);

  TempDir dir("sweep");
  RunSpec killed = spec;
  killed.snapshot_every_events = 250;
  killed.snapshot_dir = dir.path;
  killed.watchdog.max_events = 900;
  EXPECT_THROW((void)ckptsim::sweep("interval", Parameters{}, xs, apply, killed), SimError);

  killed.watchdog.max_events = 0;
  const SweepSeries resumed = ckptsim::sweep("interval", Parameters{}, xs, apply, killed);
  ASSERT_EQ(resumed.points.size(), clean.points.size());
  for (std::size_t i = 0; i < clean.points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    expect_same_run(resumed.points[i].result, clean.points[i].result);
  }
}

// --- Campaign ledger and daemon graceful drain ----------------------------

TEST(CampaignLedger, AdmitRetirePendingSurvivesReopen) {
  TempDir dir("ledger");
  const std::string path = dir.file("ledger.jsonl");
  {
    ckptsim::svc::CampaignLedger ledger(path);
    EXPECT_TRUE(ledger.pending().empty());
    ledger.admit("a", R"({"op":"sweep","id":"a"})");
    ledger.admit("b", R"({"op":"sweep","id":"b"})");
    ledger.retire("a");
  }
  ckptsim::svc::CampaignLedger reopened(path);
  const auto pending = reopened.pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].first, "b");
  EXPECT_EQ(pending[0].second, R"({"op":"sweep","id":"b"})");
  reopened.retire("b");
  EXPECT_TRUE(reopened.pending().empty());
}

/// Thread-safe response collector (mirrors test_svc.cc).
struct Collector {
  std::mutex mu;
  std::vector<std::string> lines;
  [[nodiscard]] ckptsim::svc::CampaignServer::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mu);
      lines.push_back(line);
    };
  }
};

const char* kDrainSweep =
    R"({"op":"sweep","id":"r1","axis":"interval","values":[30],)"
    R"("params":{"processors":4096},)"
    R"("spec":{"reps":2,"horizon_hours":2000,"transient_hours":10}})";

TEST(SvcDrain, DrainingServerRejectsNewCampaignsExplicitly) {
  ckptsim::svc::CampaignServer server{ckptsim::svc::ServerConfig{}};
  server.begin_drain();
  Collector out;
  server.handle_line(kDrainSweep, out.sink());
  ASSERT_EQ(out.lines.size(), 1u);
  ckptsim::obs::JsonValue v;
  ASSERT_TRUE(ckptsim::obs::parse_json(out.lines[0], &v)) << out.lines[0];
  ASSERT_NE(v.find("type"), nullptr);
  // An explicit "draining" verdict, not a retryable queue-full rejection.
  EXPECT_EQ(v.find("type")->scalar, "draining");
  ASSERT_NE(v.find("id"), nullptr);
  EXPECT_EQ(v.find("id")->scalar, "r1");
  EXPECT_TRUE(server.drained());
  server.stop();
}

TEST(SvcDrain, DrainedCampaignIsReadmittedAndCompletesByteIdentically) {
  TempDir dir("daemon");
  ckptsim::svc::ServerConfig config;
  config.cache_path = dir.file("cache.jsonl");
  config.ledger_path = dir.file("ledger.jsonl");
  config.snapshot_every_events = 500;
  config.snapshot_dir = dir.file("snapshots");
  config.workers = 2;

  {  // Daemon #1: admit, let workers start, then SIGTERM-style drain.
    ckptsim::svc::CampaignServer server(config);
    Collector out;
    server.handle_line(kDrainSweep, out.sink());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.begin_drain();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!server.drained()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "drain never settled";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.stop();
  }

  {  // Daemon #2: the ledger re-admits the campaign; snapshots resume it.
    ckptsim::svc::CampaignServer server(config);
    Collector recovered;
    EXPECT_EQ(server.readmit_pending(recovered.sink()), 1u);
    server.drain();
    // Terminal "done" reached on the recovered stream; ledger now empty.
    ASSERT_FALSE(recovered.lines.empty());
    EXPECT_NE(recovered.lines.back().find("\"type\": \"done\""), std::string::npos)
        << recovered.lines.back();
    ckptsim::svc::CampaignServer third(config);
    EXPECT_EQ(third.readmit_pending(recovered.sink()), 0u);
    third.stop();

    // The finished point is in the cache: a re-submission is served from it.
    Collector warm;
    server.handle_line(kDrainSweep, warm.sink());
    server.drain();
    ASSERT_EQ(warm.lines.size(), 3u);  // accepted, point, done
    EXPECT_NE(warm.lines[1].find("\"cached\": true"), std::string::npos) << warm.lines[1];

    // Bit-identical to a cold, never-interrupted, memory-only run.
    ckptsim::svc::CampaignServer cold{ckptsim::svc::ServerConfig{}};
    Collector cold_out;
    cold.handle_line(kDrainSweep, cold_out.sink());
    cold.drain();
    ASSERT_EQ(cold_out.lines.size(), 3u);
    std::string expected = cold_out.lines[1];
    const std::size_t flag = expected.find("\"cached\": false");
    ASSERT_NE(flag, std::string::npos);
    expected.replace(flag, std::string("\"cached\": false").size(), "\"cached\": true");
    EXPECT_EQ(warm.lines[1], expected);
    cold.stop();
    server.stop();
  }
}

TEST(SvcDrain, DrainedOpIsReadmittedAndCompletes) {
  // An op has a ledger record as a sweep does: a drain ends its stream with
  // "draining" and leaves it pending, and the next start re-admits it and
  // serves the candidates the first run finished from the cache.
  TempDir dir("drained_op");
  ckptsim::svc::ServerConfig config;
  config.cache_path = dir.file("cache.jsonl");
  config.ledger_path = dir.file("ledger.jsonl");
  config.workers = 2;
  const std::string op =
      R"({"op":"optimize","id":"o1","grid":5,"refine":2,"params":{"processors":4096},)"
      R"("spec":{"reps":2,"horizon_hours":100000,"transient_hours":10}})";
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  {  // Drain once the first of the op's 8 candidates is out.
    ckptsim::svc::CampaignServer server(config);
    Collector out;
    server.handle_line(op, out.sink());
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(out.mu);
        if (out.lines.size() >= 2) break;  // accepted, the first candidate
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no candidate came";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.begin_drain();
    while (!server.drained()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "drain never settled";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.stop();
    EXPECT_NE(out.lines.back().find(R"("type": "draining")"), std::string::npos)
        << out.lines.back();
  }
  EXPECT_EQ(ckptsim::svc::CampaignLedger(config.ledger_path).pending().size(), 1u);
  {
    ckptsim::svc::CampaignServer server(config);
    Collector recovered;
    EXPECT_EQ(server.readmit_pending(recovered.sink()), 1u);
    server.drain();
    ASSERT_FALSE(recovered.lines.empty());
    EXPECT_NE(recovered.lines.back().find(R"("type": "done")"), std::string::npos)
        << recovered.lines.back();
    EXPECT_GT(server.metrics().service().snapshot().cache_hits, 0u);
  }
  EXPECT_TRUE(ckptsim::svc::CampaignLedger(config.ledger_path).pending().empty());
}

}  // namespace
