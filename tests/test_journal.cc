// Sweep checkpoint/resume: the SweepJournal contract.  The load-bearing
// property is crash-safe exact resume — a journal written by a killed sweep
// restores completed points bit-identically and recomputes only the rest.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/fault.h"
#include "src/core/journal.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/parameters.h"

namespace {

using ckptsim::EngineKind;
using ckptsim::ErrorCode;
using ckptsim::Parameters;
using ckptsim::ReplicationFailure;
using ckptsim::RunResult;
using ckptsim::RunSpec;
using ckptsim::SimError;
using ckptsim::SweepJournal;
using ckptsim::units::kHour;
using ckptsim::units::kMinute;

RunSpec fast_spec() {
  RunSpec s;
  s.transient = 20.0 * kHour;
  s.horizon = 300.0 * kHour;
  s.replications = 3;
  return s;
}

/// Unique temp path per test; removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + "ckptsim_" + name + "_" +
             std::to_string(::getpid()) + ".jsonl") {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

Parameters apply_interval(Parameters p, double minutes) {
  p.checkpoint_interval = minutes * kMinute;
  return p;
}

TEST(JournalFingerprint, SensitiveToEverythingThatChangesResults) {
  const Parameters p;
  const RunSpec spec = fast_spec();
  const std::uint64_t base =
      ckptsim::journal_fingerprint("s", p, spec, EngineKind::kDes, 30.0);
  EXPECT_EQ(base, ckptsim::journal_fingerprint("s", p, spec, EngineKind::kDes, 30.0));

  EXPECT_NE(base, ckptsim::journal_fingerprint("other", p, spec, EngineKind::kDes, 30.0));
  EXPECT_NE(base, ckptsim::journal_fingerprint("s", p, spec, EngineKind::kSan, 30.0));
  EXPECT_NE(base, ckptsim::journal_fingerprint("s", p, spec, EngineKind::kDes, 31.0));

  Parameters p2 = p;
  p2.mttf_node *= 2.0;
  EXPECT_NE(base, ckptsim::journal_fingerprint("s", p2, spec, EngineKind::kDes, 30.0));

  RunSpec spec2 = spec;
  spec2.seed = 7;
  EXPECT_NE(base, ckptsim::journal_fingerprint("s", p, spec2, EngineKind::kDes, 30.0));
  spec2 = spec;
  spec2.replications += 1;
  EXPECT_NE(base, ckptsim::journal_fingerprint("s", p, spec2, EngineKind::kDes, 30.0));

  // exec/observer knobs never change results and must not change identity.
  spec2 = spec;
  spec2.exec.jobs = 7;
  EXPECT_EQ(base, ckptsim::journal_fingerprint("s", p, spec2, EngineKind::kDes, 30.0));
}

TEST(SweepJournal, RecordLookupRoundTripsExactly) {
  const TempFile tmp("roundtrip");
  const auto written = ckptsim::run_model(Parameters{}, fast_spec());
  RunResult decorated = written;
  decorated.failures.skipped.push_back(
      ReplicationFailure{7, 1, ErrorCode::kEventBudgetExceeded, "budget blown"});
  decorated.failures.recovered.push_back(
      ReplicationFailure{2, 3, ErrorCode::kInjectedFault, "quoted \"msg\"\nwith newline"});

  {
    SweepJournal journal(tmp.path);
    EXPECT_EQ(journal.loaded(), 0u);
    journal.record(0xDEADBEEFCAFEF00DULL, 30.0, decorated);
    RunResult same_session;
    ASSERT_TRUE(journal.lookup(0xDEADBEEFCAFEF00DULL, &same_session));
    EXPECT_EQ(same_session.useful_fraction.mean, decorated.useful_fraction.mean);
  }

  SweepJournal reloaded(tmp.path);
  EXPECT_EQ(reloaded.loaded(), 1u);
  RunResult r;
  EXPECT_FALSE(reloaded.lookup(0x1234, &r));
  ASSERT_TRUE(reloaded.lookup(0xDEADBEEFCAFEF00DULL, &r));

  // Bit-exact restoration: doubles are stored as %.17g, which round-trips.
  EXPECT_EQ(r.useful_fraction.mean, decorated.useful_fraction.mean);
  EXPECT_EQ(r.useful_fraction.half_width, decorated.useful_fraction.half_width);
  EXPECT_EQ(r.useful_fraction.level, decorated.useful_fraction.level);
  EXPECT_EQ(r.useful_fraction.samples, decorated.useful_fraction.samples);
  EXPECT_EQ(r.total_useful_work, decorated.total_useful_work);
  EXPECT_EQ(r.replications, decorated.replications);
  EXPECT_EQ(r.fraction_replicates.count(), decorated.fraction_replicates.count());
  EXPECT_EQ(r.fraction_replicates.mean(), decorated.fraction_replicates.mean());
  EXPECT_EQ(r.fraction_replicates.variance(), decorated.fraction_replicates.variance());
  EXPECT_EQ(r.fraction_replicates.min(), decorated.fraction_replicates.min());
  EXPECT_EQ(r.fraction_replicates.max(), decorated.fraction_replicates.max());
  EXPECT_EQ(r.gross_replicates.mean(), decorated.gross_replicates.mean());
  EXPECT_EQ(r.mean_breakdown.executing, decorated.mean_breakdown.executing);
  EXPECT_EQ(r.mean_breakdown.checkpointing, decorated.mean_breakdown.checkpointing);
  EXPECT_EQ(r.mean_breakdown.recovering, decorated.mean_breakdown.recovering);
  EXPECT_EQ(r.mean_breakdown.rebooting, decorated.mean_breakdown.rebooting);
  EXPECT_EQ(r.totals.compute_failures, decorated.totals.compute_failures);
  EXPECT_EQ(r.totals.ckpt_committed, decorated.totals.ckpt_committed);
  EXPECT_EQ(r.totals.reboots, decorated.totals.reboots);

  ASSERT_EQ(r.failures.skipped.size(), 1u);
  EXPECT_EQ(r.failures.skipped[0].replication, 7u);
  EXPECT_EQ(r.failures.skipped[0].code, ErrorCode::kEventBudgetExceeded);
  EXPECT_EQ(r.failures.skipped[0].message, "budget blown");
  ASSERT_EQ(r.failures.recovered.size(), 1u);
  EXPECT_EQ(r.failures.recovered[0].attempts, 3u);
  EXPECT_EQ(r.failures.recovered[0].message, "quoted \"msg\"\nwith newline");
}

TEST(SweepJournal, ResumeRestoresWithoutSimulating) {
  const TempFile tmp("resume");
  const std::vector<double> xs{15.0, 30.0, 60.0};
  const RunSpec spec = fast_spec();

  const auto clean = ckptsim::sweep("s", Parameters{}, xs, apply_interval, spec);

  std::atomic<std::size_t> simulated{0};
  RunSpec counting = spec;
  counting.fault_injection = [&simulated](std::size_t, std::size_t) { simulated.fetch_add(1); };
  {
    SweepJournal journal(tmp.path);
    const auto first = ckptsim::sweep("s", Parameters{}, xs, apply_interval, counting,
                                      EngineKind::kDes, &journal);
    EXPECT_EQ(simulated.load(), xs.size() * spec.replications);
    ASSERT_EQ(first.points.size(), clean.points.size());
  }

  // Fresh journal object, same file: every point restores, nothing runs.
  simulated.store(0);
  SweepJournal journal(tmp.path);
  EXPECT_EQ(journal.loaded(), xs.size());
  const auto resumed = ckptsim::sweep("s", Parameters{}, xs, apply_interval, counting,
                                      EngineKind::kDes, &journal);
  EXPECT_EQ(simulated.load(), 0u);
  ASSERT_EQ(resumed.points.size(), clean.points.size());
  for (std::size_t i = 0; i < clean.points.size(); ++i) {
    EXPECT_EQ(resumed.points[i].result.useful_fraction.mean,
              clean.points[i].result.useful_fraction.mean);
    EXPECT_EQ(resumed.points[i].result.useful_fraction.half_width,
              clean.points[i].result.useful_fraction.half_width);
    EXPECT_EQ(resumed.points[i].result.total_useful_work,
              clean.points[i].result.total_useful_work);
  }
}

TEST(SweepJournal, PartialJournalRecomputesOnlyMissingPoints) {
  // Simulate a kill after two of three points: journal a prefix sweep, then
  // resume the full grid and count what actually runs.
  const TempFile tmp("partial");
  const std::vector<double> xs{15.0, 30.0, 60.0};
  const RunSpec spec = fast_spec();
  const auto clean = ckptsim::sweep("s", Parameters{}, xs, apply_interval, spec);

  {
    SweepJournal journal(tmp.path);
    (void)ckptsim::sweep("s", Parameters{}, {xs[0], xs[1]}, apply_interval, spec,
                         EngineKind::kDes, &journal);
  }

  std::atomic<std::size_t> simulated{0};
  RunSpec counting = spec;
  counting.fault_injection = [&simulated](std::size_t, std::size_t) { simulated.fetch_add(1); };
  SweepJournal journal(tmp.path);
  EXPECT_EQ(journal.loaded(), 2u);
  const auto resumed =
      ckptsim::sweep("s", Parameters{}, xs, apply_interval, counting, EngineKind::kDes, &journal);
  EXPECT_EQ(simulated.load(), spec.replications);  // only the missing point
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(resumed.points[i].result.useful_fraction.mean,
              clean.points[i].result.useful_fraction.mean);
    EXPECT_EQ(resumed.points[i].result.total_useful_work,
              clean.points[i].result.total_useful_work);
  }
}

TEST(SweepJournal, RewrittenFailureTraceReRunsOnResume) {
  // The fingerprint keys on the trace's contents, not its path: a trace
  // rewritten in place re-runs its point instead of resuming a stale one.
  const TempFile tmp("trace");
  const std::string trace = tmp.path + ".csv";
  const auto write_trace = [&trace](const std::string& text) {
    std::ofstream(trace, std::ios::binary) << text;
  };
  Parameters base;
  base.num_processors = 4096;
  base.failure_trace_path = trace;
  const RunSpec spec = fast_spec();
  write_trace("0,3600\n5,90000\n");
  RunResult stale;
  {
    SweepJournal journal(tmp.path);
    stale = ckptsim::sweep("t", base, {30.0}, apply_interval, spec, EngineKind::kDes, &journal)
                .points[0]
                .result;
  }
  write_trace("0,3600\n5,90000\n7,200000\n11,400000\n");
  const RunResult fresh =
      ckptsim::sweep("t", base, {30.0}, apply_interval, spec).points[0].result;
  ASSERT_NE(fresh.useful_fraction.mean, stale.useful_fraction.mean);

  std::atomic<std::size_t> simulated{0};
  RunSpec counting = spec;
  counting.fault_injection = [&simulated](std::size_t, std::size_t) { simulated.fetch_add(1); };
  SweepJournal journal(tmp.path);
  EXPECT_EQ(journal.loaded(), 1u);
  const auto resumed =
      ckptsim::sweep("t", base, {30.0}, apply_interval, counting, EngineKind::kDes, &journal);
  EXPECT_EQ(simulated.load(), spec.replications);
  EXPECT_EQ(resumed.points[0].result.useful_fraction.mean, fresh.useful_fraction.mean);
  std::remove(trace.c_str());
}

TEST(SweepJournal, CancelledSweepJournalsCompletedPoints) {
  const TempFile tmp("cancel");
  const std::vector<double> xs{15.0, 30.0};
  RunSpec spec = fast_spec();
  spec.exec.jobs = 1;  // deterministic task order for this test's script
  std::atomic<bool> cancel{false};
  spec.cancel = &cancel;
  // Trip the cancel flag from inside the first point's replications: later
  // points are abandoned but whatever completed must reach the journal.
  std::atomic<std::size_t> calls{0};
  spec.fault_injection = [&](std::size_t, std::size_t) {
    if (calls.fetch_add(1) + 1 == spec.replications) cancel.store(true);
  };
  {
    SweepJournal journal(tmp.path);
    try {
      (void)ckptsim::sweep("s", Parameters{}, xs, apply_interval, spec, EngineKind::kDes,
                           &journal);
      FAIL() << "expected SimError";
    } catch (const SimError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInterrupted);
    }
  }
  SweepJournal reloaded(tmp.path);
  EXPECT_GE(reloaded.loaded(), 1u);
  EXPECT_LT(reloaded.loaded(), xs.size());
}

TEST(SweepJournal, StaleFingerprintsAreIgnoredNotSpliced) {
  // A journal written under one seed must not satisfy lookups for another:
  // the resumed sweep recomputes instead of splicing in wrong results.
  const TempFile tmp("stale");
  const std::vector<double> xs{15.0, 30.0};
  RunSpec spec = fast_spec();
  {
    SweepJournal journal(tmp.path);
    (void)ckptsim::sweep("s", Parameters{}, xs, apply_interval, spec, EngineKind::kDes,
                         &journal);
  }
  spec.seed = 999;
  std::atomic<std::size_t> simulated{0};
  spec.fault_injection = [&simulated](std::size_t, std::size_t) { simulated.fetch_add(1); };
  SweepJournal journal(tmp.path);
  const auto fresh = ckptsim::sweep("s", Parameters{}, xs, apply_interval, spec,
                                    EngineKind::kDes, &journal);
  EXPECT_EQ(simulated.load(), xs.size() * spec.replications);
  EXPECT_EQ(fresh.points.size(), xs.size());
  // And the journal now carries both generations.
  SweepJournal reloaded(tmp.path);
  EXPECT_EQ(reloaded.loaded(), 2 * xs.size());
}

TEST(SweepJournal, JournalFileIsOneJsonObjectPerLine) {
  const TempFile tmp("format");
  {
    SweepJournal journal(tmp.path);
    journal.record(0xABCDULL, 15.0, RunResult{});
  }
  const std::string content = read_file(tmp.path);
  ASSERT_FALSE(content.empty());
  EXPECT_EQ(content.back(), '\n');
  EXPECT_EQ(content.front(), '{');
  EXPECT_NE(content.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(content.find("\"fp\": \"000000000000abcd\""), std::string::npos);
}

}  // namespace
