// Replication fault isolation: the FailurePolicy / fault-injection contract
// of run_model, sweep, and san::Study::run.  The load-bearing property is
// the retry-determinism invariant — a run that recovers from transient
// failures must be bit-identical to a clean run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/fault.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/parameters.h"
#include "src/san/model.h"
#include "src/san/study.h"

namespace {

using ckptsim::EngineKind;
using ckptsim::ErrorCode;
using ckptsim::FailurePolicy;
using ckptsim::Parameters;
using ckptsim::RunSpec;
using ckptsim::SimError;
using ckptsim::units::kHour;
using ckptsim::units::kMinute;

RunSpec fast_spec() {
  RunSpec s;
  s.transient = 20.0 * kHour;
  s.horizon = 300.0 * kHour;
  s.replications = 4;
  return s;
}

// --------------------------------------------------------------------------
// run_model
// --------------------------------------------------------------------------

TEST(FaultPolicy, FailFastSurfacesInjectedFaultWithContext) {
  RunSpec spec = fast_spec();
  spec.fault_injection = [](std::size_t rep, std::size_t) {
    if (rep == 1) throw std::runtime_error("scripted fault");
  };
  try {
    (void)ckptsim::run_model(Parameters{}, spec);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInjectedFault);
    EXPECT_NE(std::string(e.what()).find("replication 1"), std::string::npos) << e.what();
  }
}

TEST(FaultPolicy, FailFastReportsLowestFailingReplication) {
  // Both 1 and 3 fail; wall-clock completion order must not matter — the
  // surfaced failure is always the smallest index.
  RunSpec spec = fast_spec();
  spec.fault_injection = [](std::size_t rep, std::size_t) {
    if (rep == 1 || rep == 3) throw std::runtime_error("scripted fault");
  };
  for (int trial = 0; trial < 3; ++trial) {
    try {
      (void)ckptsim::run_model(Parameters{}, spec);
      FAIL() << "expected SimError";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("replication 1"), std::string::npos) << e.what();
    }
  }
}

TEST(FaultPolicy, RetryAfterTransientFaultIsBitIdenticalToCleanRun) {
  const auto clean = ckptsim::run_model(Parameters{}, fast_spec());

  RunSpec spec = fast_spec();
  spec.on_failure.mode = FailurePolicy::Mode::kRetry;
  spec.fault_injection = [](std::size_t rep, std::size_t attempt) {
    if (rep == 2 && attempt == 0) throw std::runtime_error("transient hiccup");
  };
  const auto retried = ckptsim::run_model(Parameters{}, spec);

  // A transient failure retries with the canonical replication seed, so
  // every statistic matches the clean run to the bit.
  EXPECT_EQ(retried.useful_fraction.mean, clean.useful_fraction.mean);
  EXPECT_EQ(retried.useful_fraction.half_width, clean.useful_fraction.half_width);
  EXPECT_EQ(retried.total_useful_work, clean.total_useful_work);
  EXPECT_EQ(retried.totals.compute_failures, clean.totals.compute_failures);
  EXPECT_EQ(retried.totals.ckpt_committed, clean.totals.ckpt_committed);
  EXPECT_EQ(retried.replications, clean.replications);

  // ... but the recovery is visible in the accounting.
  ASSERT_EQ(retried.failures.recovered.size(), 1u);
  EXPECT_EQ(retried.failures.recovered[0].replication, 2u);
  EXPECT_EQ(retried.failures.recovered[0].attempts, 2u);
  EXPECT_EQ(retried.failures.recovered[0].code, ErrorCode::kInjectedFault);
  EXPECT_TRUE(clean.failures.clean());
  EXPECT_FALSE(retried.failures.clean());
  EXPECT_EQ(retried.failures.describe(), "1 recovered");
}

TEST(FaultPolicy, RetryExhaustionThrowsRetriesExhausted) {
  RunSpec spec = fast_spec();
  spec.on_failure.mode = FailurePolicy::Mode::kRetry;
  spec.on_failure.max_retries = 2;
  std::atomic<std::size_t> attempts_seen{0};
  spec.fault_injection = [&attempts_seen](std::size_t rep, std::size_t) {
    if (rep == 0) {
      attempts_seen.fetch_add(1);
      throw std::runtime_error("persistent fault");
    }
  };
  try {
    (void)ckptsim::run_model(Parameters{}, spec);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRetriesExhausted);
    EXPECT_NE(std::string(e.what()).find("3 attempt"), std::string::npos) << e.what();
  }
  EXPECT_EQ(attempts_seen.load(), 3u);  // 1 initial + max_retries
}

TEST(FaultPolicy, SkipDropsFailedReplicationAndAccountsIt) {
  RunSpec spec = fast_spec();
  spec.on_failure.mode = FailurePolicy::Mode::kSkip;
  spec.fault_injection = [](std::size_t rep, std::size_t) {
    if (rep == 2) throw std::runtime_error("persistent fault");
  };
  const auto r = ckptsim::run_model(Parameters{}, spec);
  EXPECT_EQ(r.replications, 3u);
  EXPECT_EQ(r.useful_fraction.samples, 3u);
  ASSERT_EQ(r.failures.skipped.size(), 1u);
  EXPECT_EQ(r.failures.skipped[0].replication, 2u);
  EXPECT_EQ(r.failures.skipped[0].code, ErrorCode::kInjectedFault);
  EXPECT_EQ(r.failures.describe(), "1 skipped");
  EXPECT_GT(r.useful_fraction.mean, 0.0);
}

TEST(FaultPolicy, SkipSurvivesEveryReplicationFailing) {
  RunSpec spec = fast_spec();
  spec.on_failure.mode = FailurePolicy::Mode::kSkip;
  spec.fault_injection = [](std::size_t, std::size_t) {
    throw std::runtime_error("nothing works");
  };
  const auto r = ckptsim::run_model(Parameters{}, spec);
  EXPECT_EQ(r.replications, 0u);
  EXPECT_EQ(r.failures.skipped.size(), spec.replications);
}

TEST(FaultPolicy, CancelThrowsInterrupted) {
  RunSpec spec = fast_spec();
  std::atomic<bool> cancel{true};
  spec.cancel = &cancel;
  try {
    (void)ckptsim::run_model(Parameters{}, spec);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInterrupted);
  }
}

TEST(FaultPolicy, ErrorCodeNamesRoundTrip) {
  const ErrorCode codes[] = {
      ErrorCode::kInvalidParameter, ErrorCode::kNonFiniteReward,
      ErrorCode::kLivelock,         ErrorCode::kEventBudgetExceeded,
      ErrorCode::kRetriesExhausted, ErrorCode::kInterrupted,
      ErrorCode::kJournalCorrupt,   ErrorCode::kJournalMismatch,
      ErrorCode::kIoError,          ErrorCode::kInjectedFault,
      ErrorCode::kModelError,
  };
  for (const ErrorCode code : codes) {
    ErrorCode back{};
    ASSERT_TRUE(ckptsim::error_code_from_string(ckptsim::to_string(code), &back));
    EXPECT_EQ(back, code);
  }
  ErrorCode out{};
  EXPECT_FALSE(ckptsim::error_code_from_string("no-such-code", &out));
}

// --------------------------------------------------------------------------
// sweep
// --------------------------------------------------------------------------

TEST(FaultPolicy, SweepRetryIsBitIdenticalToCleanSweep) {
  const std::vector<double> xs{15.0, 30.0, 60.0};
  const auto apply = [](Parameters pp, double x) {
    pp.checkpoint_interval = x * kMinute;
    return pp;
  };
  const auto clean = ckptsim::sweep("s", Parameters{}, xs, apply, fast_spec());

  RunSpec spec = fast_spec();
  spec.on_failure.mode = FailurePolicy::Mode::kRetry;
  // One transient fault somewhere in the middle of the grid: points run
  // (point-major) as point * replications + rep, but the hook only sees the
  // replication index, so fault every first attempt of replication 1.
  spec.fault_injection = [](std::size_t rep, std::size_t attempt) {
    if (rep == 1 && attempt == 0) throw std::runtime_error("transient");
  };
  const auto retried = ckptsim::sweep("s", Parameters{}, xs, apply, spec);

  ASSERT_EQ(retried.points.size(), clean.points.size());
  for (std::size_t i = 0; i < clean.points.size(); ++i) {
    EXPECT_EQ(retried.points[i].result.useful_fraction.mean,
              clean.points[i].result.useful_fraction.mean);
    EXPECT_EQ(retried.points[i].result.total_useful_work,
              clean.points[i].result.total_useful_work);
    EXPECT_EQ(retried.points[i].result.failures.recovered.size(), 1u);
  }
}

TEST(FaultPolicy, SweepFailFastNamesPointAndReplication) {
  const std::vector<double> xs{15.0, 30.0};
  RunSpec spec = fast_spec();
  spec.fault_injection = [](std::size_t rep, std::size_t) {
    if (rep == 3) throw std::runtime_error("scripted fault");
  };
  try {
    (void)ckptsim::sweep("s", Parameters{}, xs,
                         [](Parameters pp, double x) {
                           pp.checkpoint_interval = x * kMinute;
                           return pp;
                         },
                         spec);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInjectedFault);
    const std::string what = e.what();
    EXPECT_NE(what.find("point 0"), std::string::npos) << what;
    EXPECT_NE(what.find("replication 3"), std::string::npos) << what;
  }
}

TEST(FaultPolicy, SweepSkipKeepsAllPointsAndReportsPerPoint) {
  const std::vector<double> xs{15.0, 30.0};
  RunSpec spec = fast_spec();
  spec.on_failure.mode = FailurePolicy::Mode::kSkip;
  spec.fault_injection = [](std::size_t rep, std::size_t) {
    if (rep == 0) throw std::runtime_error("scripted fault");
  };
  const auto series = ckptsim::sweep("s", Parameters{}, xs,
                                     [](Parameters pp, double x) {
                                       pp.checkpoint_interval = x * kMinute;
                                       return pp;
                                     },
                                     spec);
  ASSERT_EQ(series.points.size(), 2u);
  for (const auto& point : series.points) {
    EXPECT_EQ(point.result.replications, 3u);
    EXPECT_EQ(point.result.failures.skipped.size(), 1u);
    EXPECT_GT(point.result.useful_fraction.mean, 0.0);
  }
}

// --------------------------------------------------------------------------
// san::Study
// --------------------------------------------------------------------------

ckptsim::san::Model on_off_model() {
  using namespace ckptsim::san;
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
  return m;
}

TEST(FaultPolicy, StudyWatchdogFailFastThrowsEventBudgetExceeded) {
  const auto m = on_off_model();
  const ckptsim::san::PlaceId on = m.place("on");
  ckptsim::san::Study study(
      m, {{"on", [on](const ckptsim::san::Marking& mk) { return mk.has(on) ? 1.0 : 0.0; }}}, {});
  RunSpec spec;
  spec.transient = 10.0;
  spec.horizon = 1000.0;
  spec.replications = 3;
  spec.seed = 1;
  spec.watchdog.max_events = 5;  // the horizon needs far more firings
  try {
    (void)study.run(spec);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kEventBudgetExceeded);
  }
}

TEST(FaultPolicy, StudyWatchdogSkipAccountsEveryReplication) {
  const auto m = on_off_model();
  const ckptsim::san::PlaceId on = m.place("on");
  ckptsim::san::Study study(
      m, {{"on", [on](const ckptsim::san::Marking& mk) { return mk.has(on) ? 1.0 : 0.0; }}}, {});
  RunSpec spec;
  spec.transient = 10.0;
  spec.horizon = 1000.0;
  spec.replications = 3;
  spec.seed = 1;
  spec.watchdog.max_events = 5;
  spec.on_failure.mode = FailurePolicy::Mode::kSkip;
  const auto result = study.run(spec);
  EXPECT_EQ(result.replications, 0u);
  ASSERT_EQ(result.failures.skipped.size(), 3u);
  for (const auto& f : result.failures.skipped) {
    EXPECT_EQ(f.code, ErrorCode::kEventBudgetExceeded);
  }
}

TEST(FaultPolicy, StudyWithGenerousBudgetMatchesUnbudgetedRun) {
  const auto m = on_off_model();
  const ckptsim::san::PlaceId on = m.place("on");
  const auto reward = [on](const ckptsim::san::Marking& mk) { return mk.has(on) ? 1.0 : 0.0; };
  ckptsim::san::Study study(m, {{"on", reward}}, {});
  RunSpec spec;
  spec.transient = 10.0;
  spec.horizon = 500.0;
  spec.replications = 4;
  spec.seed = 1;
  const auto base = study.run(spec);
  spec.watchdog.max_events = 100000000;
  const auto budgeted = study.run(spec);
  EXPECT_EQ(budgeted.reward("on").interval.mean, base.reward("on").interval.mean);
  EXPECT_EQ(budgeted.total_firings, base.total_firings);
  EXPECT_TRUE(budgeted.failures.clean());
}

TEST(FaultPolicy, StudySpecValidates) {
  const auto m = on_off_model();
  ckptsim::san::Study study(m, {}, {});
  RunSpec bad;
  bad.replications = 0;
  EXPECT_THROW((void)study.run(bad), std::invalid_argument);
  bad = {};
  bad.horizon = -1.0;
  EXPECT_THROW((void)study.run(bad), std::invalid_argument);
  bad = {};
  bad.confidence_level = 1.5;
  EXPECT_THROW((void)study.run(bad), std::invalid_argument);
}

}  // namespace
