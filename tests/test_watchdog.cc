// Watchdog: per-replication event budgets convert runaway replications into
// structured kEventBudgetExceeded failures, and a generous budget never
// perturbs results.
#include <gtest/gtest.h>

#include <string>

#include "src/core/fault.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/sim/pending_set.h"
#include "src/sim/rng.h"

namespace {

using ckptsim::EngineKind;
using ckptsim::ErrorCode;
using ckptsim::FailurePolicy;
using ckptsim::Parameters;
using ckptsim::RunSpec;
using ckptsim::SimError;
using ckptsim::units::kHour;

RunSpec fast_spec() {
  RunSpec s;
  s.transient = 20.0 * kHour;
  s.horizon = 300.0 * kHour;
  s.replications = 3;
  return s;
}

TEST(Watchdog, PendingSetEnforcesFireBudget) {
  ckptsim::sim::PendingSet q(10);
  q.set_fire_budget(3);
  for (std::uint32_t k = 0; k < 10; ++k) q.arm(k, static_cast<double>(k));
  int fired = 0;
  try {
    q.run_until(100.0, [&fired](std::uint32_t) { ++fired; });
    FAIL() << "expected EventBudgetExceeded";
  } catch (const ckptsim::sim::EventBudgetExceeded& e) {
    EXPECT_EQ(e.budget(), 3u);
  }
  EXPECT_EQ(fired, 3);
}

TEST(Watchdog, TinyBudgetFailsFastWithEventBudgetExceeded) {
  RunSpec spec = fast_spec();
  spec.watchdog.max_events = 10;  // a 300 h horizon fires far more events
  try {
    (void)ckptsim::run_model(Parameters{}, spec);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kEventBudgetExceeded);
    EXPECT_NE(std::string(e.what()).find("replication 0"), std::string::npos) << e.what();
  }
}

TEST(Watchdog, TinyBudgetUnderSkipAccountsEveryReplication) {
  RunSpec spec = fast_spec();
  spec.watchdog.max_events = 10;
  spec.on_failure.mode = FailurePolicy::Mode::kSkip;
  const auto r = ckptsim::run_model(Parameters{}, spec);
  EXPECT_EQ(r.replications, 0u);
  ASSERT_EQ(r.failures.skipped.size(), spec.replications);
  for (const auto& f : r.failures.skipped) {
    EXPECT_EQ(f.code, ErrorCode::kEventBudgetExceeded);
    EXPECT_EQ(f.attempts, 1u);
  }
}

TEST(Watchdog, BudgetExceededIsDeterministicSoRetriesRunOut) {
  // Blowing the budget is a deterministic function of (params, seed): a
  // retry with the same seed would blow it again, so the policy derives
  // fresh attempt seeds and, with the same budget, still runs out.
  EXPECT_TRUE(ckptsim::error_is_deterministic(ErrorCode::kEventBudgetExceeded));
  RunSpec spec = fast_spec();
  spec.watchdog.max_events = 10;
  spec.on_failure.mode = FailurePolicy::Mode::kRetry;
  spec.on_failure.max_retries = 1;
  try {
    (void)ckptsim::run_model(Parameters{}, spec);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRetriesExhausted);
  }
}

TEST(Watchdog, GenerousBudgetIsBitIdenticalToUnlimited) {
  const auto unlimited = ckptsim::run_model(Parameters{}, fast_spec());
  RunSpec spec = fast_spec();
  spec.watchdog.max_events = 1ULL << 40;
  const auto budgeted = ckptsim::run_model(Parameters{}, spec);
  EXPECT_EQ(budgeted.useful_fraction.mean, unlimited.useful_fraction.mean);
  EXPECT_EQ(budgeted.useful_fraction.half_width, unlimited.useful_fraction.half_width);
  EXPECT_EQ(budgeted.total_useful_work, unlimited.total_useful_work);
  EXPECT_EQ(budgeted.totals.compute_failures, unlimited.totals.compute_failures);
  EXPECT_TRUE(budgeted.failures.clean());
}

TEST(Watchdog, SanEngineHonoursBudgetToo) {
  RunSpec spec = fast_spec();
  spec.watchdog.max_events = 10;
  try {
    (void)ckptsim::run_model(Parameters{}, spec, EngineKind::kSan);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kEventBudgetExceeded);
  }
}

TEST(Watchdog, DesModelSetEventBudgetThrowsRawException) {
  // The raw model-layer exception, before the driver converts it.
  ckptsim::DesModel model(Parameters{}, ckptsim::sim::replication_seed(42, 0));
  model.set_event_budget(10);
  EXPECT_THROW((void)model.run(0.0, 300.0 * kHour), ckptsim::sim::EventBudgetExceeded);
}

}  // namespace
