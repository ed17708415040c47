// Statistical validation of the proactive layer at pinned seeds: the
// predictor's delivered precision and recall converge to their configured
// values in full system runs, the false-alarm process matches its derived
// Poisson rate, and the Bernoulli hit process passes a chi-square test
// across several recall settings.  Runs under the `stats` ctest label with
// the other long-loop statistical suites.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "src/model/parameters.h"
#include "src/proactive/predictor.h"
#include "src/proactive/run.h"
#include "src/sim/rng.h"

namespace {

using ckptsim::Parameters;
using ckptsim::ProactivePolicy;
using ckptsim::RunSpec;
using ckptsim::proactive::FailurePredictor;
using ckptsim::proactive::ProactiveResult;
using ckptsim::proactive::run_proactive;
using ckptsim::sim::RngPool;
using ckptsim::units::kHour;
using ckptsim::units::kMinute;

Parameters predictor_params(double precision, double recall) {
  Parameters p;
  p.predictor_enabled = true;
  p.predictor_precision = precision;
  p.predictor_recall = recall;
  p.predictor_lead_time = 5.0 * kMinute;
  return p;
}

TEST(ProactiveStats, BernoulliHitProcessPassesChiSquare) {
  // 10000 armed failures at each recall; the summed z^2 over the three
  // settings is chi-square with 3 degrees of freedom.  Critical value at
  // alpha = 0.001: 16.27 — ample margin for a correct Bernoulli, none for
  // a swapped recall/precision or an off-by-one stream.
  const double recalls[] = {0.2, 0.5, 0.9};
  const std::size_t n = 10000;
  double chi2 = 0.0;
  std::uint64_t pool_seed = 40;
  for (const double recall : recalls) {
    const Parameters p = predictor_params(1.0, recall);
    RngPool pool(pool_seed++);
    FailurePredictor pred(p, pool, 1e-3);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (pred.predict(0.0, 1e9).has_value()) ++hits;
    }
    const double nn = static_cast<double>(n);
    const double z =
        (static_cast<double>(hits) - nn * recall) / std::sqrt(nn * recall * (1.0 - recall));
    chi2 += z * z;
  }
  EXPECT_LT(chi2, 16.27) << "chi2(3) = " << chi2;
}

TEST(ProactiveStats, DeliveredPrecisionConvergesInSystemRuns) {
  // Among all warnings a full run delivers, the fraction preceding a
  // genuine failure should converge to the configured precision.
  const double precision = 0.8;
  Parameters p = predictor_params(precision, 0.7);
  RunSpec spec;
  spec.transient = 20.0 * kHour;
  spec.horizon = 1000.0 * kHour;
  spec.replications = 4;
  const ProactiveResult r = run_proactive(p, spec);
  const double warnings =
      static_cast<double>(r.totals.predictions_true + r.totals.false_alarms);
  ASSERT_GT(warnings, 500.0);
  const double hat = static_cast<double>(r.totals.predictions_true) / warnings;
  // Binomial z-bound at 4 sigma plus slack for warning-delivery edge
  // effects (a warning races the re-arm of its failure).
  const double sigma = std::sqrt(precision * (1.0 - precision) / warnings);
  EXPECT_NEAR(hat, precision, 4.0 * sigma + 0.02);
}

TEST(ProactiveStats, DeliveredRecallConvergesInSystemRuns) {
  const double recall = 0.6;
  Parameters p = predictor_params(0.9, recall);
  RunSpec spec;
  spec.transient = 20.0 * kHour;
  spec.horizon = 1000.0 * kHour;
  spec.replications = 4;
  const ProactiveResult r = run_proactive(p, spec);
  std::uint64_t failures = 0;
  for (const std::uint64_t f : r.failures_per_rep) failures += f;
  ASSERT_GT(failures, 500u);
  const double hat =
      static_cast<double>(r.totals.predictions_true) / static_cast<double>(failures);
  const double sigma = std::sqrt(recall * (1.0 - recall) / static_cast<double>(failures));
  // failures_per_rep counts independent + correlated compute failures; with
  // correlation off it is exactly the predictor's observation stream, up to
  // warning-vs-re-arm races — hence the additive slack.
  EXPECT_NEAR(hat, recall, 4.0 * sigma + 0.03);
}

TEST(ProactiveStats, FalseAlarmCountMatchesDerivedPoissonRate) {
  const double precision = 0.5, recall = 0.8;
  Parameters p = predictor_params(precision, recall);
  RunSpec spec;
  spec.transient = 20.0 * kHour;
  spec.horizon = 1000.0 * kHour;
  spec.replications = 4;
  const ProactiveResult r = run_proactive(p, spec);
  // rate_false = recall * lambda * (1 - precision) / precision over the
  // post-warmup window of every replication.
  const double lambda = p.system_failure_rate();
  const double expected = recall * lambda * (1.0 - precision) / precision * spec.horizon *
                          static_cast<double>(spec.replications);
  ASSERT_GT(expected, 100.0);
  const double observed = static_cast<double>(r.totals.false_alarms);
  // Poisson: sd = sqrt(mean); 5 sigma keeps the pinned-seed test exact but
  // sensitive to a wrong rate derivation (a factor of 2 is ~20 sigma here).
  EXPECT_NEAR(observed, expected, 5.0 * std::sqrt(expected));
}

TEST(ProactiveStats, PerfectPredictorDegenerateLimits) {
  // precision 1, recall 1: every failure warned, zero false alarms — and
  // the useful fraction under migrate strictly dominates the baseline.
  Parameters p = predictor_params(1.0, 1.0);
  p.predictor_lead_time = 10.0 * kMinute;
  RunSpec spec;
  spec.transient = 20.0 * kHour;
  spec.horizon = 500.0 * kHour;
  spec.replications = 3;
  const ProactiveResult observe = run_proactive(p, spec);
  EXPECT_EQ(observe.totals.false_alarms, 0u);
  EXPECT_GT(observe.totals.predictions_true, 0u);

  Parameters migrate = p;
  migrate.proactive_policy = ProactivePolicy::kMigrate;
  migrate.migration_time = 30.0;
  const ProactiveResult r = run_proactive(migrate, spec);
  EXPECT_EQ(r.failures_checksum(), observe.failures_checksum());
  EXPECT_GT(r.run.useful_fraction.mean, observe.run.useful_fraction.mean);
}

}  // namespace
