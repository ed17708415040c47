// Statistical validation of the confidence-interval machinery: on processes
// with KNOWN means, the empirical coverage of a nominal 95% interval over
// many deterministic seeds must land near 95%.  These tests gate the whole
// stats layer — a wrong t-table or a std_error bug shows up here as
// coverage drifting out of [0.92, 0.98].
//
// Every experiment derives its seed from sim::replication_seed(master, e),
// so the observed coverage is an exact, reproducible number — the bounds
// below allow for the finite experiment count and the mild optimism of
// t-intervals on skewed / discrete parents, not for run-to-run noise.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <random>

#include "src/sim/rng.h"
#include "src/stats/confidence.h"
#include "src/stats/summary.h"

namespace {

using ckptsim::sim::Rng;
using ckptsim::stats::ConfidenceInterval;
using ckptsim::stats::Summary;
using ckptsim::stats::mean_confidence;

constexpr double kLo = 0.92;
constexpr double kHi = 0.98;

/// Empirical coverage of the nominal 95% t-interval over `experiments`
/// independent experiments of `draw(rng)` with true mean `truth`.
template <typename Draw>
double summary_coverage(std::uint64_t master_seed, std::size_t experiments,
                        std::size_t samples_per_experiment, double truth, Draw draw) {
  std::size_t covered = 0;
  for (std::size_t e = 0; e < experiments; ++e) {
    Rng rng(ckptsim::sim::replication_seed(master_seed, e));
    Summary s;
    for (std::size_t i = 0; i < samples_per_experiment; ++i) s.add(draw(rng));
    const ConfidenceInterval ci = mean_confidence(s, 0.95);
    if (ci.contains(truth)) ++covered;
  }
  return static_cast<double>(covered) / static_cast<double>(experiments);
}

TEST(CiCoverage, BernoulliMean) {
  // p = 0.5, n = 30: the parent is symmetric, so the t-interval's coverage
  // sits close to nominal despite the discreteness.
  const double coverage = summary_coverage(
      2026, 2000, 30, 0.5, [](Rng& rng) { return rng.bernoulli(0.5) ? 1.0 : 0.0; });
  EXPECT_GE(coverage, kLo) << "95% CI badly undercovers a Bernoulli mean";
  EXPECT_LE(coverage, kHi) << "95% CI badly overcovers a Bernoulli mean";
}

TEST(CiCoverage, ExponentialMean) {
  // Skewed parent, n = 40: classic mild undercoverage of the t-interval;
  // anything below 0.92 means the machinery (not the asymptotics) is wrong.
  const double coverage = summary_coverage(
      4096, 2000, 40, 2.0, [](Rng& rng) { return rng.exponential_mean(2.0); });
  EXPECT_GE(coverage, kLo);
  EXPECT_LE(coverage, kHi);
}

TEST(CiCoverage, UniformMeanSmallSample) {
  // n = 10 exercises the exact small-dof rows of the t-table.
  const double coverage =
      summary_coverage(7117, 2000, 10, 0.5, [](Rng& rng) { return rng.uniform(); });
  EXPECT_GE(coverage, kLo);
  EXPECT_LE(coverage, kHi);
}

TEST(CiCoverage, NaiveIntervalUndercoversOnAr1) {
  // Negative control: treating the raw AR(1) observations as independent
  // must undercover badly.  If this "test of the test" ever passes 0.92,
  // the coverage harness itself has lost its power to detect bias.
  constexpr double kMu = 5.0;
  constexpr double kPhi = 0.7;
  std::size_t covered = 0;
  constexpr std::size_t kExperiments = 300;
  for (std::size_t e = 0; e < kExperiments; ++e) {
    Rng rng(ckptsim::sim::replication_seed(616161, e));
    std::normal_distribution<double> noise(0.0, 1.0);
    double x = kMu + noise(rng.engine()) / std::sqrt(1.0 - kPhi * kPhi);
    Summary s;
    for (std::size_t t = 0; t < 2000; ++t) {
      s.add(x);
      x = kMu + kPhi * (x - kMu) + noise(rng.engine());
    }
    if (mean_confidence(s, 0.95).contains(kMu)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / static_cast<double>(kExperiments);
  EXPECT_LT(coverage, 0.90) << "naive CI on autocorrelated data should undercover";
}

TEST(CiCoverage, WiderLevelCoversMore) {
  // Monotonicity across levels on one fixed sample set: 99% interval must
  // cover at least as often as 95%, which must cover at least 90%.
  std::size_t covered90 = 0;
  std::size_t covered95 = 0;
  std::size_t covered99 = 0;
  constexpr std::size_t kExperiments = 1000;
  for (std::size_t e = 0; e < kExperiments; ++e) {
    Rng rng(ckptsim::sim::replication_seed(99, e));
    Summary s;
    for (std::size_t i = 0; i < 20; ++i) s.add(rng.exponential_mean(1.0));
    if (mean_confidence(s, 0.90).contains(1.0)) ++covered90;
    if (mean_confidence(s, 0.95).contains(1.0)) ++covered95;
    if (mean_confidence(s, 0.99).contains(1.0)) ++covered99;
  }
  EXPECT_LE(covered90, covered95);
  EXPECT_LE(covered95, covered99);
  EXPECT_GT(covered99, covered90);
}

}  // namespace
