#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/distributions.h"
#include "src/sim/rng.h"
#include "src/stats/summary.h"

namespace {

using ckptsim::sim::Deterministic;
using ckptsim::sim::Distribution;
using ckptsim::sim::Exponential;
using ckptsim::sim::HyperExponential;
using ckptsim::sim::MaxOfExponentials;
using ckptsim::sim::Rng;
using ckptsim::sim::Uniform;
using ckptsim::sim::Weibull;
using ckptsim::stats::Summary;

Summary sample_many(const Distribution& d, int n = 100000, std::uint64_t seed = 1234) {
  Rng rng(seed);
  Summary s;
  for (int i = 0; i < n; ++i) s.add(d.sample(rng));
  return s;
}

TEST(Deterministic, AlwaysSameValue) {
  Deterministic d(2.5);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 2.5);
  EXPECT_DOUBLE_EQ(d.mean(), 2.5);
  EXPECT_NE(d.describe().find("2.5"), std::string::npos);
  EXPECT_THROW(Deterministic(-1.0), std::invalid_argument);
}

TEST(Exponential, MomentsMatch) {
  Exponential d(4.0);
  const Summary s = sample_many(d);
  EXPECT_NEAR(s.mean(), 4.0, 0.08);
  EXPECT_NEAR(s.variance(), 16.0, 0.6);
  EXPECT_GE(s.min(), 0.0);
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
}

TEST(Exponential, CdfFormula) {
  Exponential d(2.0);
  EXPECT_DOUBLE_EQ(d.cdf(-1.0), 0.0);
  EXPECT_NEAR(d.cdf(2.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(d.cdf(20.0), 1.0, 1e-4);
}

TEST(MaxOfExponentials, SingleItemIsExponential) {
  MaxOfExponentials d(1, 3.0);
  const Summary s = sample_many(d);
  EXPECT_NEAR(s.mean(), 3.0, 0.07);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(MaxOfExponentials, HarmonicNumberMean) {
  // H_4 = 1 + 1/2 + 1/3 + 1/4 = 25/12.
  EXPECT_NEAR(MaxOfExponentials::harmonic(4), 25.0 / 12.0, 1e-12);
  // Asymptotic branch must agree with direct summation at the switch point.
  double direct = 0.0;
  for (int i = 1; i <= 1000; ++i) direct += 1.0 / i;
  EXPECT_NEAR(MaxOfExponentials::harmonic(1000), direct, 1e-9);
  MaxOfExponentials d(4, 2.0);
  EXPECT_NEAR(d.mean(), 2.0 * 25.0 / 12.0, 1e-12);
  const Summary s = sample_many(d);
  EXPECT_NEAR(s.mean(), d.mean(), 0.08);
}

TEST(MaxOfExponentials, SampleFromUnitIsNonDecreasing) {
  // The node-level engine transforms only the unit draws that beat the
  // largest so far, which reproduces the per-node maximum exactly only
  // because the transform never decreases.  Check it over sorted random
  // draws and over walks of consecutive doubles near 0, 0.5 and 1.  Near 0
  // the walks start at 0 itself (up through the smallest subnormals), just
  // below the smallest normal double (across it), and at 2^-64, the least
  // positive value Rng::uniform() returns; a walk over the powers of two
  // covers the rest of the subnormal range.
  const auto walk = [](const MaxOfExponentials& d, double from, double to, int steps) {
    double u = from;
    double prev = d.sample_from_unit(u);
    for (int i = 0; i < steps && u < to; ++i) {
      u = std::nextafter(u, to);
      const double t = d.sample_from_unit(u);
      if (t < prev) return u;
      prev = t;
    }
    return -1.0;  // no violation
  };
  Rng rng(20261018);
  std::vector<double> draws(200000);
  for (double& u : draws) u = rng.uniform();
  std::sort(draws.begin(), draws.end());
  const double below_one = std::nextafter(1.0, 0.0);
  for (const std::uint64_t n : {1ULL, 2ULL, 8ULL, 16ULL, 1000ULL, 1ULL << 20, 1ULL << 30}) {
    SCOPED_TRACE("n " + std::to_string(n));
    const MaxOfExponentials d(n, 3.0);
    for (std::size_t i = 1; i < draws.size(); ++i) {
      ASSERT_LE(d.sample_from_unit(draws[i - 1]), d.sample_from_unit(draws[i]))
          << "u " << draws[i - 1] << " -> " << draws[i];
    }
    const double min_normal = std::ldexp(1.0, -1022);
    EXPECT_EQ(d.sample_from_unit(0.0), d.sample_from_unit(min_normal));
    EXPECT_EQ(walk(d, 0.0, 1.0, 100000), -1.0);
    double below_normal = min_normal;
    for (int i = 0; i < 50000; ++i) below_normal = std::nextafter(below_normal, 0.0);
    EXPECT_EQ(walk(d, below_normal, 1.0, 100000), -1.0);
    for (int e = -1074; e < -1022; ++e) {
      EXPECT_LE(d.sample_from_unit(std::ldexp(1.0, e)), d.sample_from_unit(std::ldexp(1.0, e + 1)))
          << "2^" << e;
    }
    EXPECT_EQ(walk(d, min_normal, 1.0, 100000), -1.0);
    EXPECT_EQ(walk(d, std::ldexp(1.0, -64), 1.0, 100000), -1.0);
    double low = 0.5;
    for (int i = 0; i < 50000; ++i) low = std::nextafter(low, 0.0);
    EXPECT_EQ(walk(d, low, 1.0, 100000), -1.0);
    double high = below_one;
    for (int i = 0; i < 100000; ++i) high = std::nextafter(high, 0.0);
    EXPECT_EQ(walk(d, high, below_one, 100000), -1.0);
  }
}

TEST(MaxOfExponentials, LogarithmicGrowth) {
  // The paper's Figure 5 claim: coordination cost grows ~ log(n).
  const double m1k = MaxOfExponentials(1024, 1.0).mean();
  const double m1m = MaxOfExponentials(1048576, 1.0).mean();
  const double m1g = MaxOfExponentials(1073741824, 1.0).mean();
  EXPECT_NEAR(m1m - m1k, std::log(1024.0), 0.01);
  EXPECT_NEAR(m1g - m1m, std::log(1024.0), 0.01);
}

TEST(MaxOfExponentials, CdfMatchesEmpirical) {
  MaxOfExponentials d(64, 1.0);
  Rng rng(77);
  const double y = d.mean();
  int below = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (d.sample(rng) <= y) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, d.cdf(y), 0.01);
}

TEST(MaxOfExponentials, QuantileInvertsCdf) {
  MaxOfExponentials d(4096, 10.0);
  for (const double p : {0.01, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(d.cdf(d.quantile(p)), p, 1e-9);
  }
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 0.0);
  EXPECT_THROW((void)d.quantile(1.0), std::invalid_argument);
}

TEST(MaxOfExponentials, StableAtBillionScale) {
  // Figure 5 extends to 2^30 processors; sampling must stay finite/sane.
  MaxOfExponentials d(1073741824, 10.0);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double y = d.sample(rng);
    ASSERT_TRUE(std::isfinite(y));
    ASSERT_GT(y, 0.0);
    ASSERT_LT(y, 10.0 * 80.0);  // mean ~ 10 * ln(2^30) ~ 208
  }
  const Summary s = sample_many(d, 20000);
  EXPECT_NEAR(s.mean(), d.mean(), d.mean() * 0.05);
}

TEST(MaxOfExponentials, RejectsBadArguments) {
  EXPECT_THROW(MaxOfExponentials(0, 1.0), std::invalid_argument);
  EXPECT_THROW(MaxOfExponentials(4, 0.0), std::invalid_argument);
}

TEST(HyperExponential, MeanMixes) {
  HyperExponential d(0.25, 1.0, 9.0);
  EXPECT_DOUBLE_EQ(d.mean(), 0.25 * 1.0 + 0.75 * 9.0);
  const Summary s = sample_many(d);
  EXPECT_NEAR(s.mean(), d.mean(), 0.15);
  // Hyper-exponential has a coefficient of variation > 1.
  const double cv2 = s.variance() / (s.mean() * s.mean());
  EXPECT_GT(cv2, 1.0);
}

TEST(HyperExponential, RejectsBadArguments) {
  EXPECT_THROW(HyperExponential(-0.1, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(HyperExponential(0.5, 0.0, 1.0), std::invalid_argument);
}

TEST(Weibull, ShapeOneIsExponential) {
  Weibull d(1.0, 5.0);
  EXPECT_NEAR(d.mean(), 5.0, 1e-9);
  const Summary s = sample_many(d);
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
}

TEST(Weibull, MeanUsesGamma) {
  Weibull d(2.0, 1.0);
  EXPECT_NEAR(d.mean(), std::sqrt(M_PI) / 2.0, 1e-9);
  EXPECT_THROW(Weibull(0.0, 1.0), std::invalid_argument);
}

TEST(Uniform, RangeAndMean) {
  Uniform d(2.0, 6.0);
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  const Summary s = sample_many(d);
  EXPECT_GE(s.min(), 2.0);
  EXPECT_LT(s.max(), 6.0);
  EXPECT_NEAR(s.mean(), 4.0, 0.02);
  EXPECT_THROW(Uniform(2.0, 2.0), std::invalid_argument);
}

TEST(AllDistributions, DescribeIsInformative) {
  const std::unique_ptr<Distribution> dists[] = {
      std::make_unique<Deterministic>(1.0),
      std::make_unique<Exponential>(2.0),
      std::make_unique<MaxOfExponentials>(8, 1.5),
      std::make_unique<HyperExponential>(0.5, 1.0, 2.0),
      std::make_unique<Weibull>(1.5, 2.0),
      std::make_unique<Uniform>(0.0, 1.0),
  };
  for (const auto& d : dists) {
    EXPECT_FALSE(d->describe().empty());
    EXPECT_NE(d->describe().find('('), std::string::npos);
  }
}

// Parameterised property sweep: sampled mean matches the analytic mean for
// the max-of-exponentials family across node counts (Fig. 5's x-axis).
class MaxOfExpSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxOfExpSweep, SampledMeanMatchesHarmonicFormula) {
  const std::uint64_t n = GetParam();
  MaxOfExponentials d(n, 10.0);
  const Summary s = sample_many(d, 40000, /*seed=*/n);
  EXPECT_NEAR(s.mean(), d.mean(), d.mean() * 0.05) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(FigureFiveAxis, MaxOfExpSweep,
                         ::testing::Values(1, 4, 16, 256, 4096, 65536, 1048576, 16777216,
                                           1073741824));

TEST(Distributions, SampleFromUnitFiniteAtTopOfRange) {
  // The largest unit value uniform() can deliver (after clamping) must map
  // to a finite sample for every inverse-CDF sampler — log(1 - u) blows up
  // only at u == 1.0 exactly, which the clamp excludes.
  const double top = Rng::clamp_unit(1.0);
  EXPECT_TRUE(std::isfinite(Weibull(0.7, 123.0).sample_from_unit(top)));
  EXPECT_TRUE(std::isfinite(MaxOfExponentials(65536, 10.0).sample_from_unit(top)));
  EXPECT_TRUE(
      std::isfinite(ckptsim::sim::exponential_from_unit(top, 3600.0)));
}

}  // namespace
