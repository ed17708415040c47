#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/sim/rng.h"
#include "src/stats/summary.h"

namespace {

using ckptsim::sim::fnv1a64;
using ckptsim::sim::Rng;
using ckptsim::sim::RngPool;
using ckptsim::sim::splitmix64;
using ckptsim::stats::Summary;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRangeAndMoments) {
  Rng r(42);
  Summary s;
  for (int i = 0; i < 200000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    s.add(u);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.005);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntervalRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(5.0, 9.0);
    ASSERT_GE(x, 5.0);
    ASSERT_LT(x, 9.0);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(9);
  Summary s;
  for (int i = 0; i < 200000; ++i) s.add(r.exponential_mean(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.variance(), 9.0, 0.3);
  EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, ExponentialRateEquivalence) {
  Rng a(10), b(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.exponential_mean(4.0), b.exponential_rate(0.25));
  }
}

TEST(Rng, ExponentialRejectsBadMean) {
  Rng r(1);
  EXPECT_THROW(r.exponential_mean(0.0), std::invalid_argument);
  EXPECT_THROW(r.exponential_mean(-1.0), std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateProbabilities) {
  Rng r(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BelowStaysInRange) {
  Rng r(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
  EXPECT_THROW(r.below(0), std::invalid_argument);
}

TEST(Rng, BelowPinnedOutputs) {
  // The Lemire rejection sampler over mt19937_64 is exact and fully
  // specified, so these values must match on every platform and standard
  // library.  (std::uniform_int_distribution, by contrast, is
  // implementation-defined and gave different streams under libstdc++ vs
  // libc++.)  A mismatch here means the sampler changed and every
  // case-selection draw in the SAN executor changed with it.
  {
    Rng r(13);
    const std::uint64_t expected[] = {4, 2, 0, 2, 2, 3, 6, 0};
    for (const std::uint64_t e : expected) EXPECT_EQ(r.below(7), e);
  }
  {
    Rng r(2024);
    const std::uint64_t expected[] = {612684549, 794716071, 265657142,
                                      334297183, 6194300,   140206533};
    for (const std::uint64_t e : expected) EXPECT_EQ(r.below(1000000007ULL), e);
  }
  {
    Rng r(5);
    const std::uint64_t expected[] = {1, 0, 0, 1, 0, 0, 0, 1, 1, 0};
    for (const std::uint64_t e : expected) EXPECT_EQ(r.below(2), e);
  }
}

TEST(Rng, BelowOfOneAlwaysZero) {
  Rng r(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowLargeBoundNearMax) {
  // Exercise the rejection path: a bound just above 2^63 rejects nearly
  // half the raw draws, so the loop must terminate and stay in range.
  Rng r(31);
  const std::uint64_t n = (1ULL << 63) + 12345;
  for (int i = 0; i < 1000; ++i) ASSERT_LT(r.below(n), n);
}

TEST(RngPool, SameNameSameStream) {
  RngPool pool(99);
  Rng a = pool.stream("failures");
  Rng b = pool.stream("failures");
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngPool, DifferentNamesIndependent) {
  RngPool pool(99);
  EXPECT_NE(pool.stream_seed("failures"), pool.stream_seed("recovery"));
  Rng a = pool.stream("failures");
  Rng b = pool.stream("recovery");
  Summary diff;
  for (int i = 0; i < 10000; ++i) diff.add(a.uniform() - b.uniform());
  EXPECT_NEAR(diff.mean(), 0.0, 0.02);  // uncorrelated streams
}

TEST(RngPool, IndexDisambiguates) {
  RngPool pool(5);
  EXPECT_NE(pool.stream_seed("x", 0), pool.stream_seed("x", 1));
  EXPECT_EQ(pool.stream_seed("x", 3), pool.stream_seed("x", 3));
}

TEST(RngPool, MasterSeedChangesEverything) {
  RngPool a(1), b(2);
  EXPECT_NE(a.stream_seed("x"), b.stream_seed("x"));
}

TEST(SplitMix, AvalancheOnAdjacentInputs) {
  // Adjacent inputs must map to wildly different outputs.
  const std::uint64_t a = splitmix64(1);
  const std::uint64_t b = splitmix64(2);
  EXPECT_NE(a, b);
  int differing_bits = 0;
  for (std::uint64_t d = a ^ b; d != 0; d >>= 1) differing_bits += static_cast<int>(d & 1);
  EXPECT_GT(differing_bits, 16);
}

TEST(Fnv1a, KnownVectorsAndDistinctness) {
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_NE(fnv1a64("abc"), fnv1a64("acb"));
}

TEST(Rng, ClampUnitPinsTopOfRange) {
  // uniform() promises [0, 1): a raw engine draw of exactly 1.0 is clamped
  // to the largest double below 1.0 — by VALUE substitution, never by
  // redrawing, so the engine position (and every later draw) is untouched.
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  EXPECT_EQ(Rng::clamp_unit(1.0), kBelowOne);
  EXPECT_EQ(kBelowOne, std::nextafter(1.0, 0.0));
  EXPECT_LT(Rng::clamp_unit(1.0), 1.0);
  // Everything already inside [0, 1) passes through bit-exact.
  EXPECT_EQ(Rng::clamp_unit(0.0), 0.0);
  EXPECT_EQ(Rng::clamp_unit(0.5), 0.5);
  EXPECT_EQ(Rng::clamp_unit(kBelowOne), kBelowOne);
}

TEST(Rng, UniformIsStrictlyBelowOne) {
  Rng rng(20260808);
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

}  // namespace
