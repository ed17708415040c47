#include <gtest/gtest.h>

#include <stdexcept>

#include "src/sim/engine.h"

namespace {

using ckptsim::sim::Engine;
using ckptsim::sim::RateIntegral;

TEST(RateIntegral, PiecewiseConstantIntegration) {
  RateIntegral r;
  r.set_rate(0.0, 1.0);
  EXPECT_DOUBLE_EQ(r.value(10.0), 10.0);
  r.set_rate(10.0, 0.0);
  EXPECT_DOUBLE_EQ(r.value(20.0), 10.0);
  r.set_rate(20.0, 2.0);
  EXPECT_DOUBLE_EQ(r.value(25.0), 20.0);
}

TEST(RateIntegral, ImpulsesAddInstantly) {
  RateIntegral r;
  r.set_rate(0.0, 1.0);
  r.impulse(-3.0);
  EXPECT_DOUBLE_EQ(r.value(5.0), 2.0);
  r.impulse(10.0);
  EXPECT_DOUBLE_EQ(r.value(5.0), 12.0);
}

TEST(RateIntegral, ResetKeepsRate) {
  RateIntegral r;
  r.set_rate(0.0, 2.0);
  EXPECT_DOUBLE_EQ(r.value(5.0), 10.0);
  r.reset(5.0);
  EXPECT_DOUBLE_EQ(r.value(5.0), 0.0);
  EXPECT_DOUBLE_EQ(r.value(7.0), 4.0);  // rate 2 still active
  EXPECT_DOUBLE_EQ(r.rate(), 2.0);
}

TEST(RateIntegral, RejectsTimeTravel) {
  RateIntegral r;
  r.set_rate(10.0, 1.0);
  EXPECT_THROW(r.set_rate(5.0, 2.0), std::invalid_argument);
  EXPECT_THROW((void)r.value(5.0), std::invalid_argument);
  EXPECT_THROW(r.reset(5.0), std::invalid_argument);
}

TEST(RateIntegral, NegativeWindowedValueIsPossible) {
  // Rollback across an observation boundary: the windowed delta can dip
  // below zero — exactly the honest accounting the model relies on.
  RateIntegral r;
  r.set_rate(0.0, 1.0);
  const double at_boundary = r.value(100.0);
  r.impulse(-150.0);
  EXPECT_LT(r.value(100.0) - at_boundary, 0.0);
}

TEST(Engine, TimeAdvancesWithQueue) {
  Engine e(1);
  double seen = -1.0;
  e.schedule_in(5.0, [&] { seen = e.now(); });
  e.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, StreamsAreStableByName) {
  Engine e(42);
  auto a = e.stream("failures");
  auto b = e.stream("failures");
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Engine, CancelThroughEngine) {
  Engine e(1);
  bool fired = false;
  auto h = e.schedule_in(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(h));
  e.run_until(2.0);
  EXPECT_FALSE(fired);
}

}  // namespace
