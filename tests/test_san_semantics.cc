#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/analytic/birth_death.h"
#include "src/san/executor.h"
#include "src/san/model.h"

namespace {

using ckptsim::san::ActivitySpec;
using ckptsim::san::Case;
using ckptsim::san::Context;
using ckptsim::san::Executor;
using ckptsim::san::InputArc;
using ckptsim::san::InputGate;
using ckptsim::san::Marking;
using ckptsim::san::Model;
using ckptsim::san::OutputArc;
using ckptsim::san::OutputGate;
using ckptsim::san::PlaceId;
using ckptsim::san::RateRewardSpec;
using ckptsim::san::Reactivation;

ActivitySpec timed(std::string name, double latency) {
  ActivitySpec a;
  a.name = std::move(name);
  a.timed = true;
  a.latency = [latency](const Marking&, ckptsim::sim::Rng&) { return latency; };
  return a;
}

ActivitySpec timed_exp(std::string name, double rate) {
  ActivitySpec a;
  a.name = std::move(name);
  a.timed = true;
  a.latency = [rate](const Marking&, ckptsim::sim::Rng& r) { return r.exponential_rate(rate); };
  return a;
}

TEST(Executor, SimpleTimedChain) {
  Model m;
  const PlaceId a = m.add_place("a", 1);
  const PlaceId b = m.add_place("b", 0);
  const PlaceId c = m.add_place("c", 0);
  auto t1 = timed("t1", 2.0);
  t1.input_arcs = {InputArc{a, 1}};
  t1.output_arcs = {OutputArc{b, 1}};
  m.add_activity(std::move(t1));
  auto t2 = timed("t2", 3.0);
  t2.input_arcs = {InputArc{b, 1}};
  t2.output_arcs = {OutputArc{c, 1}};
  m.add_activity(std::move(t2));

  Executor exec(m, 1);
  exec.run_until(1.0);
  EXPECT_EQ(exec.marking().tokens(a), 1);
  exec.run_until(2.5);
  EXPECT_EQ(exec.marking().tokens(b), 1);
  EXPECT_EQ(exec.marking().tokens(a), 0);
  exec.run_until(10.0);
  EXPECT_EQ(exec.marking().tokens(c), 1);
  EXPECT_EQ(exec.firings("t1"), 1u);
  EXPECT_EQ(exec.firings("t2"), 1u);
  EXPECT_EQ(exec.total_firings(), 2u);
}

TEST(Executor, DisabledActivityAborts) {
  // thief (latency 1) steals the token before slow (latency 10) completes:
  // slow must abort and never fire.
  Model m;
  const PlaceId p = m.add_place("p", 1);
  const PlaceId stolen = m.add_place("stolen", 0);
  auto slow = timed("slow", 10.0);
  slow.input_arcs = {InputArc{p, 1}};
  m.add_activity(std::move(slow));
  auto thief = timed("thief", 1.0);
  thief.input_arcs = {InputArc{p, 1}};
  thief.output_arcs = {OutputArc{stolen, 1}};
  m.add_activity(std::move(thief));

  Executor exec(m, 1);
  exec.run_until(100.0);
  EXPECT_EQ(exec.firings("thief"), 1u);
  EXPECT_EQ(exec.firings("slow"), 0u);
}

TEST(Executor, KeepPolicyRetainsSampleAcrossUnrelatedChanges) {
  Model m;
  const PlaceId go = m.add_place("go", 1);
  const PlaceId done = m.add_place("done", 0);
  const PlaceId noise = m.add_place("noise", 1);
  auto main_act = timed("main", 10.0);
  main_act.input_arcs = {InputArc{go, 1}};
  main_act.output_arcs = {OutputArc{done, 1}};
  main_act.reactivation = Reactivation::kKeep;
  m.add_activity(std::move(main_act));
  auto ticker = timed("ticker", 3.0);  // changes the marking at t=3,6,9,...
  ticker.input_arcs = {InputArc{noise, 1}};
  ticker.output_arcs = {OutputArc{noise, 1}};
  m.add_activity(std::move(ticker));

  Executor exec(m, 1);
  exec.run_until(10.0);
  EXPECT_EQ(exec.firings("main"), 1u);  // fired exactly at t=10 despite noise
}

TEST(Executor, ResamplePolicyRestartsOnMarkingChange) {
  Model m;
  const PlaceId go = m.add_place("go", 1);
  const PlaceId done = m.add_place("done", 0);
  const PlaceId noise = m.add_place("noise", 1);
  auto main_act = timed("main", 10.0);
  main_act.input_arcs = {InputArc{go, 1}};
  main_act.output_arcs = {OutputArc{done, 1}};
  main_act.reactivation = Reactivation::kResample;
  m.add_activity(std::move(main_act));
  auto ticker = timed("ticker", 3.0);
  ticker.input_arcs = {InputArc{noise, 1}};
  ticker.output_arcs = {OutputArc{noise, 1}};
  m.add_activity(std::move(ticker));

  Executor exec(m, 1);
  exec.run_until(11.0);
  // The deterministic 10s countdown restarts at every ticker firing
  // (t=3,6,9,...), so it can never complete.
  EXPECT_EQ(exec.firings("main"), 0u);
  EXPECT_GE(exec.firings("ticker"), 3u);
}

TEST(Executor, InstantaneousFiresBeforeTimeAdvances) {
  Model m;
  const PlaceId a = m.add_place("a", 1);
  const PlaceId b = m.add_place("b", 0);
  ActivitySpec inst;
  inst.name = "inst";
  inst.timed = false;
  inst.input_arcs = {InputArc{a, 1}};
  inst.output_arcs = {OutputArc{b, 1}};
  m.add_activity(std::move(inst));

  Executor exec(m, 1);
  exec.run_until(0.0);  // time does not advance, but the cascade runs
  EXPECT_EQ(exec.marking().tokens(b), 1);
  EXPECT_EQ(exec.firings("inst"), 1u);
}

TEST(Executor, InstantaneousPriorityWinsContention) {
  Model m;
  const PlaceId token = m.add_place("token", 1);
  const PlaceId low_won = m.add_place("low_won", 0);
  const PlaceId high_won = m.add_place("high_won", 0);
  ActivitySpec low;
  low.name = "low";
  low.timed = false;
  low.priority = 1;
  low.input_arcs = {InputArc{token, 1}};
  low.output_arcs = {OutputArc{low_won, 1}};
  m.add_activity(std::move(low));
  ActivitySpec high;
  high.name = "high";
  high.timed = false;
  high.priority = 9;
  high.input_arcs = {InputArc{token, 1}};
  high.output_arcs = {OutputArc{high_won, 1}};
  m.add_activity(std::move(high));

  Executor exec(m, 1);
  exec.run_until(0.0);
  EXPECT_EQ(exec.marking().tokens(high_won), 1);
  EXPECT_EQ(exec.marking().tokens(low_won), 0);
}

TEST(Executor, InstantaneousCascadeChains) {
  Model m;
  const PlaceId a = m.add_place("a", 1);
  const PlaceId b = m.add_place("b", 0);
  const PlaceId c = m.add_place("c", 0);
  ActivitySpec ab;
  ab.name = "ab";
  ab.timed = false;
  ab.input_arcs = {InputArc{a, 1}};
  ab.output_arcs = {OutputArc{b, 1}};
  m.add_activity(std::move(ab));
  ActivitySpec bc;
  bc.name = "bc";
  bc.timed = false;
  bc.input_arcs = {InputArc{b, 1}};
  bc.output_arcs = {OutputArc{c, 1}};
  m.add_activity(std::move(bc));

  Executor exec(m, 1);
  exec.run_until(0.0);
  EXPECT_EQ(exec.marking().tokens(c), 1);
}

TEST(Executor, LivelockGuardThrows) {
  Model m;
  m.add_place("unused", 0);
  ActivitySpec forever;
  forever.name = "forever";
  forever.timed = false;  // no arcs, no gates: always enabled
  m.add_activity(std::move(forever));
  Executor exec(m, 1);
  EXPECT_THROW(exec.run_until(1.0), std::runtime_error);
}

TEST(Executor, CaseWeightsSelectProportionally) {
  Model m;
  const PlaceId trigger = m.add_place("trigger", 1);
  const PlaceId heads = m.add_place("heads", 0);
  const PlaceId tails = m.add_place("tails", 0);
  auto coin = timed("coin", 1.0);
  coin.input_arcs = {InputArc{trigger, 1}};
  coin.output_arcs = {OutputArc{trigger, 1}};  // self-loop: fires forever
  Case h;
  h.weight = [](const Marking&) { return 1.0; };
  h.output_arcs = {OutputArc{heads, 1}};
  Case t;
  t.weight = [](const Marking&) { return 3.0; };
  t.output_arcs = {OutputArc{tails, 1}};
  coin.cases = {h, t};
  m.add_activity(std::move(coin));

  Executor exec(m, 7);
  exec.run_until(20000.0);
  const double total = exec.marking().tokens(heads) + exec.marking().tokens(tails);
  EXPECT_NEAR(exec.marking().tokens(heads) / total, 0.25, 0.02);
}

TEST(Executor, GateFunctionsSeeTimeAndRng) {
  Model m;
  const PlaceId p = m.add_place("p", 1);
  const auto stamp = m.add_extended_place("stamp", -1.0);
  auto act = timed("act", 4.0);
  act.input_arcs = {InputArc{p, 1}};
  act.output_gates = {OutputGate{"stamp_time", [stamp](Context& c) {
    c.marking.set_real(stamp, c.now + (c.rng.bernoulli(1.0) ? 0.0 : 1e9));
  }}};
  m.add_activity(std::move(act));
  Executor exec(m, 1);
  exec.run_until(10.0);
  EXPECT_DOUBLE_EQ(exec.marking().real(stamp), 4.0);
}

TEST(Executor, RefreshExternalPicksUpPokedMarking) {
  Model m;
  const PlaceId p = m.add_place("p", 0);
  const PlaceId q = m.add_place("q", 0);
  auto act = timed("act", 1.0);
  act.input_arcs = {InputArc{p, 1}};
  act.output_arcs = {OutputArc{q, 1}};
  m.add_activity(std::move(act));
  Executor exec(m, 1);
  exec.run_until(5.0);
  EXPECT_EQ(exec.firings("act"), 0u);
  exec.marking().set_tokens(p, 1);
  exec.refresh_external();
  exec.run_until(10.0);
  EXPECT_EQ(exec.firings("act"), 1u);
}

TEST(Executor, MM1QueueMatchesTheory) {
  // M/M/1 with rho = 0.5: E[N] = rho/(1-rho) = 1.
  Model m;
  const PlaceId queue = m.add_place("queue", 0);
  auto arrive = timed_exp("arrive", 0.5);
  arrive.output_arcs = {OutputArc{queue, 1}};
  m.add_activity(std::move(arrive));
  auto serve = timed_exp("serve", 1.0);
  serve.input_arcs = {InputArc{queue, 1}};
  m.add_activity(std::move(serve));

  Executor exec(m, 99);
  exec.rewards().add_rate(RateRewardSpec{
      "queue_len", [queue](const Marking& mk) { return static_cast<double>(mk.tokens(queue)); }});
  exec.run_until(2000.0);
  exec.reset_rewards();
  exec.run_until(42000.0);
  EXPECT_NEAR(exec.rewards().time_average("queue_len", exec.now()), 1.0, 0.12);
}

TEST(Executor, BirthDeathBurstProbabilityMatchesAnalytic) {
  // The paper's Figure 3 chain, checked against the closed-form stationary
  // burst probability from src/analytic/birth_death.
  ckptsim::analytic::BirthDeathCorrelation c;
  c.conditional_probability = 0.3;
  c.recovery_rate = 6.0;          // per hour (MTTR = 10 min)
  c.node_failure_rate = 0.001;    // per hour per node
  c.nodes = 100;
  const double li = static_cast<double>(c.nodes) * c.node_failure_rate;
  const double lc = ckptsim::analytic::correlated_rate(c);

  Model m;
  const PlaceId failed = m.add_place("failed", 0);
  auto first = timed_exp("first_failure", li);
  first.input_gates = {InputGate{
      "healthy", [failed](const Marking& mk) { return !mk.has(failed); }, {}, {}}};
  first.output_arcs = {OutputArc{failed, 1}};
  m.add_activity(std::move(first));
  auto next = timed_exp("next_failure", lc);
  next.input_gates = {InputGate{
      "bursting", [failed](const Marking& mk) { return mk.has(failed); }, {}, {}}};
  next.output_arcs = {OutputArc{failed, 1}};
  m.add_activity(std::move(next));
  auto recover = timed_exp("recover", c.recovery_rate);
  recover.input_gates = {InputGate{
      "has_failure", [failed](const Marking& mk) { return mk.has(failed); }, {}, {}}};
  recover.output_gates = {OutputGate{"wipe", [failed](Context& ctx) {
    ctx.marking.set_tokens(failed, 0);
  }}};
  m.add_activity(std::move(recover));

  Executor exec(m, 2024);
  exec.rewards().add_rate(RateRewardSpec{
      "burst", [failed](const Marking& mk) { return mk.has(failed) ? 1.0 : 0.0; }});
  exec.run_until(1000.0);
  exec.reset_rewards();
  exec.run_until(300000.0);
  const double simulated = exec.rewards().time_average("burst", exec.now());
  const double analytic = ckptsim::analytic::stationary_burst_probability(c);
  EXPECT_NEAR(simulated, analytic, analytic * 0.08);
}

TEST(Executor, CaseWeightsSeePreFiringMarking) {
  // Möbius semantics: case weights are evaluated in the marking at activity
  // completion, BEFORE input arcs and gate functions mutate it.  The `fuel`
  // token is consumed by the input arc, so a weight reading `fuel` must see
  // 1 (pre-firing), not 0 (post-arc).
  Model m;
  const PlaceId fuel = m.add_place("fuel", 1);
  const PlaceId pre = m.add_place("pre", 0);
  const PlaceId post = m.add_place("post", 0);
  auto act = timed("act", 1.0);
  act.input_arcs = {InputArc{fuel, 1}};
  Case saw_pre;  // weight 1 in the pre-firing marking, 0 after the arc
  saw_pre.weight = [fuel](const Marking& mk) { return static_cast<double>(mk.tokens(fuel)); };
  saw_pre.output_arcs = {OutputArc{pre, 1}};
  Case saw_post;  // the complement: selected only if weights ran post-arc
  saw_post.weight = [fuel](const Marking& mk) { return 1.0 - mk.tokens(fuel); };
  saw_post.output_arcs = {OutputArc{post, 1}};
  act.cases = {saw_pre, saw_post};
  m.add_activity(std::move(act));

  Executor exec(m, 1);
  exec.run_until(2.0);
  EXPECT_EQ(exec.firings("act"), 1u);
  EXPECT_EQ(exec.marking().tokens(pre), 1);
  EXPECT_EQ(exec.marking().tokens(post), 0);
}

TEST(Executor, CaseWeightsEvaluatedExactlyOncePerFiring) {
  Model m;
  const PlaceId trigger = m.add_place("trigger", 1);
  auto act = timed("act", 1.0);
  act.input_arcs = {InputArc{trigger, 1}};
  auto calls_a = std::make_shared<int>(0);
  auto calls_b = std::make_shared<int>(0);
  Case a;
  a.weight = [calls_a](const Marking&) { return ++*calls_a, 1.0; };
  Case b;
  b.weight = [calls_b](const Marking&) { return ++*calls_b, 3.0; };
  act.cases = {a, b};
  m.add_activity(std::move(act));

  Executor exec(m, 1);
  exec.run_until(2.0);
  EXPECT_EQ(exec.firings("act"), 1u);
  EXPECT_EQ(*calls_a, 1);
  EXPECT_EQ(*calls_b, 1);
}

TEST(Executor, NegativeLatencyOnInitialActivationThrows) {
  Model m;
  const PlaceId go = m.add_place("go", 1);
  ActivitySpec bad;
  bad.name = "bad";
  bad.timed = true;
  bad.latency = [](const Marking&, ckptsim::sim::Rng&) { return -1.0; };
  bad.input_arcs = {InputArc{go, 1}};
  m.add_activity(std::move(bad));
  Executor exec(m, 1);
  EXPECT_THROW(exec.run_until(1.0), std::logic_error);
}

TEST(Executor, NegativeLatencyOnResampleThrows) {
  // The kResample reconciliation branch samples a fresh latency; a negative
  // sample there is the same modelling error as on initial activation and
  // must throw identically (it used to be silently scheduled).
  Model m;
  const PlaceId go = m.add_place("go", 1);
  const PlaceId flag = m.add_place("flag", 0);
  const PlaceId noise = m.add_place("noise", 1);
  auto main_act = timed("main", 5.0);
  main_act.input_arcs = {InputArc{go, 1}};
  main_act.reactivation = Reactivation::kResample;
  // Valid on initial activation (flag empty), negative after the ticker
  // raises the flag and forces a resample.
  main_act.latency = [flag](const Marking& mk, ckptsim::sim::Rng&) {
    return mk.has(flag) ? -1.0 : 5.0;
  };
  m.add_activity(std::move(main_act));
  auto ticker = timed("ticker", 1.0);
  ticker.input_arcs = {InputArc{noise, 1}};
  ticker.output_arcs = {OutputArc{flag, 1}};
  m.add_activity(std::move(ticker));

  Executor exec(m, 1);
  EXPECT_THROW(exec.run_until(2.0), std::logic_error);
}

}  // namespace
