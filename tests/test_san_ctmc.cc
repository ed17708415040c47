#include <gtest/gtest.h>

#include <cmath>

#include "src/analytic/birth_death.h"
#include "src/san/ctmc.h"
#include "src/san/executor.h"
#include "src/san/model.h"

namespace {

using ckptsim::san::ActivitySpec;
using ckptsim::san::Case;
using ckptsim::san::Context;
using ckptsim::san::CtmcOptions;
using ckptsim::san::CtmcSolver;
using ckptsim::san::Executor;
using ckptsim::san::InputArc;
using ckptsim::san::InputGate;
using ckptsim::san::Marking;
using ckptsim::san::Model;
using ckptsim::san::OutputArc;
using ckptsim::san::OutputGate;
using ckptsim::san::PlaceId;
using ckptsim::san::RateRewardSpec;

ActivitySpec rate_activity(std::string name, double rate) {
  ActivitySpec a;
  a.name = std::move(name);
  a.timed = true;
  a.exp_rate = [rate](const Marking&) { return rate; };
  return a;
}

TEST(Ctmc, TwoStateOnOff) {
  // on -> off at 1, off -> on at 3: P(on) = 3/4 exactly.
  Model m;
  const PlaceId on = m.add_place("on", 1);
  const PlaceId off = m.add_place("off", 0);
  auto to_off = rate_activity("to_off", 1.0);
  to_off.input_arcs = {InputArc{on, 1}};
  to_off.output_arcs = {OutputArc{off, 1}};
  m.add_activity(std::move(to_off));
  auto to_on = rate_activity("to_on", 3.0);
  to_on.input_arcs = {InputArc{off, 1}};
  to_on.output_arcs = {OutputArc{on, 1}};
  m.add_activity(std::move(to_on));

  const CtmcSolver solver(m);
  EXPECT_EQ(solver.count_states(), 2u);
  const auto sol = solver.solve_steady_state();
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.probability([on](const Marking& mk) { return mk.has(on); }), 0.75, 1e-9);
}

TEST(Ctmc, MM1KQueueMatchesClosedForm) {
  // M/M/1/K with lambda = 2, mu = 3, K = 5:
  // pi_i = rho^i (1-rho)/(1-rho^{K+1}).
  const double lambda = 2.0, mu = 3.0;
  const int capacity = 5;
  Model m;
  const PlaceId queue = m.add_place("queue", 0);
  auto arrive = rate_activity("arrive", lambda);
  arrive.input_gates = {InputGate{
      "not_full", [queue, capacity](const Marking& mk) { return mk.tokens(queue) < capacity; },
      {}, {}}};
  arrive.output_arcs = {OutputArc{queue, 1}};
  m.add_activity(std::move(arrive));
  auto serve = rate_activity("serve", mu);
  serve.input_arcs = {InputArc{queue, 1}};
  m.add_activity(std::move(serve));

  const CtmcSolver solver(m);
  EXPECT_EQ(solver.count_states(), static_cast<std::size_t>(capacity + 1));
  const auto sol = solver.solve_steady_state();
  ASSERT_TRUE(sol.converged);
  const double rho = lambda / mu;
  const double norm = (1.0 - rho) / (1.0 - std::pow(rho, capacity + 1));
  for (int i = 0; i <= capacity; ++i) {
    const double predicted = std::pow(rho, i) * norm;
    const double measured = sol.probability(
        [queue, i](const Marking& mk) { return mk.tokens(queue) == i; });
    EXPECT_NEAR(measured, predicted, 1e-8) << "i=" << i;
  }
  // Expected queue length via the reward interface.
  double expected_len = 0.0;
  for (int i = 1; i <= capacity; ++i) expected_len += i * std::pow(rho, i) * norm;
  EXPECT_NEAR(sol.expected([queue](const Marking& mk) {
                return static_cast<double>(mk.tokens(queue));
              }),
              expected_len, 1e-8);
}

TEST(Ctmc, BirthDeathMatchesAnalyticModule) {
  // The paper's Figure 3 chain, exact vs the closed form in src/analytic.
  ckptsim::analytic::BirthDeathCorrelation c;
  c.conditional_probability = 0.3;
  c.recovery_rate = 6.0;
  c.node_failure_rate = 0.001;
  c.nodes = 100;
  const double li = static_cast<double>(c.nodes) * c.node_failure_rate;
  const double lc = ckptsim::analytic::correlated_rate(c);
  const std::uint32_t truncation = 64;

  Model m;
  const PlaceId failed = m.add_place("failed", 0);
  auto first = rate_activity("first_failure", li);
  first.input_gates = {InputGate{
      "healthy", [failed](const Marking& mk) { return !mk.has(failed); }, {}, {}}};
  first.output_arcs = {OutputArc{failed, 1}};
  m.add_activity(std::move(first));
  auto next = rate_activity("next_failure", lc);
  next.input_gates = {InputGate{
      "bursting",
      [failed, truncation](const Marking& mk) {
        return mk.has(failed) && mk.tokens(failed) < static_cast<std::int32_t>(truncation);
      },
      {}, {}}};
  next.output_arcs = {OutputArc{failed, 1}};
  m.add_activity(std::move(next));
  auto recover = rate_activity("recover", c.recovery_rate);
  recover.input_gates = {InputGate{
      "has_failure", [failed](const Marking& mk) { return mk.has(failed); }, {}, {}}};
  recover.output_gates = {OutputGate{"wipe", [failed](Context& ctx) {
    ctx.marking.set_tokens(failed, 0);
  }}};
  m.add_activity(std::move(recover));

  const CtmcSolver solver(m);
  const auto sol = solver.solve_steady_state();
  ASSERT_TRUE(sol.converged);
  const double exact = sol.probability([failed](const Marking& mk) { return mk.has(failed); });
  const double closed = ckptsim::analytic::stationary_burst_probability(c, truncation);
  EXPECT_NEAR(exact, closed, 1e-8);
}

TEST(Ctmc, AgreesWithSimulationOnProbabilisticCases) {
  // Coin-flip cases: a token cycles, each firing lands in A (w=1) or B (w=3).
  Model m;
  const PlaceId spin = m.add_place("spin", 1);
  const PlaceId a = m.add_place("a", 0);
  const PlaceId b = m.add_place("b", 0);
  auto flip = rate_activity("flip", 1.0);
  flip.input_arcs = {InputArc{spin, 1}};
  Case ca;
  ca.weight = [](const Marking&) { return 1.0; };
  ca.output_arcs = {OutputArc{a, 1}};
  Case cb;
  cb.weight = [](const Marking&) { return 3.0; };
  cb.output_arcs = {OutputArc{b, 1}};
  flip.cases = {ca, cb};
  m.add_activity(std::move(flip));
  auto back_a = rate_activity("back_a", 2.0);
  back_a.input_arcs = {InputArc{a, 1}};
  back_a.output_arcs = {OutputArc{spin, 1}};
  m.add_activity(std::move(back_a));
  auto back_b = rate_activity("back_b", 2.0);
  back_b.input_arcs = {InputArc{b, 1}};
  back_b.output_arcs = {OutputArc{spin, 1}};
  m.add_activity(std::move(back_b));

  const CtmcSolver solver(m);
  const auto sol = solver.solve_steady_state();
  ASSERT_TRUE(sol.converged);
  EXPECT_EQ(sol.state_count(), 3u);
  const double p_b = sol.probability([b](const Marking& mk) { return mk.has(b); });

  Executor exec(m, 4242);
  exec.rewards().add_rate(
      RateRewardSpec{"in_b", [b](const Marking& mk) { return mk.has(b) ? 1.0 : 0.0; }});
  exec.run_until(500.0);
  exec.reset_rewards();
  exec.run_until(100500.0);
  EXPECT_NEAR(exec.rewards().time_average("in_b", exec.now()), p_b, 0.01);
}

TEST(Ctmc, VanishingMarkingsAreEliminated) {
  // seized/idle resource with an instantaneous seize: the vanishing marking
  // (token in `ready`) must not appear in the chain.
  Model m;
  const PlaceId idle = m.add_place("idle", 1);
  const PlaceId ready = m.add_place("ready", 0);
  const PlaceId busy = m.add_place("busy", 0);
  auto request = rate_activity("request", 2.0);
  request.input_arcs = {InputArc{idle, 1}};
  request.output_arcs = {OutputArc{ready, 1}};
  m.add_activity(std::move(request));
  ActivitySpec seize;
  seize.name = "seize";
  seize.timed = false;
  seize.input_arcs = {InputArc{ready, 1}};
  seize.output_arcs = {OutputArc{busy, 1}};
  m.add_activity(std::move(seize));
  auto release = rate_activity("release", 1.0);
  release.input_arcs = {InputArc{busy, 1}};
  release.output_arcs = {OutputArc{idle, 1}};
  m.add_activity(std::move(release));

  const CtmcSolver solver(m);
  EXPECT_EQ(solver.count_states(), 2u);  // idle / busy only, no `ready` state
  const auto sol = solver.solve_steady_state();
  ASSERT_TRUE(sol.converged);
  // Effective on/off chain with rates 2 and 1: P(busy) = 2/3.
  EXPECT_NEAR(sol.probability([busy](const Marking& mk) { return mk.has(busy); }), 2.0 / 3.0,
              1e-9);
}

TEST(Ctmc, ProbabilisticInstantaneousCascadeBranches) {
  // A timed trigger feeds an instantaneous router that branches 1:3 into
  // two stations, each releasing back at equal rates.
  Model m;
  const PlaceId source = m.add_place("source", 1);
  const PlaceId route = m.add_place("route", 0);
  const PlaceId a = m.add_place("a", 0);
  const PlaceId b = m.add_place("b", 0);
  auto trigger = rate_activity("trigger", 1.0);
  trigger.input_arcs = {InputArc{source, 1}};
  trigger.output_arcs = {OutputArc{route, 1}};
  m.add_activity(std::move(trigger));
  ActivitySpec router;
  router.name = "router";
  router.timed = false;
  router.input_arcs = {InputArc{route, 1}};
  Case ca;
  ca.weight = [](const Marking&) { return 1.0; };
  ca.output_arcs = {OutputArc{a, 1}};
  Case cb;
  cb.weight = [](const Marking&) { return 3.0; };
  cb.output_arcs = {OutputArc{b, 1}};
  router.cases = {ca, cb};
  m.add_activity(std::move(router));
  auto drain_a = rate_activity("drain_a", 1.0);
  drain_a.input_arcs = {InputArc{a, 1}};
  drain_a.output_arcs = {OutputArc{source, 1}};
  m.add_activity(std::move(drain_a));
  auto drain_b = rate_activity("drain_b", 1.0);
  drain_b.input_arcs = {InputArc{b, 1}};
  drain_b.output_arcs = {OutputArc{source, 1}};
  m.add_activity(std::move(drain_b));

  const auto sol = CtmcSolver(m).solve_steady_state();
  ASSERT_TRUE(sol.converged);
  EXPECT_EQ(sol.state_count(), 3u);  // source / a / b
  const double pa = sol.probability([a](const Marking& mk) { return mk.has(a); });
  const double pb = sol.probability([b](const Marking& mk) { return mk.has(b); });
  EXPECT_NEAR(pb / pa, 3.0, 1e-9);
}

TEST(Ctmc, TransientTwoStateMatchesClosedForm) {
  // on->off at rate 1, off->on at rate 3, starting in `on`:
  // P_on(t) = 3/4 + 1/4 e^{-4t}.
  Model m;
  const PlaceId on = m.add_place("on", 1);
  const PlaceId off = m.add_place("off", 0);
  auto to_off = rate_activity("to_off", 1.0);
  to_off.input_arcs = {InputArc{on, 1}};
  to_off.output_arcs = {OutputArc{off, 1}};
  m.add_activity(std::move(to_off));
  auto to_on = rate_activity("to_on", 3.0);
  to_on.input_arcs = {InputArc{off, 1}};
  to_on.output_arcs = {OutputArc{on, 1}};
  m.add_activity(std::move(to_on));

  const CtmcSolver solver(m);
  for (const double t : {0.0, 0.1, 0.5, 1.0, 5.0}) {
    const auto sol = solver.solve_transient(t);
    const double predicted = 0.75 + 0.25 * std::exp(-4.0 * t);
    EXPECT_NEAR(sol.probability([on](const Marking& mk) { return mk.has(on); }), predicted,
                1e-9)
        << "t=" << t;
  }
  EXPECT_THROW((void)solver.solve_transient(-1.0), std::invalid_argument);
}

TEST(Ctmc, TransientConvergesToSteadyState) {
  Model m;
  const PlaceId on = m.add_place("on", 1);
  const PlaceId off = m.add_place("off", 0);
  auto to_off = rate_activity("to_off", 0.4);
  to_off.input_arcs = {InputArc{on, 1}};
  to_off.output_arcs = {OutputArc{off, 1}};
  m.add_activity(std::move(to_off));
  auto to_on = rate_activity("to_on", 0.6);
  to_on.input_arcs = {InputArc{off, 1}};
  to_on.output_arcs = {OutputArc{on, 1}};
  m.add_activity(std::move(to_on));
  const CtmcSolver solver(m);
  const auto steady = solver.solve_steady_state();
  const auto late = solver.solve_transient(200.0);
  EXPECT_NEAR(late.probability([on](const Marking& mk) { return mk.has(on); }),
              steady.probability([on](const Marking& mk) { return mk.has(on); }), 1e-6);
}

TEST(Ctmc, ResampleKeepsSimulationAlignedWithExactSolution) {
  // Machine-repairman with a marking-dependent failure rate: the simulator
  // must use Reactivation::kResample for such activities (see the
  // ActivitySpec::exp_rate doc); with it, simulation matches the CTMC.
  Model m;
  const PlaceId up = m.add_place("up", 2);
  const PlaceId down = m.add_place("down", 0);
  ActivitySpec fail;
  fail.name = "fail";
  fail.reactivation = ckptsim::san::Reactivation::kResample;
  fail.exp_rate = [up](const Marking& mk) { return 0.1 * mk.tokens(up); };
  fail.input_arcs = {InputArc{up, 1}};
  fail.output_arcs = {OutputArc{down, 1}};
  m.add_activity(std::move(fail));
  auto repair = rate_activity("repair", 0.5);
  repair.input_arcs = {InputArc{down, 1}};
  repair.output_arcs = {OutputArc{up, 1}};
  m.add_activity(std::move(repair));

  const auto exact = CtmcSolver(m).solve_steady_state();
  const double exact_avail =
      exact.probability([up](const Marking& mk) { return mk.has(up); });
  EXPECT_NEAR(exact_avail, 1.0 - 0.08 / 1.48, 1e-9);  // hand-solved chain

  Executor exec(m, 31337);
  exec.rewards().add_rate(RateRewardSpec{
      "avail", [up](const Marking& mk) { return mk.has(up) ? 1.0 : 0.0; }});
  exec.run_until(500.0);
  exec.reset_rewards();
  exec.run_until(60500.0);
  EXPECT_NEAR(exec.rewards().time_average("avail", exec.now()), exact_avail, 0.01);
}

TEST(Ctmc, RejectsUnsupportedModels) {
  {
    Model m;
    const PlaceId p = m.add_place("p", 1);
    ActivitySpec sampled;  // sampler without declared rate
    sampled.name = "sampled";
    sampled.latency = [](const Marking&, ckptsim::sim::Rng& r) {
      return r.exponential_mean(1.0);
    };
    sampled.input_arcs = {InputArc{p, 1}};
    sampled.output_arcs = {OutputArc{p, 1}};
    m.add_activity(std::move(sampled));
    EXPECT_THROW((void)CtmcSolver(m).count_states(), std::invalid_argument);
  }
  {
    Model m;
    m.add_place("p", 1);
    m.add_extended_place("x", 0.0);
    EXPECT_THROW((void)CtmcSolver(m).count_states(), std::invalid_argument);
  }
}

TEST(Ctmc, StateCapGuardsExplosion) {
  // Unbounded birth process: must hit the cap, not hang.
  Model m;
  const PlaceId p = m.add_place("p", 0);
  auto grow = rate_activity("grow", 1.0);
  grow.output_arcs = {OutputArc{p, 1}};
  m.add_activity(std::move(grow));
  CtmcOptions options;
  options.max_states = 100;
  EXPECT_THROW((void)CtmcSolver(m).count_states(options), std::runtime_error);
}

TEST(Ctmc, MarkingDependentRates) {
  // M/M/2/3: service rate doubles with two customers present.
  const double lambda = 1.0, mu = 1.0;
  Model m;
  const PlaceId q = m.add_place("q", 0);
  auto arrive = rate_activity("arrive", lambda);
  arrive.input_gates = {InputGate{
      "cap", [q](const Marking& mk) { return mk.tokens(q) < 3; }, {}, {}}};
  arrive.output_arcs = {OutputArc{q, 1}};
  m.add_activity(std::move(arrive));
  ActivitySpec serve;
  serve.name = "serve";
  serve.timed = true;
  serve.exp_rate = [q, mu](const Marking& mk) {
    return mu * std::min<double>(2.0, static_cast<double>(mk.tokens(q)));
  };
  serve.input_arcs = {InputArc{q, 1}};
  m.add_activity(std::move(serve));

  const auto sol = CtmcSolver(m).solve_steady_state();
  ASSERT_TRUE(sol.converged);
  // Balance: pi1 = pi0 * l/m, pi2 = pi1 * l/(2m), pi3 = pi2 * l/(2m).
  const double r0 = 1.0, r1 = 1.0, r2 = 0.5, r3 = 0.25;
  const double total = r0 + r1 + r2 + r3;
  for (int i = 0; i <= 3; ++i) {
    const double expected = (i == 0 ? r0 : i == 1 ? r1 : i == 2 ? r2 : r3) / total;
    EXPECT_NEAR(sol.probability([q, i](const Marking& mk) { return mk.tokens(q) == i; }),
                expected, 1e-8)
        << i;
  }
}

}  // namespace
