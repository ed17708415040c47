// The SAN framework as a standalone toolkit: build a classic
// machine-repairman availability model, solve it *exactly* with the CTMC
// engine (steady-state and transient), and cross-check by simulation —
// the same solver/simulator duality the Möbius environment offers.
//
//   $ ./san_toolkit
#include <iostream>

#include "src/report/cli.h"
#include "src/report/table.h"
#include "src/san/ctmc.h"
#include "src/san/executor.h"
#include "src/san/model.h"
#include "src/san/study.h"

int main(int argc, char** argv) {
  using namespace ckptsim;
  // Nothing here is sized by replications: --quick changes nothing.
  if (const int rc = report::Cli(argc, argv).check_flags({{"--quick", false}}); rc != 0) return rc;
  using san::ActivitySpec;
  using san::InputArc;
  using san::Marking;
  using san::OutputArc;
  using san::PlaceId;

  // Two identical components, one repair crew.  Components fail at rate
  // 0.1/h each; repair takes mean 2 h.  The system is up while at least
  // one component works.
  const double fail_rate = 0.1;
  const double repair_rate = 0.5;

  san::Model m;
  const PlaceId up = m.add_place("up", 2);
  const PlaceId down = m.add_place("down", 0);

  ActivitySpec fail;
  fail.name = "fail";
  // Marking-dependent rate: each working component fails independently.
  // Such activities must resample when the marking changes, or an in-flight
  // completion sampled at the old (lower) rate would survive a repair.
  fail.reactivation = san::Reactivation::kResample;
  fail.exp_rate = [up, fail_rate](const Marking& mk) {
    return fail_rate * static_cast<double>(mk.tokens(up));
  };
  fail.input_arcs = {InputArc{up, 1}};
  fail.output_arcs = {OutputArc{down, 1}};
  m.add_activity(std::move(fail));

  ActivitySpec repair;
  repair.name = "repair";
  repair.exp_rate = [down, repair_rate](const Marking& mk) {
    return mk.has(down) ? repair_rate : 0.0;  // a single repair crew
  };
  repair.input_arcs = {InputArc{down, 1}};
  repair.output_arcs = {OutputArc{up, 1}};
  m.add_activity(std::move(repair));

  const auto available = [up](const Marking& mk) { return mk.has(up); };

  // --- exact solution -------------------------------------------------------
  const san::CtmcSolver solver(m);
  const auto steady = solver.solve_steady_state();
  std::cout << "machine-repairman model: " << steady.state_count()
            << " states, exact steady-state availability = "
            << steady.probability(available) << "\n\n";

  std::cout << "transient availability (starting with both components up):\n";
  report::Table transient({"t (h)", "exact availability"});
  for (const double t : {1.0, 5.0, 10.0, 50.0}) {
    transient.add_row({report::Table::num(t, 1),
                       report::Table::num(solver.solve_transient(t).probability(available), 6)});
  }
  std::cout << transient.render() << "\n";

  // --- simulation cross-check ----------------------------------------------
  san::Study study(
      m,
      {san::RateRewardSpec{"availability",
                           [available](const Marking& mk) { return available(mk) ? 1.0 : 0.0; }}},
      {});
  RunSpec spec;
  spec.transient = 100.0;
  spec.horizon = 20000.0;
  spec.replications = 10;
  spec.seed = 1;
  const auto result = study.run(spec);
  const auto& measure = result.reward("availability");
  std::cout << "simulated availability = " << measure.interval.mean << " +/- "
            << measure.interval.half_width << " (95% CI, " << spec.replications << " reps)\n";
  std::cout << "exact value inside the CI? "
            << (measure.interval.contains(steady.probability(available)) ? "yes" : "no") << "\n";
  return 0;
}
