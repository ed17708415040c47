// Correlated-failure impact assessment: how much do correlated failures
// cost a large deployment, and which kind matters?
//
// Walks both of the paper's mechanisms (Sec. 6): error-propagation bursts
// gated to recoveries (harmless, Fig. 7) and generic correlated failures
// that inflate the whole failure rate (devastating at scale, Fig. 8), plus
// the birth-death derivation linking the conditional failure probability to
// the frate_correlated_factor.
//
//   $ ./correlated_failures [--quick]
#include <exception>
#include <iostream>

#include "src/analytic/birth_death.h"
#include "src/core/runner.h"
#include "src/model/parameters.h"
#include "src/report/cli.h"
#include "src/report/table.h"

int main(int argc, char** argv) try {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);
  const RunSpec spec = report::bench_spec(cli);

  Parameters base;
  base.num_processors = 262144;
  base.mttf_node = 3.0 * units::kYear;

  std::cout << "How the correlated factor maps to a conditional probability\n"
               "(birth-death chain of paper Fig. 3, at this machine's scale):\n";
  report::Table map({"factor r", "implied P(next failure before recovery)"});
  for (const double r : {100.0, 400.0, 1600.0}) {
    map.add_row({report::Table::integer(r),
                 report::Table::num(analytic::conditional_probability_from_factor(
                                        r, 1.0 / base.mttr_compute,
                                        1.0 / base.mttf_node, base.nodes()),
                                    3)});
  }
  std::cout << map.render() << "\n";

  const auto baseline = run_model(base, spec);
  std::cout << "Baseline (no correlation): fraction = "
            << report::Table::num(baseline.useful_fraction.mean, 4) << "\n\n";

  std::cout << "Error-propagation bursts (only bite during recovery):\n";
  report::Table prop({"p_e", "r", "useful fraction", "windows", "extra failures"});
  for (const double pe : {0.05, 0.2}) {
    for (const double r : {400.0, 1600.0}) {
      Parameters p = base;
      p.prob_correlated = pe;
      p.correlated_factor = r;
      const auto res = run_model(p, spec);
      prop.add_row({report::Table::num(pe, 2), report::Table::integer(r),
                    report::Table::num(res.useful_fraction.mean, 4),
                    report::Table::integer(static_cast<double>(res.totals.prop_windows)),
                    report::Table::integer(static_cast<double>(res.totals.extra_failures))});
    }
  }
  std::cout << prop.render() << "\n";

  std::cout << "Generic correlated failures (inflate the whole failure rate):\n";
  report::Table gen({"alpha", "r", "rate multiplier", "useful fraction", "loss vs baseline"});
  for (const double alpha : {0.00125, 0.0025, 0.005}) {
    Parameters p = base;
    p.generic_correlated_coefficient = alpha;
    p.correlated_factor = 400.0;
    const auto res = run_model(p, spec);
    gen.add_row({report::Table::num(alpha, 5), "400",
                 report::Table::num(1.0 + alpha * 400.0, 2),
                 report::Table::num(res.useful_fraction.mean, 4),
                 report::Table::num(baseline.useful_fraction.mean - res.useful_fraction.mean,
                                    4)});
  }
  std::cout << gen.render() << "\n";
  std::cout << "Takeaway (matches the paper): bursts confined to recovery windows are\n"
               "absorbed, but any mechanism that raises the *global* failure rate\n"
               "halves delivered work long before hardware limits are reached.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
