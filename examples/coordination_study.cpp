// Coordination and timeout tuning: what master timeout should a
// coordinated-checkpointing deployment configure?
//
// Uses the max-of-n-exponentials coordination model (paper Sec. 5) to show
// the coordination-latency distribution at several scales, derive the
// timeout that keeps the abort probability below a target, and verify the
// recommendation by simulation (paper Sec. 7.2: performance is insensitive
// to the timeout once it exceeds a small threshold).
//
//   $ ./coordination_study [--quick] [--processors N] [--abort-prob P]
#include <exception>
#include <iostream>

#include "src/analytic/coordination.h"
#include "src/core/optimizer.h"
#include "src/core/runner.h"
#include "src/model/parameters.h"
#include "src/report/cli.h"
#include "src/report/table.h"
#include "src/sim/distributions.h"

int main(int argc, char** argv) try {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);

  Parameters machine;
  machine.num_processors =
      static_cast<std::uint64_t>(cli.number("--processors", 65536));
  machine.mttf_node = 3.0 * units::kYear;
  const double abort_prob = cli.number("--abort-prob", 0.01);

  const sim::MaxOfExponentials dist(machine.num_processors, machine.mttq);
  std::cout << "Coordination latency at " << machine.num_processors
            << " processors (MTTQ = " << machine.mttq << " s):\n"
            << "  mean: " << dist.mean() << " s (log-growth: ~MTTQ * ln n)\n"
            << "  p50:  " << dist.quantile(0.50) << " s\n"
            << "  p90:  " << dist.quantile(0.90) << " s\n"
            << "  p99:  " << dist.quantile(0.99) << " s\n\n";

  const double recommended = recommended_timeout(machine, abort_prob);
  std::cout << "Recommended timeout for P(abort) <= " << abort_prob << ": "
            << recommended << " s\n\n";

  const RunSpec spec = report::bench_spec(cli);
  report::Table table({"timeout (s)", "P(abort) analytic", "useful fraction (sim)"});
  for (const double timeout : {20.0, 60.0, 100.0, recommended, 0.0}) {
    Parameters p = machine;
    p.timeout = timeout;
    const auto r = run_model(p, spec);
    table.add_row({timeout == 0.0 ? "none" : report::Table::integer(timeout),
                   report::Table::num(analytic::timeout_abort_probability(
                                          p.num_processors, p.mttq, timeout),
                                      4),
                   report::Table::num(r.useful_fraction.mean, 4)});
  }
  std::cout << table.render() << "\n";
  std::cout << "Reading: once the timeout clears the coordination distribution's\n"
               "tail, the fraction matches the no-timeout system — exactly the\n"
               "paper's threshold insensitivity.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
