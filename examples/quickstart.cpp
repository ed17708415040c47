// Quickstart: configure a machine, simulate it, and read the headline
// metrics — the 60-second tour of the ckptsim public API.
//
//   $ ./quickstart [--quick]
#include <exception>
#include <iostream>

#include "src/core/runner.h"
#include "src/model/parameters.h"
#include "src/report/cli.h"

int main(int argc, char** argv) try {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);
  const RunSpec spec = report::bench_spec(cli);  // the simulation controls

  // 1. Describe the machine (defaults are the paper's Table 3: a
  //    BlueGene/L-class system with 64K processors, 8 per node).
  Parameters machine;
  machine.num_processors = 131072;
  machine.mttf_node = 1.0 * units::kYear;
  machine.mttr_compute = 10.0 * units::kMinute;
  machine.checkpoint_interval = 30.0 * units::kMinute;

  std::cout << "Simulating a coordinated-checkpointing supercomputer:\n"
            << machine.describe() << "\n\n";

  // 2. Run with the controls read above (steady-state, replicated, 95% CIs)
  //    and inspect.
  const RunResult result = run_model(machine, spec);
  std::cout << result.describe() << "\n\n";

  std::cout << "Interpretation: each processor contributes "
            << result.useful_fraction.mean * 100.0 << "% of its capacity;\n"
            << "the machine performs like "
            << static_cast<long long>(result.total_useful_work)
            << " failure-free processors (the paper's 'total useful work').\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
