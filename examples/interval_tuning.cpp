// Checkpoint-interval tuning: how often should the system checkpoint?
//
// Contrasts the classical analytic answers (Young's sqrt(2*delta*M) and
// Daly's higher-order refinement) with the simulated full model, showing
// the paper's conclusion that minutes-granularity checkpointing is required
// at scale and no practical optimum exists inside 15 min .. 4 h.
//
//   $ ./interval_tuning [--quick] [--processors N]
#include <exception>
#include <iostream>

#include "src/analytic/daly.h"
#include "src/analytic/young.h"
#include "src/core/optimizer.h"
#include "src/model/io_timing.h"
#include "src/model/parameters.h"
#include "src/report/cli.h"
#include "src/report/table.h"

int main(int argc, char** argv) try {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);

  Parameters machine;
  machine.num_processors =
      static_cast<std::uint64_t>(cli.number("--processors", 131072));
  machine.coordination = CoordinationMode::kFixedQuiesce;

  const IoTiming timing(machine);
  const double mtbf = 1.0 / machine.system_failure_rate();
  const double overhead = machine.mttq + timing.dump;

  std::cout << "Interval tuning for " << machine.num_processors << " processors\n"
            << "  system MTBF: " << mtbf / units::kMinute << " min\n"
            << "  foreground checkpoint overhead: " << overhead << " s\n\n";

  std::cout << "Classical models say:\n"
            << "  Young: " << analytic::young_optimal_interval(overhead, mtbf) / units::kMinute
            << " min\n"
            << "  Daly:  " << analytic::daly_optimal_interval(overhead, mtbf) / units::kMinute
            << " min\n\n";

  const RunSpec spec = report::bench_spec(cli);
  std::vector<double> grid;
  for (const double minutes : {5.0, 10.0, 15.0, 30.0, 60.0, 120.0, 240.0}) {
    grid.push_back(minutes * units::kMinute);
  }
  const auto scan = scan_checkpoint_interval(machine, spec, grid);

  report::Table table({"interval (min)", "useful fraction", "total useful work"});
  for (const auto& point : scan.evaluated) {
    table.add_row({report::Table::integer(point.x / units::kMinute),
                   report::Table::num(point.useful_fraction, 4),
                   report::Table::integer(point.total_useful_work)});
  }
  std::cout << "Simulated full model:\n" << table.render() << "\n";
  std::cout << "Best simulated interval: " << scan.best_interval() / units::kMinute
            << " min\n"
            << (scan.has_interior_optimum()
                    ? "An interior optimum exists in this regime."
                    : "No interior optimum: shorter is better down to the practical "
                      "floor, as the paper reports for large systems.")
            << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
