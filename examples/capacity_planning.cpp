// Capacity planning: how many processors should the machine have?
//
// Reproduces the paper's headline observation — "there is an optimum number
// of processors for which total useful work done by the system is
// maximized" — as a planning tool: given node reliability and recovery
// characteristics, find the processor count past which adding hardware
// *reduces* delivered computation.
//
//   $ ./capacity_planning [--quick] [--mttf-years Y] [--mttr-min M]
#include <exception>
#include <iostream>

#include "src/core/optimizer.h"
#include "src/model/parameters.h"
#include "src/report/cli.h"
#include "src/report/table.h"

int main(int argc, char** argv) try {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);

  Parameters base;
  base.coordination = CoordinationMode::kFixedQuiesce;  // the paper's base model
  base.mttf_node = cli.number("--mttf-years", 1.0) * units::kYear;
  base.mttr_compute = cli.number("--mttr-min", 10.0) * units::kMinute;

  std::cout << "Capacity planning for MTTF " << base.mttf_node / units::kYear
            << " yr/node, MTTR " << base.mttr_compute / units::kMinute << " min, interval "
            << base.checkpoint_interval / units::kMinute << " min\n\n";

  const RunSpec spec = report::bench_spec(cli);
  const auto optimum = find_optimal_processors(base, spec);

  report::Table table({"processors", "useful fraction", "total useful work", "verdict"});
  for (const auto& point : optimum.evaluated) {
    const bool is_best = static_cast<std::uint64_t>(point.x) == optimum.processors;
    table.add_row({report::Table::integer(point.x),
                   report::Table::num(point.useful_fraction, 4),
                   report::Table::integer(point.total_useful_work),
                   is_best ? "<-- optimum" : ""});
  }
  std::cout << table.render() << "\n";

  std::cout << "Buy " << optimum.processors << " processors: the machine then delivers "
            << static_cast<long long>(optimum.total_useful_work)
            << " processor-equivalents of useful work ("
            << optimum.useful_fraction * 100.0 << "% efficiency).\n"
            << "Beyond that, the higher failure rate destroys more work than the\n"
            << "extra processors contribute.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
