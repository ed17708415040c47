// Time-budget decomposition of the paper's ">50% of system resources are
// spent in checkpointing and recovering from failure" claim (Sec. 7.1):
// where the machine's hours actually go as it scales.
#include <exception>
#include <iostream>

#include "src/core/runner.h"
#include "src/model/parameters.h"
#include "src/report/cli.h"
#include "src/report/csv.h"
#include "src/report/table.h"

int main(int argc, char** argv) try {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);
  const RunSpec spec = report::bench_spec(cli);

  std::cout << "=== Time budget vs machine size (base model, MTTF 1 yr, MTTR 10 min, "
               "30-min interval) ===\n\n";
  report::Table table({"processors", "executing", "checkpointing", "recovering", "rebooting",
                       "useful", "wasted rework"});
  report::CsvWriter csv("downtime_breakdown.csv",
                        {"processors", "executing", "checkpointing", "recovering", "rebooting",
                         "useful_fraction"});
  for (const std::uint64_t procs : {8192ULL, 32768ULL, 131072ULL, 262144ULL}) {
    Parameters p;
    p.num_processors = procs;
    p.coordination = CoordinationMode::kFixedQuiesce;
    const auto r = run_model(p, spec);
    const auto& b = r.mean_breakdown;
    // Rework = executed time that was later rolled back.
    const double rework = b.executing - r.useful_fraction.mean;
    table.add_row({report::Table::integer(static_cast<double>(procs)),
                   report::Table::num(b.executing, 3), report::Table::num(b.checkpointing, 3),
                   report::Table::num(b.recovering, 3), report::Table::num(b.rebooting, 3),
                   report::Table::num(r.useful_fraction.mean, 3),
                   report::Table::num(rework, 3)});
    csv.add_row({report::Table::integer(static_cast<double>(procs)),
                 report::Table::num(b.executing, 5), report::Table::num(b.checkpointing, 5),
                 report::Table::num(b.recovering, 5), report::Table::num(b.rebooting, 5),
                 report::Table::num(r.useful_fraction.mean, 5)});
  }
  csv.close();  // atomic publish (temp+rename); throws on write failure
  std::cout << table.render() << "\n";
  std::cout << "reading: at the paper's 128K-processor optimum, 'useful' is ~0.44 —\n"
               "the other ~56% splits into rolled-back rework (the dominant loss),\n"
               "recovery time, and the comparatively small checkpointing overhead\n"
               "(which is why shrinking the interval keeps paying off).\n"
               "wrote downtime_breakdown.csv\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
