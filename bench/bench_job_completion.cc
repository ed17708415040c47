// Job-completion view of the scalability result: expected makespan of a
// fixed batch job vs machine size.  The paper's total-useful-work optimum
// (Fig. 4a) reappears as a makespan *minimum* — the completion-time measure
// of Kulkarni/Nicola/Trivedi [17] that the useful-work reward approximates.
#include <iostream>

#include "src/core/job.h"
#include "src/model/parameters.h"
#include "src/report/cli.h"
#include "src/report/csv.h"
#include "src/report/table.h"

int main(int argc, char** argv) {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);
  if (const int rc = cli.check_flags({{"--quick", false}}); rc != 0) return rc;
  const bool quick = report::quick_mode(cli);

  // A job needing 10^7 processor-hours of useful work: the machine-level
  // work target scales inversely with the processor count.
  const double job_processor_hours = 1.0e7;
  std::cout << "=== Job completion: makespan of a " << job_processor_hours
            << " processor-hour job vs machine size ===\n"
            << "(MTTF 1 yr/node, MTTR 10 min, 30-min interval, base model)\n\n";

  report::Table table({"processors", "mean makespan (h)", "95% CI (h)", "efficiency",
                       "slowdown vs failure-free"});
  report::CsvWriter csv("job_completion.csv",
                        {"processors", "makespan_hours", "ci_half_width", "efficiency"});
  for (const std::uint64_t procs : {16384ULL, 32768ULL, 65536ULL, 131072ULL, 262144ULL}) {
    Parameters p;
    p.num_processors = procs;
    p.coordination = CoordinationMode::kFixedQuiesce;
    JobSpec spec;
    spec.work_hours = job_processor_hours / static_cast<double>(procs);
    spec.deadline_hours = 1e6;
    spec.replications = quick ? 3 : 5;
    const JobResult r = run_job(p, spec);
    table.add_row({report::Table::integer(static_cast<double>(procs)),
                   report::Table::num(r.makespans.mean(), 1),
                   report::Table::num(r.makespan_ci.half_width, 1),
                   report::Table::num(r.mean_efficiency(spec.work_hours), 3),
                   report::Table::num(r.mean_slowdown(spec.work_hours), 2)});
    csv.add_row({report::Table::integer(static_cast<double>(procs)),
                 report::Table::num(r.makespans.mean(), 3),
                 report::Table::num(r.makespan_ci.half_width, 3),
                 report::Table::num(r.mean_efficiency(spec.work_hours), 5)});
  }
  csv.close();  // atomic publish (temp+rename); throws on write failure
  std::cout << table.render() << "\n";
  std::cout << "expected shape: the makespan is minimised near the Fig. 4a optimum\n"
               "(~128K processors at these parameters) — beyond it, extra processors\n"
               "shrink the per-machine work target more slowly than failures grow.\n"
               "wrote job_completion.csv\n";
  return 0;
}
