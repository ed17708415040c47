// Job-makespan planning with event tracing: how long will a capability run
// take on this machine, and what does its execution actually look like?
//
// Uses the job-completion API (run-until-useful-work) plus the structured
// event log to show the checkpoint/rollback timeline of one replication.
//
//   $ ./job_makespan [--quick] [--work-hours W] [--processors N] [--trace]
#include <cmath>
#include <exception>
#include <iostream>

#include "src/core/job.h"
#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/report/cli.h"
#include "src/report/table.h"
#include "src/trace/event_log.h"

int main(int argc, char** argv) try {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);
  if (const int rc = cli.check_flags({{"--quick", false}, {"--processors", true},
                                      {"--work-hours", true}, {"--trace", false}});
      rc != 0) {
    return rc;
  }

  Parameters machine;
  machine.num_processors = cli.count("--processors", 131072);
  machine.coordination = CoordinationMode::kFixedQuiesce;
  machine.validate();  // before the first line printed about the machine

  JobSpec job;
  job.work_hours = cli.number("--work-hours", 72.0);
  job.replications = report::quick_mode(cli) ? 3 : 8;

  std::cout << "Job: " << job.work_hours << " h of useful machine time on "
            << machine.num_processors << " processors ("
            << job.work_hours * static_cast<double>(machine.num_processors)
            << " processor-hours)\n\n";

  const JobResult result = run_job(machine, job);
  std::cout << "completed " << result.completed << "/" << result.replications
            << " replications\n"
            << "makespan: " << result.makespans.mean() << " h  (95% CI +/- "
            << result.makespan_ci.half_width << ", min " << result.makespans.min() << ", max "
            << result.makespans.max() << ")\n"
            << "efficiency: " << result.mean_efficiency(job.work_hours) << "\n"
            << "slowdown vs failure-free: " << result.mean_slowdown(job.work_hours) << "x\n\n";

  // One traced replication: summarise the event timeline.
  trace::EventLog log(1 << 20);
  DesModel model(machine, 12345);
  model.set_event_log(&log);
  const double makespan = model.run_until_work(job.work_hours * 3600.0, 1e9);
  std::cout << "traced replication finished in " << makespan / 3600.0 << " h:\n";
  report::Table events({"event", "count"});
  using trace::EventKind;
  for (const auto kind :
       {EventKind::kCkptInitiated, EventKind::kDumpDone, EventKind::kCkptCommitted,
        EventKind::kCkptAborted, EventKind::kComputeFailure, EventKind::kRollback,
        EventKind::kRecoveryDone, EventKind::kRebootStarted}) {
    events.add_row({trace::to_string(kind),
                    std::to_string(static_cast<long long>(log.count(kind)))});
  }
  std::cout << events.render();

  double lost = 0.0;
  for (const auto& e : log.of_kind(EventKind::kRollback)) lost += e.value;
  std::cout << "\nwork rolled back across the run: " << lost / 3600.0 << " h ("
            << 100.0 * lost / (makespan > 0 ? makespan : 1.0) << "% of the makespan)\n";

  if (cli.given("--trace")) {
    std::cout << "\nlast events:\n" << log.tail(25);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
