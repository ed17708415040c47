// Table 3: model parameters — the defaults encoded in ckptsim::Parameters
// together with their paper provenance, plus the derived quantities the
// model computes from them (dump/write times, failure rates, ...).
#include <iostream>

#include "src/model/io_timing.h"
#include "src/model/parameters.h"
#include "src/report/cli.h"
#include "src/report/table.h"

int main(int argc, char** argv) {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);
  if (const int rc = cli.check_flags({{"--quick", false}}); rc != 0) return rc;
  const Parameters p;
  std::cout << "=== Table 3: Model Parameters ===\n\n";

  report::Table table({"parameter", "default", "paper range", "provenance"});
  table.add_row({"checkpoint interval", "30 min", "15 min - 4 hr",
                 "other studies + vendor communication"});
  table.add_row({"MTTF per node", "1 yr", "1 - 25 yr",
                 "ASCI Q ~ 1 yr; IBM mainframes ~ 25 yr"});
  table.add_row({"MTTR (compute, system-wide)", "10 min", "10 - 80 min",
                 "checkpoint read + reinitialisation"});
  table.add_row({"MTTR of I/O nodes", "1 min", "-", "I/O node restart time"});
  table.add_row({"compute processors", "64K", "8K - 256K", "current/future systems"});
  table.add_row({"processors per node", "8", "8 - 32", "BG/L has 2, ASCI Q has 4"});
  table.add_row({"MTTQ (per-processor quiesce)", "10 s", "0.5 - 10 s",
                 "close handles, reach safe point"});
  table.add_row({"broadcast overhead", "1 ms", "-", "BG/L hardware broadcast tree"});
  table.add_row({"software overhead", "1 ms", "-", "TCP/IP / UDP message latency"});
  table.add_row({"app I/O-compute period", "3 min", "-",
                 "I/O characteristics of parallel applications [15]"});
  table.add_row({"fraction of computation", "0.95", "0.88 - 1.0", "same source"});
  table.add_row({"timeout", "disabled", "20 s - 2 min", "master abort period"});
  table.add_row({"prob. of correlated failure", "0", "0 - 0.2", "field data [6]"});
  table.add_row({"correlated failure factor r", "400", "100 - 1600",
                 "error-propagation projections"});
  table.add_row({"correlated failure window", "3 min", "-", "error-burst persistence"});
  table.add_row({"system reboot time", "1 hr", "-", "large-cluster startup anecdotes"});
  table.add_row({"compute->I/O bandwidth", "350 MB/s", "-", "BG/L (64 nodes share 1 I/O node)"});
  table.add_row({"I/O->FS bandwidth", "1 Gb/s", "-", "BG/L"});
  table.add_row({"checkpoint size per node", "256 MB", "-", "BG/L field data"});
  table.add_row({"app I/O data per node", "10 MB", "-", "parallel-app characteristics"});
  std::cout << table.render() << "\n";

  std::cout << "derived quantities (from the defaults):\n";
  const IoTiming timing(p);
  report::Table derived({"quantity", "value"});
  derived.add_row({"compute nodes", report::Table::integer(p.nodes())});
  derived.add_row({"I/O nodes", report::Table::integer(p.io_nodes())});
  derived.add_row({"system failure rate (per hour)",
                   report::Table::num(p.system_failure_rate() * 3600.0, 4)});
  derived.add_row({"system MTBF (minutes)",
                   report::Table::num(1.0 / p.system_failure_rate() / 60.0, 1)});
  derived.add_row({"checkpoint dump time (s)", report::Table::num(timing.dump, 1)});
  derived.add_row({"checkpoint FS write time (s)", report::Table::num(timing.fs_write, 1)});
  derived.add_row({"app-data FS write time (s)", report::Table::num(timing.app_write, 2)});
  derived.add_row({"mean coordination time @64K (s)",
                   report::Table::num(p.mean_coordination_time(), 1)});
  std::cout << derived.render() << "\n";

  std::cout << "full parameter dump:\n" << p.describe() << "\n";
  return 0;
}
