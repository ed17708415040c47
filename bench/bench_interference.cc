// Shared-platform interference figure: K jobs contending for one parallel
// file system, the same mix simulated under every PFS contention policy.
//
// The policies are CRN-paired — replication r of every policy draws the
// same per-job failure/coordination/recovery streams (the policy never
// enters seed derivation) — so the per-job useful-work-fraction deltas in
// the table are policy effects, not sampling noise.  The per-job failure
// counts printed per policy are identical by construction; the bench
// asserts that, making every run a self-checking CRN regression.
//
//   $ bench_interference [--quick] [--reps N] [--seed N] ...
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/model/parameters.h"
#include "src/platform/interference.h"
#include "src/platform/job_mix.h"
#include "src/report/cli.h"
#include "src/report/csv.h"
#include "src/report/table.h"

int main(int argc, char** argv) {
  using namespace ckptsim;
  try {
    const report::Cli cli(argc, argv);
    RunSpec spec = report::bench_spec(cli);

    // A deliberately heterogeneous mix: one capability job that dominates
    // failure exposure, two capacity jobs with shorter intervals that
    // dominate PFS request rate.
    Parameters base;
    platform::JobMix mix;
    platform::JobSpec big{"big", base};
    big.params.num_processors = 65536;
    platform::JobSpec mid{"mid", base};
    mid.params.num_processors = 16384;
    mid.params.checkpoint_interval = 20.0 * units::kMinute;
    platform::JobSpec small{"small", base};
    small.params.num_processors = 8192;
    small.params.checkpoint_interval = 15.0 * units::kMinute;
    mix.jobs = {big, mid, small};

    const platform::PfsPolicy policies[] = {
        platform::PfsPolicy::kFairShare, platform::PfsPolicy::kFcfs,
        platform::PfsPolicy::kBlockingCooperative, platform::PfsPolicy::kStaggered};

    std::cout << "=== interference: 3-job mix, one shared PFS, policy comparison ===\n";
    std::cout << (report::quick_mode(cli) ? "[quick mode] " : "")
              << "replications=" << spec.replications << " horizon=" << spec.horizon / 3600.0
              << "h transient=" << spec.transient / 3600.0 << "h seed=" << spec.seed << "\n\n";

    report::Table table({"policy", "job", "useful_fraction", "ci_half_width", "dump_stretch",
                         "commits", "failures"});
    const std::string csv_path = "interference.csv";
    report::CsvWriter csv(csv_path,
                          {"policy", "job", "useful_fraction", "ci_half_width", "dump_stretch",
                           "commits", "failures", "pfs_utilization", "replications"});

    // Per-job failure counts from the first policy; every later policy must
    // reproduce them exactly (the CRN contract).
    std::vector<std::uint64_t> baseline_failures;
    for (const platform::PfsPolicy policy : policies) {
      mix.pfs.policy = policy;
      mix.validate();
      const platform::InterferenceResult r = platform::run_interference(mix, spec);
      const std::string pol(to_string(policy));
      for (std::size_t j = 0; j < r.jobs.size(); ++j) {
        const platform::InterferenceJobResult& job = r.jobs[j];
        if (policy == policies[0]) {
          baseline_failures.push_back(job.failures);
        } else if (job.failures != baseline_failures[j]) {
          std::cerr << "CRN violation: job '" << job.name << "' saw " << job.failures
                    << " failures under " << pol << " but " << baseline_failures[j]
                    << " under " << to_string(policies[0]) << "\n";
          return 1;
        }
        table.add_row({pol, job.name,
                       report::Table::num(job.useful_fraction.mean, 4),
                       report::Table::num(job.useful_fraction.half_width, 4),
                       report::Table::num(job.stretch_replicates.mean(), 3),
                       std::to_string(job.commits), std::to_string(job.failures)});
        csv.add_row({pol, job.name,
                     report::Table::num(job.useful_fraction.mean, 6),
                     report::Table::num(job.useful_fraction.half_width, 6),
                     report::Table::num(job.stretch_replicates.mean(), 6),
                     std::to_string(job.commits), std::to_string(job.failures),
                     report::Table::num(r.pfs_utilization.mean(), 6),
                     std::to_string(r.replications)});
      }
      std::cout << "policy " << pol << ": pfs_utilization = "
                << report::Table::num(r.pfs_utilization.mean(), 4) << "\n";
    }
    std::cout << "\n" << table.render();
    std::cout << "\nper-job failure counts are identical across policies (CRN check passed)\n";
    csv.close();  // atomic publish (temp+rename); throws on write failure
    std::cout << "wrote " << csv_path << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
