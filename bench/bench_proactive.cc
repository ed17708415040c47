// Proactive fault tolerance: the same machine simulated under every
// proactive policy (plus the reactive baseline), with a shared failure
// predictor.
//
// The policies are CRN-paired — replication r of every configuration draws
// the same true-failure trajectory (predictor and policy decisions live on
// their own "proactive/*" substreams and never enter seed derivation) — so
// the useful-work deltas in the table are pure policy effects, not sampling
// noise.  The per-replication failure-count checksum printed per policy is
// identical by construction; the bench asserts that at startup, making
// every run a self-checking CRN regression.
//
//   $ bench_proactive [--quick] [--reps N] [--seed N] ...
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/model/parameters.h"
#include "src/proactive/run.h"
#include "src/report/cli.h"
#include "src/report/csv.h"
#include "src/report/table.h"

int main(int argc, char** argv) {
  using namespace ckptsim;
  try {
    const report::Cli cli(argc, argv);
    const RunSpec spec = report::bench_spec(cli);

    Parameters base;
    base.predictor_enabled = true;
    base.predictor_precision = 0.8;
    base.predictor_recall = 0.7;
    base.predictor_lead_time = 5.0 * units::kMinute;

    struct Config {
      const char* label;
      ProactivePolicy policy;
      bool predictor;
    };
    // The reactive baseline twice — with and without the predictor running —
    // plus every proactive policy.  The two baselines double as the CRN
    // witness: a predictor that merely *observes* must not change anything.
    const Config configs[] = {
        {"none (no predictor)", ProactivePolicy::kNone, false},
        {"none (predictor on)", ProactivePolicy::kNone, true},
        {"proactive-checkpoint", ProactivePolicy::kProactiveCheckpoint, true},
        {"migrate", ProactivePolicy::kMigrate, true},
        {"malleable", ProactivePolicy::kMalleable, true},
    };

    std::cout << "=== proactive: policy comparison under one failure predictor ===\n";
    std::cout << (report::quick_mode(cli) ? "[quick mode] " : "")
              << "replications=" << spec.replications << " horizon=" << spec.horizon / 3600.0
              << "h transient=" << spec.transient / 3600.0 << "h seed=" << spec.seed
              << "  predictor: precision " << base.predictor_precision << ", recall "
              << base.predictor_recall << ", lead " << base.predictor_lead_time << " s\n\n";

    report::Table table({"config", "useful_fraction", "ci_half_width", "total_useful_work",
                         "predicted", "false_alarms", "actions", "absorbed"});
    const std::string csv_path = "proactive.csv";
    report::CsvWriter csv(csv_path,
                          {"config", "policy", "useful_fraction", "ci_half_width",
                           "total_useful_work", "replications", "failures_checksum",
                           "predictions_true", "false_alarms", "proactive_ckpts",
                           "actions_skipped", "migrations", "migrations_wasted",
                           "failures_absorbed", "rescales", "repairs"});

    // True-failure checksum from the first config; every later config must
    // reproduce it exactly (the CRN contract).
    std::uint64_t baseline_checksum = 0;
    for (const Config& config : configs) {
      Parameters p = base;
      p.proactive_policy = config.policy;
      p.predictor_enabled = config.predictor;
      p.validate();
      const proactive::ProactiveResult r = proactive::run_proactive(p, spec);
      const std::uint64_t checksum = r.failures_checksum();
      if (config.policy == ProactivePolicy::kNone && !config.predictor) {
        baseline_checksum = checksum;
      } else if (checksum != baseline_checksum) {
        std::cerr << "CRN violation: config '" << config.label
                  << "' saw failure checksum " << checksum << " but the baseline saw "
                  << baseline_checksum << "\n";
        return 1;
      }
      const std::uint64_t actions =
          r.totals.proactive_ckpts + r.totals.migrations + r.totals.rescales;
      table.add_row({config.label,
                     report::Table::num(r.run.useful_fraction.mean, 4),
                     report::Table::num(r.run.useful_fraction.half_width, 4),
                     report::Table::integer(r.run.total_useful_work),
                     std::to_string(r.totals.predictions_true),
                     std::to_string(r.totals.false_alarms), std::to_string(actions),
                     std::to_string(r.totals.failures_absorbed)});
      csv.add_row({config.label, std::string(to_string(config.policy)),
                   report::Table::num(r.run.useful_fraction.mean, 6),
                   report::Table::num(r.run.useful_fraction.half_width, 6),
                   report::Table::num(r.run.total_useful_work, 1),
                   std::to_string(r.run.replications), std::to_string(checksum),
                   std::to_string(r.totals.predictions_true),
                   std::to_string(r.totals.false_alarms),
                   std::to_string(r.totals.proactive_ckpts),
                   std::to_string(r.totals.actions_skipped),
                   std::to_string(r.totals.migrations),
                   std::to_string(r.totals.migrations_wasted),
                   std::to_string(r.totals.failures_absorbed),
                   std::to_string(r.totals.rescales), std::to_string(r.totals.repairs)});
    }
    std::cout << table.render();
    std::cout << "\ntrue-failure checksums are identical across configs (CRN check passed)\n";
    csv.close();  // atomic publish (temp+rename); throws on write failure
    std::cout << "wrote " << csv_path << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
