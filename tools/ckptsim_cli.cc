// ckptsim command-line simulator: the full model behind flags, for use
// without writing any C++.
//
//   $ ckptsim_cli --processors 131072 --mttf-years 1 --interval-min 30
//   $ ckptsim_cli --engine san --timeout 100 --reps 8
//   $ ckptsim_cli --job-hours 72            # makespan mode
//   $ ckptsim_cli --sweep interval --journal sweep.jsonl --csv sweep.csv
//   $ ckptsim_cli --help
#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/fault.h"
#include "src/core/job.h"
#include "src/core/journal.h"
#include "src/core/optimizer.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/des_model.h"
#include "src/model/parameters.h"
#include "src/proactive/proactive_model.h"
#include "src/proactive/run.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/platform/interference.h"
#include "src/platform/job_mix.h"
#include "src/report/cli.h"
#include "src/report/csv.h"
#include "src/report/table.h"
#include "src/sim/rng.h"
#include "src/trace/event_log.h"

namespace {

// SIGINT requests cooperative cancellation: the drivers finish in-flight
// replications, journal every completed sweep point, then throw
// SimError(kInterrupted).  A second ^C falls back to the default handler
// (immediate kill) so a wedged run can still be stopped.
std::atomic<bool> g_interrupted{false};

void on_sigint(int) {
  g_interrupted.store(true, std::memory_order_relaxed);
  std::signal(SIGINT, SIG_DFL);
}

void print_help() {
  std::cout <<
      R"(ckptsim_cli — coordinated-checkpointing supercomputer simulator (DSN'05 model)

Machine (defaults = the paper's Table 3):
  --processors N          compute processors            [65536]
  --procs-per-node N      processors per node           [8]
  --mttf-years Y          per-node MTTF                 [1]
  --mttr-min M            compute recovery mean         [10]
  --interval-min I        checkpoint interval           [30]
  --mttq S                per-processor quiesce mean    [10]
  --timeout S             master timeout, 0 = none      [0]
  --coordination MODE     fixed | exp | max             [max]
  --compute-fraction F    app compute fraction          [0.95]
  --ckpt-mb MB            checkpoint size per node      [256]
  --sync-write            disable background FS writes
  --no-failures           disable every failure process
  --no-io-failures / --no-master-failures
  --prob-correlated P     error-propagation p_e         [0]
  --correlated-factor R   rate factor r                 [400]
  --generic-alpha A       generic correlation alpha     [0]
  --weibull-shape K       Weibull failures (DES only)
  --incremental F         incremental size fraction     [1 = full]
  --full-period K         full checkpoint every K-th    [1]

Simulation:
  --engine des|san        implementation                [des]
  --reps N --seed N --horizon-hours H --transient-hours T --quick
  --jobs N                replication worker threads    [auto: CKPTSIM_JOBS,
                          then hardware]; results identical for any N
  --scheduler KIND        event-queue backend: heap | calendar   [heap]
                          (SAN and multi-job interference; the DES engine
                          has fixed event slots and no queue);
                          results are bit-identical either way
  --job-hours W           job-completion mode: makespan of W useful hours

Precision-driven replications (run and sweep modes):
  --rel-precision R       stop adding replications once the relative 95%-CI
                          half-width of the useful-work fraction is <= R;
                          replications run in deterministic rounds, so the
                          result is bit-identical for any --jobs and sweep
                          points stay CRN-paired by replication index [off]
  --min-replications N    first round / floor             [5]
  --max-replications N    replication budget ceiling      [64]

Fault tolerance (run and sweep modes):
  --on-failure MODE       fail | retry | skip           [fail]
                          fail: rethrow the first failure (by index)
                          retry: re-run failed replications, derived seeds
                          skip: drop failed replications, report them
  --max-retries N         extra attempts per replication (retry mode) [2]
  --max-events N          per-replication event watchdog, 0 = unlimited [0]
  --snapshot-every-events N  capture a crash-resume snapshot of each
                          replication every N fired events (0 = off);
                          requires --snapshot-dir.  Re-running the same
                          command resumes each interrupted replication
                          from its snapshot, bit-identical to an
                          uninterrupted run; stale or corrupt snapshots
                          are rejected, never partially loaded [0]
  --snapshot-dir DIR      directory for replication snapshots (created if
                          missing; snapshots are deleted on completion)
  SIGINT (^C) cancels cooperatively: in-flight work finishes, completed
  sweep points are journaled, partial artifacts are flushed atomically.

Shared-platform interference (K jobs contending for one PFS):
  --interference MIX      job-mix spec: ';'-separated jobs, each
                          "name:key=value,...". Keys: procs, procs_per_node,
                          nodes_per_io, mttf_yr, mttr_min, interval_min,
                          ckpt_mb, mttq, compute_fraction; unset keys
                          inherit the machine flags above.  Example:
                          "big:procs=65536;small:procs=8192,interval_min=15"
  --pfs-policy P          shared-PFS contention policy   [fair]
                          fair:    processor-sharing fair share
                          fcfs:    one transfer at a time, arrival order
                          coop:    blocking cooperative — a job acquires an
                                   exclusive PFS grant before it quiesces
                          stagger: fair share + initiation offsets j*I/K
  --pfs-bandwidth-mbs B   shared-PFS bandwidth in MB/s   [derived from the
                          first job's I/O subsystem]
  A 1-job mix reproduces the single-application model bit-identically
  (same seeds, same rewards); --csv writes the per-job reward series.

Proactive fault tolerance (DES engine):
  --predictor-precision P fraction of warnings that are true  [0.8]
  --predictor-recall R    fraction of failures predicted      [0.5]
  --predictor-lead-s S    mean warning lead time (exp.)       [300]
                          any --predictor-* flag enables the predictor;
                          prediction quality never perturbs the failure
                          streams (CRN contract), so runs with different
                          predictors see bit-identical true failures
  --proactive-policy P    none | proactive-checkpoint | migrate | malleable
                          proactive-checkpoint: immediate coordinated dump
                          on every warning; migrate: evacuate the flagged
                          node (skip the rollback when the prediction was
                          true); malleable: shrink to N-k on node failure,
                          continue degraded, regrow after repair [none]
  --migration-cost-s S    node-evacuation pause (migrate)     [30]
  --rescale-cost-s S      shrink/regrow pause (malleable)     [60]
  --node-repair-min M     mean per-node repair time           [240]
  --failure-trace FILE    replay recorded failures (JSONL {"node":..,"t":..}
                          or CSV node,seconds) instead of sampling them;
                          strict validation, horizon-clipped replay

Optimizer (grid + golden-section, CRN-paired candidates):
  --optimize              search interval x policy x processors for the
                          configuration maximising total useful work;
                          every candidate runs under the same seeds, so a
                          repeated search is byte-identical
  --optimize-lo-min M / --optimize-hi-min M   interval range  [15 / 240]
  --optimize-grid N       coarse grid points (>= 3)           [9]
  --optimize-refine N     golden-section iterations           [10]
  --optimize-processors a,b,c   processor counts to compare   [--processors]
  --optimize-policies a,b,c     proactive policies to compare [--proactive-policy]
  --journal FILE / --resume     reuse the sweep journal: a killed search
                          resumed recomputes only unfinished candidates
  --csv FILE              write every evaluated candidate

Sweep (crash-safe parameter studies):
  --sweep AXIS            interval (minutes) | processors
  --sweep-values a,b,c    explicit x values              [paper's axis]
  --csv FILE              write the series CSV (atomic temp+rename)
  --journal FILE          append each completed point (fsync'd JSONL);
                          a killed sweep loses at most the in-flight point
  --resume                load FILE and recompute only missing points;
                          without it an existing non-empty journal is an
                          error (protects against silently mixing runs)

Observability (all off by default; never changes results):
  --progress              heartbeat to stderr: completed/total replications,
                          elapsed wall clock, ETA
  --metrics-out FILE      write run metrics JSON after the run (per-EventKind
                          counts, activity firings/aborts, event-queue peaks,
                          per-worker busy time)
  --chrome-trace FILE     run one extra traced replication (DES engine,
                          replication 0's seed) and write chrome://tracing /
                          Perfetto JSON of its protocol spans
)";
}

// Every flag the tool accepts; anything else on the command line is
// rejected up front with a "did you mean" hint — a typo'd flag must not
// silently run the simulation with the default it masked.
constexpr ckptsim::report::FlagSpec kFlags[] = {
    {"--processors", true},     {"--procs-per-node", true},   {"--mttf-years", true},
    {"--mttr-min", true},       {"--interval-min", true},     {"--mttq", true},
    {"--timeout", true},        {"--coordination", true},     {"--compute-fraction", true},
    {"--ckpt-mb", true},        {"--sync-write", false},      {"--no-failures", false},
    {"--no-io-failures", false},{"--no-master-failures", false},
    {"--prob-correlated", true},{"--correlated-factor", true},{"--generic-alpha", true},
    {"--weibull-shape", true},  {"--incremental", true},      {"--full-period", true},
    {"--predictor-precision", true},                          {"--predictor-recall", true},
    {"--predictor-lead-s", true},                             {"--proactive-policy", true},
    {"--migration-cost-s", true},                             {"--rescale-cost-s", true},
    {"--node-repair-min", true},                              {"--failure-trace", true},
    {"--optimize", false},      {"--optimize-lo-min", true},  {"--optimize-hi-min", true},
    {"--optimize-grid", true},  {"--optimize-refine", true},
    {"--optimize-processors", true},                          {"--optimize-policies", true},
    {"--engine", true},         {"--reps", true},             {"--seed", true},
    {"--horizon-hours", true},  {"--transient-hours", true},  {"--quick", false},
    {"--jobs", true},           {"--scheduler", true},
    {"--job-hours", true},      {"--rel-precision", true},    {"--min-replications", true},
    {"--max-replications", true},{"--on-failure", true},      {"--max-retries", true},
    {"--max-events", true},     {"--snapshot-every-events", true},
    {"--snapshot-dir", true},   {"--interference", true},     {"--pfs-policy", true},
    {"--pfs-bandwidth-mbs", true},
    {"--sweep", true},          {"--sweep-values", true},
    {"--csv", true},            {"--journal", true},          {"--resume", false},
    {"--progress", false},      {"--metrics-out", true},      {"--chrome-trace", true},
    {"--help", false},          {"-h", false},
};

int reject_unknown_flags(const ckptsim::report::Cli& cli) {
  const std::vector<ckptsim::report::FlagSpec> known(std::begin(kFlags), std::end(kFlags));
  const auto unknown = cli.unknown_flags(known);
  if (unknown.empty()) return 0;
  for (const std::string& flag : unknown) {
    std::cerr << "ckptsim_cli: unknown option '" << flag << "'";
    const std::string hint = ckptsim::report::Cli::suggest(flag, known);
    if (!hint.empty()) std::cerr << " (did you mean '" << hint << "'?)";
    std::cerr << "\n";
  }
  std::cerr << "run 'ckptsim_cli --help' for the option list\n";
  return 2;
}

std::vector<double> parse_values(const std::string& csv_list) {
  std::vector<double> xs;
  std::stringstream ss(csv_list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    std::size_t used = 0;
    const double v = std::stod(item, &used);
    if (used != item.size()) {
      throw std::invalid_argument("--sweep-values: '" + item + "' is not a number");
    }
    xs.push_back(v);
  }
  if (xs.empty()) throw std::invalid_argument("--sweep-values: no values given");
  return xs;
}

bool file_non_empty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0;
}

ckptsim::FailurePolicy parse_policy(const ckptsim::report::Cli& cli) {
  ckptsim::FailurePolicy policy;
  const std::string mode = cli.value("--on-failure", "fail");
  if (mode == "fail") {
    policy.mode = ckptsim::FailurePolicy::Mode::kFailFast;
  } else if (mode == "retry") {
    policy.mode = ckptsim::FailurePolicy::Mode::kRetry;
  } else if (mode == "skip") {
    policy.mode = ckptsim::FailurePolicy::Mode::kSkip;
  } else {
    throw std::invalid_argument("unknown --on-failure '" + mode + "' (fail|retry|skip)");
  }
  policy.max_retries = static_cast<std::size_t>(cli.number("--max-retries", 2.0));
  return policy;
}

int run_interference_mode(const ckptsim::Parameters& base, const ckptsim::RunSpec& spec,
                          const ckptsim::report::Cli& cli) {
  using namespace ckptsim;
  platform::JobMix mix = platform::parse_job_mix(cli.value("--interference"), base);
  const std::string policy = cli.value("--pfs-policy", "fair");
  if (!platform::pfs_policy_from_string(policy, &mix.pfs.policy)) {
    std::cerr << "unknown --pfs-policy '" << policy << "' (fair|fcfs|coop|stagger)\n";
    return 2;
  }
  const double mbs = cli.number("--pfs-bandwidth-mbs", 0.0);
  if (mbs > 0.0) mix.pfs.bandwidth = mbs * units::kMB;
  mix.validate();

  std::cout << mix.describe() << "\n";
  const platform::InterferenceResult r = platform::run_interference(mix, spec);

  report::Table table({"job", "useful_fraction", "ci_half_width", "dump_stretch",
                       "commits", "failures"});
  for (const auto& job : r.jobs) {
    table.add_row({job.name,
                   report::Table::num(job.useful_fraction.mean, 4),
                   report::Table::num(job.useful_fraction.half_width, 4),
                   report::Table::num(job.stretch_replicates.mean(), 3),
                   std::to_string(job.commits),
                   std::to_string(job.failures)});
  }
  std::cout << table.render();
  std::cout << "pfs_utilization: " << report::Table::num(r.pfs_utilization.mean(), 4)
            << "  policy: " << to_string(mix.pfs.policy) << "  replications: "
            << r.replications << "\n";

  const std::string csv_path = cli.value("--csv");
  if (!csv_path.empty()) {
    report::CsvWriter csv(csv_path,
                          {"job", "policy", "useful_fraction", "ci_half_width",
                           "dump_stretch", "commits", "failures", "pfs_utilization",
                           "replications"},
                          report::CsvWriter::WriteMode::kAtomic);
    for (const auto& job : r.jobs) {
      csv.add_row({job.name, std::string(to_string(mix.pfs.policy)),
                   report::Table::num(job.useful_fraction.mean, 6),
                   report::Table::num(job.useful_fraction.half_width, 6),
                   report::Table::num(job.stretch_replicates.mean(), 6),
                   std::to_string(job.commits), std::to_string(job.failures),
                   report::Table::num(r.pfs_utilization.mean(), 6),
                   std::to_string(r.replications)});
    }
    csv.close();
    std::cout << "wrote " << csv_path << "\n";
  }
  return 0;
}

int run_sweep_mode(const ckptsim::Parameters& base, ckptsim::RunSpec spec,
                   ckptsim::EngineKind engine, const ckptsim::report::Cli& cli) {
  using namespace ckptsim;
  const std::string axis = cli.value("--sweep");
  std::vector<double> xs;
  std::function<Parameters(Parameters, double)> apply;
  std::string x_name;
  if (axis == "interval") {
    x_name = "interval_min";
    xs = figure4_interval_axis_minutes();
    apply = [](Parameters pp, double x) {
      pp.checkpoint_interval = x * units::kMinute;
      return pp;
    };
  } else if (axis == "processors") {
    x_name = "processors";
    xs = figure4_processor_axis();
    apply = [](Parameters pp, double x) {
      pp.num_processors = static_cast<std::uint64_t>(x);
      return pp;
    };
  } else {
    std::cerr << "unknown --sweep '" << axis << "' (interval|processors)\n";
    return 2;
  }
  const std::string values = cli.value("--sweep-values");
  if (!values.empty()) xs = parse_values(values);

  std::optional<SweepJournal> journal;
  const std::string journal_path = cli.value("--journal");
  if (!journal_path.empty()) {
    if (!cli.has("--resume") && file_non_empty(journal_path)) {
      std::cerr << "error: journal '" << journal_path
                << "' exists; pass --resume to continue it or delete the file\n";
      return 2;
    }
    journal.emplace(journal_path);
    if (journal->loaded() > 0) {
      std::cout << "resuming: " << journal->loaded() << " completed point(s) loaded from "
                << journal_path << "\n";
    }
  }

  const SweepSeries series = sweep("sweep " + axis, base, xs, apply, spec, engine,
                                   journal.has_value() ? &*journal : nullptr);

  report::Table table({x_name, "useful_fraction", "ci_half_width", "total_useful_work"});
  for (const auto& point : series.points) {
    table.add_row({report::Table::num(point.x, 6),
                   report::Table::num(point.result.useful_fraction.mean, 4),
                   report::Table::num(point.result.useful_fraction.half_width, 4),
                   report::Table::integer(point.result.total_useful_work)});
  }
  std::cout << table.render();

  const std::string csv_path = cli.value("--csv");
  if (!csv_path.empty()) {
    report::CsvWriter csv(csv_path,
                          {x_name, "useful_fraction", "ci_half_width", "total_useful_work",
                           "replications", "skipped", "recovered"},
                          report::CsvWriter::WriteMode::kAtomic);
    for (const auto& point : series.points) {
      csv.add_row({report::Table::num(point.x, 6),
                   report::Table::num(point.result.useful_fraction.mean, 6),
                   report::Table::num(point.result.useful_fraction.half_width, 6),
                   report::Table::num(point.result.total_useful_work, 1),
                   std::to_string(point.result.replications),
                   std::to_string(point.result.failures.skipped.size()),
                   std::to_string(point.result.failures.recovered.size())});
    }
    csv.close();  // publish point: fsync + rename, throws on I/O failure
    std::cout << "\nwrote " << csv_path << "\n";
  }
  for (const auto& point : series.points) {
    if (!point.result.failures.clean()) {
      std::cout << "point x = " << point.x
                << ": replication failures: " << point.result.failures.describe() << "\n";
    }
  }
  return 0;
}

int run_proactive_mode(const ckptsim::Parameters& p, const ckptsim::RunSpec& spec,
                       const ckptsim::report::Cli& cli) {
  using namespace ckptsim;
  std::cout << p.describe() << "\n\n";
  const proactive::ProactiveResult r = proactive::run_proactive(p, spec);
  std::cout << r.describe() << "\n";

  const std::string csv_path = cli.value("--csv");
  if (!csv_path.empty()) {
    report::CsvWriter csv(csv_path,
                          {"policy", "useful_fraction", "ci_half_width", "total_useful_work",
                           "replications", "failures_checksum", "predictions_true",
                           "false_alarms", "proactive_ckpts", "actions_skipped", "migrations",
                           "migrations_wasted", "failures_absorbed", "rescales", "repairs"},
                          report::CsvWriter::WriteMode::kAtomic);
    csv.add_row({std::string(to_string(p.proactive_policy)),
                 report::Table::num(r.run.useful_fraction.mean, 6),
                 report::Table::num(r.run.useful_fraction.half_width, 6),
                 report::Table::num(r.run.total_useful_work, 1),
                 std::to_string(r.run.replications), std::to_string(r.failures_checksum()),
                 std::to_string(r.totals.predictions_true),
                 std::to_string(r.totals.false_alarms),
                 std::to_string(r.totals.proactive_ckpts),
                 std::to_string(r.totals.actions_skipped), std::to_string(r.totals.migrations),
                 std::to_string(r.totals.migrations_wasted),
                 std::to_string(r.totals.failures_absorbed), std::to_string(r.totals.rescales),
                 std::to_string(r.totals.repairs)});
    csv.close();
    std::cout << "wrote " << csv_path << "\n";
  }
  return 0;
}

std::vector<std::uint64_t> parse_uint_list(const std::string& csv_list, const char* flag) {
  std::vector<std::uint64_t> out;
  for (const double v : parse_values(csv_list)) {
    if (!(v > 0.0) || v != std::floor(v)) {
      throw std::invalid_argument(std::string(flag) + ": values must be positive integers");
    }
    out.push_back(static_cast<std::uint64_t>(v));
  }
  return out;
}

int run_optimize_mode(const ckptsim::Parameters& base, const ckptsim::RunSpec& spec,
                      const ckptsim::report::Cli& cli) {
  using namespace ckptsim;
  OptimizeSpec opt;
  opt.interval_lo = cli.number("--optimize-lo-min", opt.interval_lo / units::kMinute) *
                    units::kMinute;
  opt.interval_hi = cli.number("--optimize-hi-min", opt.interval_hi / units::kMinute) *
                    units::kMinute;
  opt.grid = static_cast<std::size_t>(cli.number("--optimize-grid", 9.0));
  opt.refine_iters = static_cast<std::size_t>(cli.number("--optimize-refine", 10.0));
  const std::string procs = cli.value("--optimize-processors");
  if (!procs.empty()) opt.processor_candidates = parse_uint_list(procs, "--optimize-processors");
  const std::string policies = cli.value("--optimize-policies");
  if (!policies.empty()) {
    std::stringstream ss(policies);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) opt.policies.push_back(parse_proactive_policy(item));
    }
  }

  std::optional<SweepJournal> journal;
  const std::string journal_path = cli.value("--journal");
  if (!journal_path.empty()) {
    if (!cli.has("--resume") && file_non_empty(journal_path)) {
      std::cerr << "error: journal '" << journal_path
                << "' exists; pass --resume to continue it or delete the file\n";
      return 2;
    }
    journal.emplace(journal_path);
    if (journal->loaded() > 0) {
      std::cout << "resuming: " << journal->loaded() << " completed candidate(s) loaded from "
                << journal_path << "\n";
    }
  }

  // Stream each candidate as it completes — the searcher's order is
  // deterministic, so this log is byte-identical across repeats.
  const OptimizeObserver observer = [](const OptimizeCandidate& c) {
    std::printf("candidate: interval %8.4f min  policy %-20s  procs %8llu  "
                "useful work %.6g%s\n",
                c.interval / units::kMinute, to_string(c.policy),
                static_cast<unsigned long long>(c.processors), c.total_useful_work,
                c.refined ? "  (refined)" : "");
  };
  const OptimumPolicy best =
      optimize(base, spec, opt, journal.has_value() ? &*journal : nullptr, observer);
  std::cout << "\n" << best.describe();

  const std::string csv_path = cli.value("--csv");
  if (!csv_path.empty()) {
    report::CsvWriter csv(csv_path,
                          {"interval_min", "policy", "processors", "total_useful_work",
                           "useful_fraction", "refined"},
                          report::CsvWriter::WriteMode::kAtomic);
    for (const auto& c : best.evaluated) {
      csv.add_row({report::Table::num(c.interval / units::kMinute, 6),
                   std::string(to_string(c.policy)), std::to_string(c.processors),
                   report::Table::num(c.total_useful_work, 1),
                   report::Table::num(c.useful_fraction, 6),
                   c.refined ? "1" : "0"});
    }
    csv.close();
    std::cout << "wrote " << csv_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);
  if (const int rc = reject_unknown_flags(cli); rc != 0) return rc;
  if (cli.has("--help") || cli.has("-h")) {
    print_help();
    return 0;
  }
  std::signal(SIGINT, on_sigint);

  Parameters p;
  try {
    p.num_processors = static_cast<std::uint64_t>(
        cli.number("--processors", static_cast<double>(p.num_processors)));
    p.processors_per_node = static_cast<std::uint32_t>(
        cli.number("--procs-per-node", p.processors_per_node));
    p.mttf_node = cli.number("--mttf-years", 1.0) * units::kYear;
    p.mttr_compute = cli.number("--mttr-min", 10.0) * units::kMinute;
    p.checkpoint_interval = cli.number("--interval-min", 30.0) * units::kMinute;
    p.mttq = cli.number("--mttq", p.mttq);
    p.timeout = cli.number("--timeout", 0.0);
    p.compute_fraction = cli.number("--compute-fraction", p.compute_fraction);
    p.checkpoint_size_per_node = cli.number("--ckpt-mb", 256.0) * units::kMB;
    const std::string mode = cli.value("--coordination", "max");
    if (mode == "fixed") {
      p.coordination = CoordinationMode::kFixedQuiesce;
    } else if (mode == "exp") {
      p.coordination = CoordinationMode::kSystemExponential;
    } else if (mode == "max") {
      p.coordination = CoordinationMode::kMaxOfExponentials;
    } else {
      std::cerr << "unknown --coordination '" << mode << "' (fixed|exp|max)\n";
      return 2;
    }
    if (cli.has("--sync-write")) p.background_fs_write = false;
    if (cli.has("--no-failures")) {
      p.compute_failures_enabled = false;
      p.io_failures_enabled = false;
      p.master_failures_enabled = false;
    }
    if (cli.has("--no-io-failures")) p.io_failures_enabled = false;
    if (cli.has("--no-master-failures")) p.master_failures_enabled = false;
    p.prob_correlated = cli.number("--prob-correlated", 0.0);
    p.correlated_factor = cli.number("--correlated-factor", p.correlated_factor);
    p.generic_correlated_coefficient = cli.number("--generic-alpha", 0.0);
    const double weibull = cli.number("--weibull-shape", 0.0);
    if (weibull > 0.0) {
      p.failure_distribution = FailureDistribution::kWeibull;
      p.weibull_shape = weibull;
    }
    p.incremental_size_fraction = cli.number("--incremental", 1.0);
    p.full_checkpoint_period =
        static_cast<std::uint32_t>(cli.number("--full-period", 1.0));
    // Presence of any --predictor-* flag turns the predictor on; the values
    // themselves keep their Parameters defaults when unset.
    if (cli.has("--predictor-precision") || cli.has("--predictor-recall") ||
        cli.has("--predictor-lead-s")) {
      p.predictor_enabled = true;
      p.predictor_precision = cli.number("--predictor-precision", p.predictor_precision);
      p.predictor_recall = cli.number("--predictor-recall", p.predictor_recall);
      p.predictor_lead_time = cli.number("--predictor-lead-s", p.predictor_lead_time);
    }
    const std::string policy_name = cli.value("--proactive-policy");
    if (!policy_name.empty()) p.proactive_policy = parse_proactive_policy(policy_name);
    p.migration_time = cli.number("--migration-cost-s", p.migration_time);
    p.rescale_time = cli.number("--rescale-cost-s", p.rescale_time);
    p.node_repair_time =
        cli.number("--node-repair-min", p.node_repair_time / units::kMinute) * units::kMinute;
    p.failure_trace_path = cli.value("--failure-trace");

    p.validate();
    const double job_hours = cli.number("--job-hours", 0.0);
    if (job_hours > 0.0) {
      JobSpec job;
      job.work_hours = job_hours;
      job.replications = static_cast<std::size_t>(cli.number("--reps", 5.0));
      job.seed = static_cast<std::uint64_t>(cli.number("--seed", 42.0));
      const JobResult r = run_job(p, job);
      std::cout << "job: " << job_hours << " h useful work on " << p.num_processors
                << " processors\n"
                << "completed " << r.completed << "/" << r.replications << " replications\n"
                << "makespan: " << r.makespans.mean() << " h (95% CI +/- "
                << r.makespan_ci.half_width << ")\n"
                << "efficiency: " << r.mean_efficiency(job_hours) << "\n";
      return 0;
    }

    RunSpec spec = report::bench_spec(cli);
    const double transient_hours = cli.number("--transient-hours", spec.transient / 3600.0);
    spec.transient = transient_hours * 3600.0;
    const std::string engine_name = cli.value("--engine", "des");
    const EngineKind engine =
        engine_name == "san" ? EngineKind::kSan : EngineKind::kDes;
    if (engine_name != "san" && engine_name != "des") {
      std::cerr << "unknown --engine '" << engine_name << "' (des|san)\n";
      return 2;
    }
    spec.on_failure = parse_policy(cli);
    spec.watchdog.max_events = static_cast<std::uint64_t>(cli.number("--max-events", 0.0));
    spec.snapshot_every_events =
        static_cast<std::uint64_t>(cli.number("--snapshot-every-events", 0.0));
    spec.snapshot_dir = cli.value("--snapshot-dir");
    if (spec.snapshot_every_events > 0) {
      if (spec.snapshot_dir.empty()) {
        std::cerr << "error: --snapshot-every-events requires --snapshot-dir\n";
        return 2;
      }
      if (::mkdir(spec.snapshot_dir.c_str(), 0755) != 0 && errno != EEXIST) {
        std::cerr << "error: cannot create snapshot dir '" << spec.snapshot_dir << "': "
                  << std::strerror(errno) << "\n";
        return 1;
      }
    }
    spec.cancel = &g_interrupted;
    obs::ProgressReporter progress;
    if (cli.has("--progress")) spec.progress = &progress;
    obs::Metrics metrics(spec.exec.resolve());
    const std::string metrics_path = cli.value("--metrics-out");
    if (!metrics_path.empty()) spec.metrics = &metrics;

    if (!cli.value("--interference").empty()) {
      const int rc = run_interference_mode(p, spec, cli);
      if (rc == 0 && !metrics_path.empty()) {
        metrics.snapshot().write_json(metrics_path);
        std::cout << "wrote " << metrics_path << "\n";
      }
      return rc;
    }

    if (cli.has("--optimize")) {
      const int rc = run_optimize_mode(p, spec, cli);
      if (rc == 0 && !metrics_path.empty()) {
        metrics.snapshot().write_json(metrics_path);
        std::cout << "wrote " << metrics_path << "\n";
      }
      return rc;
    }

    if (!cli.value("--sweep").empty()) {
      const int rc = run_sweep_mode(p, spec, engine, cli);
      if (rc == 0 && !metrics_path.empty()) {
        metrics.snapshot().write_json(metrics_path);
        std::cout << "wrote " << metrics_path << "\n";
      }
      return rc;
    }

    if (p.proactive_enabled()) {
      const int rc = run_proactive_mode(p, spec, cli);
      if (rc == 0 && !metrics_path.empty()) {
        metrics.snapshot().write_json(metrics_path);
        std::cout << "wrote " << metrics_path << "\n";
      }
      const std::string trace_path = cli.value("--chrome-trace");
      if (rc == 0 && !trace_path.empty()) {
        trace::EventLog log(1 << 20);
        proactive::ProactiveModel model(p, sim::replication_seed(spec.seed, 0));
        model.set_event_log(&log);
        (void)model.run_replication(spec.transient, spec.horizon);
        obs::write_chrome_trace(trace_path, log);
        std::cout << "wrote " << trace_path << " ("
                  << log.total_recorded() << " events; open in chrome://tracing or "
                  << "https://ui.perfetto.dev)\n";
      }
      return rc;
    }

    std::cout << p.describe() << "\n\n";
    const RunResult r = run_model(p, spec, engine);
    std::cout << r.describe() << "\n";
    if (!metrics_path.empty()) {
      metrics.snapshot().write_json(metrics_path);
      std::cout << "wrote " << metrics_path << "\n";
    }
    const std::string trace_path = cli.value("--chrome-trace");
    if (!trace_path.empty()) {
      // A dedicated traced replication (the DES engine is the trace-capable
      // one): same parameters, replication 0's seed, bounded in-memory log.
      trace::EventLog log(1 << 20);
      DesModel model(p, sim::replication_seed(spec.seed, 0));
      model.set_event_log(&log);
      (void)model.run(spec.transient, spec.horizon);
      obs::write_chrome_trace(trace_path, log);
      std::cout << "wrote " << trace_path << " ("
                << log.total_recorded() << " events; open in chrome://tracing or "
                << "https://ui.perfetto.dev)\n";
    }
    return 0;
  } catch (const SimError& e) {
    if (e.code() == ErrorCode::kInterrupted) {
      std::cerr << e.what() << "\n";
      return 130;  // 128 + SIGINT, shell convention
    }
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
