// ckptsim command-line simulator: the full model behind flags, for use
// without writing any C++.
//
//   $ ckptsim_cli --processors 131072 --mttf-years 1 --interval-min 30
//   $ ckptsim_cli --engine san --timeout 100 --reps 8
//   $ ckptsim_cli --job-hours 72            # makespan mode
//   $ ckptsim_cli --sweep interval --journal sweep.jsonl --csv sweep.csv
//   $ ckptsim_cli --help
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
#include "src/core/run_table.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/des_model.h"
#include "src/model/parameter_table.h"
#include "src/model/parameters.h"
#include "src/proactive/proactive_model.h"
#include "src/proactive/run.h"
#include "src/obs/chrome_trace.h"
#include "src/platform/interference.h"
#include "src/platform/job_mix.h"
#include "src/report/cli.h"
#include "src/report/csv.h"
#include "src/report/table.h"
#include "src/sim/rng.h"
#include "src/svc/protocol.h"
#include "src/trace/event_log.h"

namespace {

void print_help() {
  std::cout <<
      R"(ckptsim_cli — coordinated-checkpointing supercomputer simulator (DSN'05 model)

One mode runs per invocation, the first that applies: job (--job-hours),
interference, optimize, sweep, proactive (proactive flags), plain.  A flag
the selected mode does not read is an error.

Machine (defaults = the paper's Table 3):
)" << ckptsim::parameter_help(false)
            << R"(  --no-failures           turn off every failure process
  Parameter flags (here and under "Proactive") are also the daemon's params
  keys and --interference job keys: --interval-min 15 is interval_min=15,
  --no-io-failures is io_failures=false, --sync-write is background_fs_write.

Simulation:
  --engine des|san        implementation                [des]
  --job-hours W           job-completion mode: makespan of W useful hours;
                          it reads --reps [5] and --seed [42] only
  --quick                 scaled-down run: 3 replications, 400 h horizon,
                          50 h warm-up (also env CKPTSIM_QUICK=1)

Run knobs (every mode but job; defaults without --quick).  The daemon's
"spec" object takes these knobs but --jobs and the snapshot pair, plus
"confidence", as keys: --max-events N is "max_events": N.
)" << ckptsim::run_help()
            << R"(  Results are identical for any --jobs (0: CKPTSIM_JOBS, then hardware).
  --rel-precision R adds replications in deterministic rounds until the
  useful-work fraction's relative 95%-CI half-width is <= R.  --on-failure
  retry re-runs a failed replication with a derived seed; skip drops it.
  Re-running a snapshotted command resumes each interrupted replication,
  bit-identical to an uninterrupted run; a stale snapshot is rejected.
  SIGINT (^C) cancels cooperatively: in-flight work finishes, completed
  sweep points are journaled, partial artifacts are flushed atomically.

Shared-platform interference (K jobs contending for one PFS):
  --interference MIX      job-mix spec: ';'-separated jobs, each
                          "name:key=value,..." (parameter keys, plus procs
                          and mttf_yr); unset keys inherit the flags above.
                          2+ jobs reject fields the engine does not model.
                          Example: "big:procs=65536;small:procs=8192"
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

Proactive fault tolerance and failure traces (DES engine):
)" << ckptsim::parameter_help(true)
            << R"(  Any --predictor-* flag enables the predictor; true failures stay
  bit-identical for any predictor (CRN).  A failure trace is JSONL
  {"node":..,"time":..} or CSV node,seconds, replayed up to the horizon.

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
  The search sets the interval, so --interval-min is an error here, and so
  are --processors and --proactive-policy beside the list that replaces them.
  --journal FILE / --resume     reuse the sweep journal: a killed search
                          resumed recomputes only unfinished candidates
  --csv FILE              write every evaluated candidate

Sweep (crash-safe parameter studies):
  --sweep AXIS            interval (minutes) | processors; the axis's own
                          flag (--interval-min, --processors) is an error
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

// One run mode per invocation, picked by select_mode; each flag below names
// the modes that read it.
enum Mode : unsigned {
  kPlain = 1u << 0,         // run_model
  kProactive = 1u << 1,     // run_proactive: a plain run with proactive parameters
  kSweep = 1u << 2,         // --sweep
  kOptimize = 1u << 3,      // --optimize
  kInterference = 1u << 4,  // --interference
  kJob = 1u << 5,           // --job-hours
};
constexpr unsigned kRunSpecModes = kPlain | kProactive | kSweep | kOptimize | kInterference;
constexpr unsigned kAllModes = kRunSpecModes | kJob;

const char* mode_name(unsigned mode) {
  switch (mode) {
    case kPlain: return "plain";
    case kProactive: return "proactive";
    case kSweep: return "sweep";
    case kOptimize: return "optimize";
    case kInterference: return "interference";
    default: return "job";
  }
}

struct ModeFlag {
  ckptsim::report::FlagSpec spec;
  unsigned modes;  ///< the modes that read the flag
};

// Every flag besides parameter_flag_specs() (which every mode reads) and
// the run knobs (mode_flags).  Anything else is rejected up front with a
// "did you mean" hint, and so is a flag the selected mode does not read: a
// typo'd or misplaced flag must not silently run the simulation with the
// default it masked.
constexpr ModeFlag kFlags[] = {
    {{"--optimize", false}, kOptimize},
    {{"--optimize-lo-min", true}, kOptimize},
    {{"--optimize-hi-min", true}, kOptimize},
    {{"--optimize-grid", true}, kOptimize},
    {{"--optimize-refine", true}, kOptimize},
    {{"--optimize-processors", true}, kOptimize},
    {{"--optimize-policies", true}, kOptimize},
    {{"--engine", true}, kPlain | kSweep},
    {{"--job-hours", true}, kJob},
    {{"--interference", true}, kInterference},
    {{"--pfs-policy", true}, kInterference},
    {{"--pfs-bandwidth-mbs", true}, kInterference},
    {{"--sweep", true}, kSweep},
    {{"--sweep-values", true}, kSweep},
    {{"--csv", true}, kProactive | kSweep | kOptimize | kInterference},
    {{"--journal", true}, kSweep | kOptimize},
    {{"--resume", false}, kSweep | kOptimize},
    {{"--progress", false}, kRunSpecModes},
    {{"--metrics-out", true}, kRunSpecModes},
    {{"--chrome-trace", true}, kPlain | kProactive},
    {{"--help", false}, kAllModes},
    {{"-h", false}, kAllModes},
};

/// kFlags, then the run knobs' flags: job mode reads only the replication
/// count and the seed, and every mode names the removed --scheduler.
std::vector<ModeFlag> mode_flags() {
  std::vector<ModeFlag> flags(std::begin(kFlags), std::end(kFlags));
  for (const ckptsim::report::FlagSpec& spec : ckptsim::report::run_flag_specs(ckptsim::kCliKnob)) {
    const std::string_view name = spec.name;
    const bool job = name == "--reps" || name == "--seed" || name == "--scheduler";
    flags.push_back({spec, job ? kAllModes : kRunSpecModes});
  }
  return flags;
}

unsigned select_mode(const ckptsim::report::Cli& cli, const ckptsim::Parameters& p) {
  if (cli.given("--job-hours")) return kJob;
  if (cli.given("--interference")) return kInterference;
  if (cli.given("--optimize")) return kOptimize;
  if (cli.given("--sweep")) return kSweep;
  return p.proactive_enabled() ? kProactive : kPlain;
}

/// Throws std::invalid_argument when a flag `mode` does not read is given.
void reject_unread_flags(const ckptsim::report::Cli& cli, const std::vector<ModeFlag>& flags,
                         unsigned mode) {
  for (const ModeFlag& flag : flags) {
    if ((flag.modes & mode) != 0 || !cli.given(flag.spec.name)) continue;
    std::string readers;
    for (unsigned m = kPlain; m <= kJob; m <<= 1) {
      if ((flag.modes & m) != 0) readers += std::string(readers.empty() ? "" : ", ") + mode_name(m);
    }
    throw std::invalid_argument("'" + std::string(flag.spec.name) + "' is not read in " +
                                mode_name(mode) + " mode (only in: " + readers + ")");
  }
}

/// The parameters `mode` sets itself at every point it runs (Overrider
/// bits): a sweep's axis field, and the optimizer's interval plus the
/// processor count and policy when it is given candidates for them
/// (without candidates, --processors and --proactive-policy are the
/// optimizer's one candidate each).
unsigned overriders(const ckptsim::report::Cli& cli, unsigned mode) {
  using namespace ckptsim;
  if (mode == kSweep) {
    const std::string axis = cli.value("--sweep");
    return axis == "interval" ? kIntervalAxis : axis == "processors" ? kProcessorsAxis : 0u;
  }
  if (mode != kOptimize) return 0;
  return kIntervalSearch | (cli.given("--optimize-processors") ? kProcessorList : 0u) |
         (cli.given("--optimize-policies") ? kPolicyList : 0u);
}

/// The comma-separated items of `flag`'s value; empty items are skipped.
std::vector<std::string> list_items(const std::string& csv_list, const char* flag) {
  std::vector<std::string> items;
  std::stringstream ss(csv_list);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) items.push_back(item);
  }
  if (items.empty()) throw std::invalid_argument(std::string(flag) + ": no values given");
  return items;
}

int run_interference_mode(const ckptsim::Parameters& base, const ckptsim::RunSpec& spec,
                          ckptsim::EngineKind, const ckptsim::report::Cli& cli) {
  using namespace ckptsim;
  platform::JobMix mix = platform::parse_job_mix(cli.value("--interference"), base);
  mix.pfs.policy = static_cast<platform::PfsPolicy>(
      parse_choice(cli.value("--pfs-policy", "fair"), platform::kPfsPolicies, "'--pfs-policy'"));
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
                           "replications"});
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

int run_sweep_mode(const ckptsim::Parameters& base, const ckptsim::RunSpec& spec,
                   ckptsim::EngineKind engine, const ckptsim::report::Cli& cli) {
  using namespace ckptsim;
  const std::string axis = cli.value("--sweep");
  const bool interval = parse_choice(axis, svc::kSweepAxes, "'--sweep'") == 0;
  const std::string x_name = interval ? "interval_min" : "processors";
  std::vector<double> xs =
      interval ? figure4_interval_axis_minutes() : figure4_processor_axis();
  const std::string values = cli.value("--sweep-values");
  if (!values.empty()) {
    xs.clear();
    for (const std::string& item : list_items(values, "--sweep-values")) {
      xs.push_back(interval ? parse_number(item, "'--sweep-values'")
                            : static_cast<double>(parse_count(item, "'--sweep-values'")));
    }
  }

  std::optional<SweepJournal> journal;
  if (!report::open_journal(cli, "point", &journal)) return 2;

  const SweepSeries series = sweep(
      "sweep " + axis, base, xs,
      [&axis](Parameters pp, double x) { return svc::apply_axis(axis, std::move(pp), x); }, spec,
      engine, journal.has_value() ? &*journal : nullptr);

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
                           "replications", "skipped", "recovered"});
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
                       ckptsim::EngineKind, const ckptsim::report::Cli& cli) {
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
                           "migrations_wasted", "failures_absorbed", "rescales", "repairs"});
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

int run_optimize_mode(const ckptsim::Parameters& base, const ckptsim::RunSpec& spec,
                      ckptsim::EngineKind, const ckptsim::report::Cli& cli) {
  using namespace ckptsim;
  OptimizeSpec opt;
  opt.interval_lo = cli.number("--optimize-lo-min", opt.interval_lo / units::kMinute) *
                    units::kMinute;
  opt.interval_hi = cli.number("--optimize-hi-min", opt.interval_hi / units::kMinute) *
                    units::kMinute;
  opt.grid = cli.count("--optimize-grid", opt.grid);
  opt.refine_iters = cli.count("--optimize-refine", opt.refine_iters);
  const std::string procs = cli.value("--optimize-processors");
  if (!procs.empty()) {
    for (const std::string& item : list_items(procs, "--optimize-processors")) {
      const std::uint64_t n = parse_count(item, "'--optimize-processors'");
      if (n == 0) throw std::invalid_argument("--optimize-processors: values must be positive");
      opt.processor_candidates.push_back(n);
    }
  }
  const std::string policies = cli.value("--optimize-policies");
  if (!policies.empty()) {
    for (const std::string& item : list_items(policies, "--optimize-policies")) {
      opt.policies.push_back(parse_proactive_policy(item));
    }
  }

  std::optional<SweepJournal> journal;
  if (!report::open_journal(cli, "candidate", &journal)) return 2;

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
                           "useful_fraction", "refined"});
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

int run_plain_mode(const ckptsim::Parameters& p, const ckptsim::RunSpec& spec,
                   ckptsim::EngineKind engine, const ckptsim::report::Cli&) {
  std::cout << p.describe() << "\n\n";
  std::cout << ckptsim::run_model(p, spec, engine).describe() << "\n";
  return 0;
}

using RunMode = int (*)(const ckptsim::Parameters&, const ckptsim::RunSpec&,
                        ckptsim::EngineKind, const ckptsim::report::Cli&);

// One extra traced replication of a single run, on the model that run used
// (the DES engine is the trace-capable one): same parameters, replication
// 0's seed, bounded in-memory log.
void write_traced_replication(const ckptsim::Parameters& p, const ckptsim::RunSpec& spec,
                              const std::string& path) {
  using namespace ckptsim;
  trace::EventLog log(1 << 20);
  const std::uint64_t seed = sim::replication_seed(spec.seed, 0);
  if (p.proactive_enabled()) {
    proactive::ProactiveModel model(p, seed);
    model.set_event_log(&log);
    (void)model.run_replication(spec.transient, spec.horizon);
  } else {
    DesModel model(p, seed);
    model.set_event_log(&log);
    (void)model.run(spec.transient, spec.horizon);
  }
  obs::write_chrome_trace(path, log);
  std::cout << "wrote " << path << " (" << log.total_recorded()
            << " events; open in chrome://tracing or https://ui.perfetto.dev)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);
  const std::vector<ModeFlag> flags = mode_flags();
  std::vector<report::FlagSpec> known = report::parameter_flag_specs();
  for (const ModeFlag& flag : flags) known.push_back(flag.spec);
  if (const int rc = cli.check_flags(known); rc != 0) return rc;
  if (cli.given("--help") || cli.given("-h")) {
    print_help();
    return 0;
  }

  Parameters p;
  try {
    report::apply_parameter_flags(cli, &p);
    p.validate();
    RunSpec spec = report::run_spec(cli, kCliKnob);  // first: it names the removed --scheduler
    const unsigned mode = select_mode(cli, p);
    reject_unread_flags(cli, flags, mode);
    reject_overridden_parameters(overriders(cli, mode), kCliKnob, [&cli](const ParameterField& f) {
      return cli.given(cli_flag(f));
    });
    if (mode == kJob) {
      const double job_hours = cli.number("--job-hours", 0.0);
      JobSpec job;
      job.work_hours = job_hours;
      job.replications = cli.count("--reps", 5);
      job.seed = cli.count("--seed", 42);
      const JobResult r = run_job(p, job);
      std::cout << "job: " << job_hours << " h useful work on " << p.num_processors
                << " processors\n"
                << "completed " << r.completed << "/" << r.replications << " replications\n"
                << "makespan: " << r.makespans.mean() << " h (95% CI +/- "
                << r.makespan_ci.half_width << ")\n"
                << "efficiency: " << r.mean_efficiency(job_hours) << "\n";
      return 0;
    }

    const auto engine =
        static_cast<EngineKind>(parse_choice(cli.value("--engine", "des"), kEngines, "'--engine'"));
    // run_spec's rules give every snapshot period its directory.
    if (spec.snapshot_every_events > 0 && ::mkdir(spec.snapshot_dir.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      std::cerr << "error: cannot create snapshot dir '" << spec.snapshot_dir << "': "
                << std::strerror(errno) << "\n";
      return 1;
    }
    const report::RunObservers observers(cli, &spec);  // SIGINT, --progress, --metrics-out

    RunMode run = run_plain_mode;
    switch (mode) {
      case kProactive: run = run_proactive_mode; break;
      case kSweep: run = run_sweep_mode; break;
      case kOptimize: run = run_optimize_mode; break;
      case kInterference: run = run_interference_mode; break;
      default: break;
    }
    if (const int rc = run(p, spec, engine, cli); rc != 0) return rc;
    observers.write_metrics();
    const std::string trace_path = cli.value("--chrome-trace");
    if (!trace_path.empty()) write_traced_replication(p, spec, trace_path);
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
