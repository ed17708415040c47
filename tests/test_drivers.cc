// Pinned outputs of every replication driver: run_model, sweep (with its
// journal), san::Study::run, proactive::run_proactive, multi-job
// platform::run_interference, and the snapshot files that run_model, sweep
// and the campaign server leave behind.
//
// Each case renders every field of the driver's result (doubles %.17g),
// plus the final progress line and any error text, reduces it to an FNV-1a
// digest and compares it with a constant captured from a verified build.
// Every case runs at exec.jobs 1 and 4 against the same constant, so the
// pins hold the seeds, the round schedule, the aggregation order and the
// failure accounting fixed for any thread count.  Re-pin only for an
// intentional model change, never for a driver refactor.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/fault.h"
#include "src/core/journal.h"
#include "src/core/result_json.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/parameters.h"
#include "src/obs/json.h"
#include "src/obs/progress.h"
#include "src/platform/interference.h"
#include "src/platform/job_mix.h"
#include "src/proactive/run.h"
#include "src/san/model.h"
#include "src/san/study.h"
#include "src/sim/rng.h"
#include "src/svc/server.h"

namespace {

using ckptsim::EngineKind;
using ckptsim::ErrorCode;
using ckptsim::FailurePolicy;
using ckptsim::Parameters;
using ckptsim::RunResult;
using ckptsim::RunSpec;
using ckptsim::SimError;
using ckptsim::SweepJournal;
using ckptsim::SweepSeries;
using ckptsim::sim::fnv1a64;
using ckptsim::units::kHour;
using ckptsim::units::kMinute;

constexpr std::size_t kJobCounts[] = {1, 4};

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name)
      : path(std::string(::testing::TempDir()) + "ckptsim_drivers_" + name + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const { return path + "/" + name; }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Every line of `path`, sorted: journal and response order follows
/// completion order, which varies with the job count.
std::string sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// Each file of `dir` as "name fnv(content)", sorted by name.
std::string directory_listing(const std::string& dir) {
  std::vector<std::string> entries;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %016" PRIx64,
                  fnv1a64(read_file(e.path().string())));
    entries.push_back(e.path().filename().string() + buf);
  }
  std::sort(entries.begin(), entries.end());
  std::string out;
  for (const std::string& entry : entries) out += entry + "\n";
  return out;
}

std::string render(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string render(const ckptsim::stats::Summary& s) {
  const auto st = s.state();
  return std::to_string(st.n) + "," + render(st.mean) + "," + render(st.m2) + "," +
         render(st.min) + "," + render(st.max);
}

std::string render(const ckptsim::stats::ConfidenceInterval& ci) {
  return render(ci.mean) + "," + render(ci.half_width) + "," + render(ci.level) + "," +
         std::to_string(ci.samples);
}

std::string render(const RunResult& r) {
  ckptsim::obs::JsonWriter w;
  ckptsim::write_run_result(w, r);
  return w.str();
}

std::string render(const ckptsim::FailureAccounting& f) {
  std::string out;
  for (const auto* list : {&f.skipped, &f.recovered}) {
    out += "[";
    for (const auto& e : *list) {
      out += std::to_string(e.replication) + "/" + std::to_string(e.attempts) + "/" +
             ckptsim::to_string(e.code) + "/" + e.message + ";";
    }
    out += "]";
  }
  return out;
}

std::string render_rounds(const std::vector<std::uint32_t>& rounds) {
  std::string out = "rounds";
  for (const auto r : rounds) out += " " + std::to_string(r);
  return out;
}

std::string render(const SweepSeries& s) {
  std::string out = s.label + "\n";
  for (const auto& p : s.points) {
    out += render(p.x) + " " + ckptsim::parameters_field_string(p.params) + " " +
           render(p.result) + "\n";
  }
  return out;
}

std::string render(const ckptsim::san::StudyResult& r) {
  std::vector<std::string> names;
  for (const auto& [name, measure] : r.rewards) names.push_back(name);
  std::sort(names.begin(), names.end());
  std::string out;
  for (const std::string& name : names) {
    const auto& m = r.reward(name);
    out += name + ":" + render(m.replicate_means) + "|" + render(m.interval) + "\n";
  }
  out += std::to_string(r.total_firings) + " " + std::to_string(r.replications) + " " +
         render(r.failures) + " " + render_rounds(r.rounds);
  return out;
}

std::string render(const ckptsim::proactive::ProactiveResult& r) {
  const auto& t = r.totals;
  std::string out = render(r.run) + "\n";
  for (const std::uint64_t v :
       {t.predictions_true, t.false_alarms, t.proactive_ckpts, t.actions_skipped, t.migrations,
        t.migrations_wasted, t.failures_absorbed, t.rescales, t.repairs}) {
    out += std::to_string(v) + ",";
  }
  out += "\n";
  for (const std::uint64_t v : r.failures_per_rep) out += std::to_string(v) + ",";
  return out;
}

std::string render(const ckptsim::platform::InterferenceResult& r) {
  std::string out = std::to_string(r.replications) + " " + render(r.pfs_utilization) + "\n";
  for (const auto& j : r.jobs) {
    out += j.name + ":" + render(j.useful_fraction) + "|" + render(j.fraction_replicates) +
           "|" + render(j.stretch_replicates) + "|" + std::to_string(j.commits) + "|" +
           std::to_string(j.failures) + "\n";
  }
  return out;
}

/// Progress heartbeat on a frozen clock: the final line carries the
/// driver's label, its planned total and the units it completed.
struct FrozenProgress {
  std::ostringstream out;
  ckptsim::obs::ProgressReporter reporter{[this] {
    ckptsim::obs::ProgressReporter::Options o;
    o.out = &out;
    o.clock = [] { return 0.0; };
    return o;
  }()};
  [[nodiscard]] std::string final_line() const {
    const std::string s = out.str();
    const std::size_t end = s.find_last_of('\n');
    if (end == std::string::npos) return "";
    const std::size_t begin = s.find_last_of('\n', end - 1);
    return s.substr(begin == std::string::npos ? 0 : begin + 1, end - (begin + 1));
  }
};

/// The text of the SimError `op` throws (code name included).
template <typename Op>
std::string error_text(const Op& op) {
  try {
    op();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "driver did not throw";
  return "";
}

void expect_pinned(const std::string& text, std::uint64_t pinned, std::size_t jobs) {
  const std::uint64_t got = fnv1a64(text);
  char hex[24];
  std::snprintf(hex, sizeof hex, "0x%016" PRIx64 "ULL", got);
  const std::string shown = text.size() <= 6000 ? text
                                                 : text.substr(0, 3000) + "\n...\n" +
                                                       text.substr(text.size() - 3000);
  EXPECT_EQ(got, pinned) << "jobs = " << jobs << ", digest " << hex << "\n" << shown;
}

// ----------------------------------------------------------------- run_model

Parameters small_machine() {
  Parameters p;
  p.num_processors = 4096;
  return p;
}

RunSpec small_spec(std::size_t jobs) {
  RunSpec spec;
  spec.transient = 5.0 * kHour;
  spec.horizon = 80.0 * kHour;
  spec.replications = 6;
  spec.seed = 1234;
  spec.exec.jobs = jobs;
  return spec;
}

void adaptive(RunSpec& spec) {
  spec.sequential.rel_precision = 0.004;
  spec.sequential.min_replications = 3;
  spec.sequential.max_replications = 10;
}

/// run_model under `spec` with a frozen progress reporter attached.
std::string run_model_text(RunSpec spec) {
  FrozenProgress progress;
  spec.progress = &progress.reporter;
  const RunResult r = ckptsim::run_model(small_machine(), spec, EngineKind::kDes);
  return render(r) + "\n" + progress.final_line();
}

TEST(Drivers, RunModelFixedIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    expect_pinned(run_model_text(small_spec(jobs)), 0xbd478a637f991c21ULL, jobs);
  }
}

TEST(Drivers, RunModelAdaptiveIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    RunSpec spec = small_spec(jobs);
    adaptive(spec);
    expect_pinned(run_model_text(spec), 0x2af5db7e29ed7208ULL, jobs);
  }
}

TEST(Drivers, RunModelSkipWithInjectedFaultIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    RunSpec spec = small_spec(jobs);
    spec.on_failure.mode = FailurePolicy::Mode::kSkip;
    spec.fault_injection = [](std::size_t rep, std::size_t) {
      if (rep == 2 || rep == 4) throw std::runtime_error("injected on " + std::to_string(rep));
    };
    expect_pinned(run_model_text(spec), 0x139160868315c091ULL, jobs);
  }
}

TEST(Drivers, RunModelRetryThatRecoversIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    RunSpec spec = small_spec(jobs);
    spec.on_failure.mode = FailurePolicy::Mode::kRetry;
    spec.on_failure.max_retries = 2;
    spec.fault_injection = [](std::size_t rep, std::size_t attempt) {
      if (rep == 1 && attempt == 0) throw std::runtime_error("transient on 1");
    };
    expect_pinned(run_model_text(spec), 0x00fa69ed2bb88dc5ULL, jobs);
  }
}

TEST(Drivers, RunModelErrorAndCancelTextIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    // One failing replication, so the surfaced index cannot depend on
    // which worker bails first.
    RunSpec spec = small_spec(jobs);
    spec.fault_injection = [](std::size_t rep, std::size_t) {
      if (rep == 3) throw std::runtime_error("injected on 3");
    };
    std::string text = error_text([&] { (void)ckptsim::run_model(small_machine(), spec); });
    spec.on_failure.mode = FailurePolicy::Mode::kRetry;
    text += "\n" + error_text([&] { (void)ckptsim::run_model(small_machine(), spec); });
    spec.fault_injection = nullptr;
    spec.on_failure = FailurePolicy{};
    const std::atomic<bool> cancelled{true};
    spec.cancel = &cancelled;
    text += "\n" + error_text([&] { (void)ckptsim::run_model(small_machine(), spec); });
    expect_pinned(text, 0xa0e286c39f1fd822ULL, jobs);
  }
}

// --------------------------------------------------------------------- sweep

Parameters apply_interval(Parameters p, double minutes) {
  p.checkpoint_interval = minutes * kMinute;
  return p;
}

const std::vector<double> kSweepXs = {30.0, 60.0, 120.0};

/// A journaled sweep: the series, the final progress line and the
/// journal's lines (sorted: fixed sweeps append in completion order).
std::string sweep_text(RunSpec spec, const std::string& name) {
  TempDir dir(name);
  FrozenProgress progress;
  spec.progress = &progress.reporter;
  SweepJournal journal(dir.file("journal.jsonl"));
  const SweepSeries series = ckptsim::sweep("drivers", small_machine(), kSweepXs,
                                            apply_interval, spec, EngineKind::kDes, &journal);
  const std::string text = render(series) + progress.final_line() + "\n";
  return text + sorted_lines(read_file(dir.file("journal.jsonl")));
}

TEST(Drivers, SweepFixedWithJournalIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    RunSpec spec = small_spec(jobs);
    spec.replications = 4;
    expect_pinned(sweep_text(spec, "sweep_fixed_" + std::to_string(jobs)), 0x56f1ad27e2b2e789ULL,
                  jobs);
  }
}

TEST(Drivers, SweepAdaptiveWithJournalIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    RunSpec spec = small_spec(jobs);
    adaptive(spec);
    spec.sequential.rel_precision = 0.03;  // points stop after 2, 3 and 4 rounds
    expect_pinned(sweep_text(spec, "sweep_adaptive_" + std::to_string(jobs)),
                  0xf11e53bb79e131b5ULL, jobs);
  }
}

TEST(Drivers, SweepErrorAndCancelTextIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    RunSpec spec = small_spec(jobs);
    spec.replications = 3;
    spec.fault_injection = [](std::size_t rep, std::size_t) {
      if (rep == 2) throw std::runtime_error("injected on 2");
    };
    // One point with one failing replication: nothing to race for.
    const auto run = [&spec] {
      (void)ckptsim::sweep("drivers", small_machine(), {60.0}, apply_interval, spec);
    };
    std::string text = error_text(run);
    spec.on_failure.mode = FailurePolicy::Mode::kRetry;
    text += "\n" + error_text(run);
    spec.fault_injection = nullptr;
    spec.on_failure = FailurePolicy{};
    const std::atomic<bool> cancelled{true};
    spec.cancel = &cancelled;
    text += "\n" + error_text(run);
    expect_pinned(text, 0x8c7fbcb59d99a243ULL, jobs);
  }
}

TEST(Drivers, SweepAdaptiveErrorTextIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    RunSpec spec = small_spec(jobs);
    adaptive(spec);
    spec.sequential.rel_precision = 1e-9;  // every point runs to its budget
    // Point 1 (a 1-minute interval) runs over the event budget in its first
    // round; point 0 (240 minutes) stays under it and fails only at the
    // injected replication 6, which its third round reaches.  The sweep
    // fails with the smallest failing point, whichever round failed first.
    spec.watchdog.max_events = 6500;
    spec.fault_injection = [](std::size_t rep, std::size_t) {
      if (rep == 6) throw std::runtime_error("injected on 6");
    };
    const std::string text = error_text([&] {
      (void)ckptsim::sweep("drivers", small_machine(), {240.0, 1.0}, apply_interval, spec);
    });
    expect_pinned(text, 0x93776fa5d2bfd6adULL, jobs);
  }
}

// ----------------------------------------------------------------- san study

/// Two-state on/off model (on -> off at rate 1, off -> on at rate 3) with a
/// rate reward and an impulse reward.
struct OnOffStudy {
  ckptsim::san::Model model;
  std::unique_ptr<ckptsim::san::Study> study;

  OnOffStudy() {
    using namespace ckptsim::san;
    const PlaceId on = model.add_place("on", 1);
    const PlaceId off = model.add_place("off", 0);
    ActivitySpec to_off;
    to_off.name = "to_off";
    to_off.latency = [](const Marking&, ckptsim::sim::Rng& r) { return r.exponential_rate(1.0); };
    to_off.input_arcs = {InputArc{on, 1}};
    to_off.output_arcs = {OutputArc{off, 1}};
    model.add_activity(std::move(to_off));
    ActivitySpec to_on;
    to_on.name = "to_on";
    to_on.latency = [](const Marking&, ckptsim::sim::Rng& r) { return r.exponential_rate(3.0); };
    to_on.input_arcs = {InputArc{off, 1}};
    to_on.output_arcs = {OutputArc{on, 1}};
    model.add_activity(std::move(to_on));
    study = std::make_unique<Study>(
        model,
        std::vector<RateRewardSpec>{
            RateRewardSpec{"on", [on](const Marking& mk) { return mk.has(on) ? 1.0 : 0.0; }}},
        std::vector<ImpulseRewardSpec>{ImpulseRewardSpec{
            "toggles", "to_off", [](const Marking&, double) { return 1.0; }}});
  }
};

RunSpec study_spec(std::size_t jobs) {
  RunSpec spec;
  spec.transient = 20.0;
  spec.horizon = 800.0;
  spec.replications = 5;
  spec.seed = 31;
  spec.exec.jobs = jobs;
  return spec;
}

std::string study_text(const OnOffStudy& s, RunSpec spec,
                       const std::string& precision_reward = {}) {
  FrozenProgress progress;
  spec.progress = &progress.reporter;
  const std::string text = render(s.study->run(spec, precision_reward)) + "\n";
  return text + progress.final_line();
}

TEST(Drivers, StudyFixedIsPinned) {
  const OnOffStudy s;
  for (const std::size_t jobs : kJobCounts) {
    expect_pinned(study_text(s, study_spec(jobs)), 0x03239c2ad113ec8eULL, jobs);
  }
}

TEST(Drivers, StudyAdaptiveIsPinned) {
  const OnOffStudy s;
  for (const std::size_t jobs : kJobCounts) {
    auto spec = study_spec(jobs);
    spec.sequential.rel_precision = 0.01;
    spec.sequential.min_replications = 3;
    spec.sequential.max_replications = 24;
    expect_pinned(study_text(s, spec, "toggles"), 0x9bb31e9e3502f4f9ULL, jobs);
  }
}

TEST(Drivers, StudyErrorAndCancelTextIsPinned) {
  const OnOffStudy s;
  for (const std::size_t jobs : kJobCounts) {
    auto spec = study_spec(jobs);
    spec.watchdog.max_events = 50;
    spec.on_failure.mode = FailurePolicy::Mode::kSkip;
    std::string text = render(s.study->run(spec));
    // Fail-fast on one replication: nothing to race for.
    spec.on_failure = FailurePolicy{};
    spec.replications = 1;
    text += "\n" + error_text([&] { (void)s.study->run(spec); });
    spec.watchdog.max_events = 0;
    spec.on_failure = FailurePolicy{};
    const std::atomic<bool> cancelled{true};
    spec.cancel = &cancelled;
    text += "\n" + error_text([&] { (void)s.study->run(spec); });
    expect_pinned(text, 0x211de1b183cc58e3ULL, jobs);
  }
}

// ------------------------------------------------------------- run_proactive

Parameters migrate_params() {
  Parameters p;
  p.predictor_enabled = true;
  p.predictor_precision = 0.8;
  p.predictor_recall = 0.7;
  p.predictor_lead_time = 5.0 * kMinute;
  p.proactive_policy = ckptsim::ProactivePolicy::kMigrate;
  return p;
}

RunSpec proactive_spec(std::size_t jobs) {
  RunSpec spec;
  spec.transient = 20.0 * kHour;
  spec.horizon = 300.0 * kHour;
  spec.replications = 4;
  spec.seed = 77;
  spec.exec.jobs = jobs;
  return spec;
}

std::string proactive_text(RunSpec spec) {
  FrozenProgress progress;
  spec.progress = &progress.reporter;
  const std::string text = render(ckptsim::proactive::run_proactive(migrate_params(), spec));
  return text + "\n" + progress.final_line();
}

TEST(Drivers, ProactiveMigrateFixedIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    expect_pinned(proactive_text(proactive_spec(jobs)), 0xfdb325c36a371517ULL, jobs);
  }
}

TEST(Drivers, ProactiveMigrateAdaptiveIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    RunSpec spec = proactive_spec(jobs);
    spec.sequential.rel_precision = 0.002;
    spec.sequential.min_replications = 3;
    spec.sequential.max_replications = 9;
    expect_pinned(proactive_text(spec), 0xa2d80c559f284e63ULL, jobs);
  }
}

// ---------------------------------------------------------- run_interference

ckptsim::platform::JobMix three_job_mix(ckptsim::platform::PfsPolicy policy) {
  ckptsim::platform::JobMix mix = ckptsim::platform::parse_job_mix(
      "big:procs=65536;mid:procs=16384,interval_min=20;small:procs=8192,interval_min=15",
      Parameters{});
  mix.pfs.policy = policy;
  return mix;
}

std::string interference_text(ckptsim::platform::PfsPolicy policy, std::size_t jobs) {
  RunSpec spec;
  spec.transient = 0.5 * kHour;
  spec.horizon = 24.0 * kHour;
  spec.replications = 3;
  spec.seed = 2026;
  spec.exec.jobs = jobs;
  FrozenProgress progress;
  spec.progress = &progress.reporter;
  const std::string text =
      render(ckptsim::platform::run_interference(three_job_mix(policy), spec));
  return text + progress.final_line();
}

TEST(Drivers, InterferenceFairShareIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    expect_pinned(interference_text(ckptsim::platform::PfsPolicy::kFairShare, jobs),
                  0xffd3e06554e18a84ULL, jobs);
  }
}

TEST(Drivers, InterferenceFcfsIsPinned) {
  for (const std::size_t jobs : kJobCounts) {
    expect_pinned(interference_text(ckptsim::platform::PfsPolicy::kFcfs, jobs),
                  0x117e8ce1f1c53c2fULL, jobs);
  }
}

TEST(Drivers, ProactiveAndInterferenceWatchdogKillsAreStructuredErrors) {
  // A watchdog kill surfaces as SimError(kEventBudgetExceeded) naming the
  // replication — the smallest failing index, so replication 0 at any job
  // count — never as the engine's raw exception.
  const auto expect_budget_error = [](const auto& run) {
    try {
      run();
      ADD_FAILURE() << "the watchdog did not fire";
    } catch (const SimError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kEventBudgetExceeded);
      EXPECT_NE(std::string(e.what()).find("replication 0 failed"), std::string::npos)
          << e.what();
    }
  };
  for (const std::size_t jobs : kJobCounts) {
    RunSpec spec = proactive_spec(jobs);
    spec.watchdog.max_events = 200;
    expect_budget_error([&] { (void)ckptsim::proactive::run_proactive(migrate_params(), spec); });
    expect_budget_error([&] {
      (void)ckptsim::platform::run_interference(
          three_job_mix(ckptsim::platform::PfsPolicy::kFairShare), spec);
    });
  }
}

// ------------------------------------------------------------------ snapshots
//
// A watchdog kill keeps the replication's last snapshot (it is the resume
// point), so a skip-mode run under a small budget leaves one file per
// replication: the names and bytes each driver writes.  The bytes include
// the container header, so a snapshot format-version bump moves these pins
// even when no payload byte changes.

RunSpec snapshot_spec(std::size_t jobs, const std::string& dir) {
  RunSpec spec = small_spec(jobs);
  spec.replications = 3;
  spec.on_failure.mode = FailurePolicy::Mode::kSkip;
  spec.watchdog.max_events = 2500;
  spec.snapshot_every_events = 1000;
  spec.snapshot_dir = dir;
  return spec;
}

TEST(Drivers, RunModelSnapshotFilesArePinned) {
  for (const std::size_t jobs : kJobCounts) {
    TempDir dir("snap_run_" + std::to_string(jobs));
    const std::string text =
        render(ckptsim::run_model(small_machine(), snapshot_spec(jobs, dir.path))) + "\n";
    expect_pinned(text + directory_listing(dir.path), 0x000e3a87505e457cULL, jobs);
  }
}

TEST(Drivers, SweepSnapshotFilesArePinned) {
  for (const std::size_t jobs : kJobCounts) {
    TempDir dir("snap_sweep_" + std::to_string(jobs));
    const std::string text = render(ckptsim::sweep("drivers", small_machine(), {30.0, 60.0},
                                                   apply_interval, snapshot_spec(jobs, dir.path)));
    expect_pinned(text + directory_listing(dir.path), 0xc6abf78d159f979aULL, jobs);
  }
}

/// Thread-safe response collector.
struct Collector {
  std::mutex mu;
  std::string lines;
  [[nodiscard]] ckptsim::svc::CampaignServer::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mu);
      lines += line + "\n";
    };
  }
};

TEST(Drivers, DaemonSnapshotFilesAndPointErrorsArePinned) {
  for (const std::size_t jobs : kJobCounts) {
    TempDir dir("snap_daemon_" + std::to_string(jobs));
    ckptsim::svc::ServerConfig config;
    config.workers = jobs;
    config.snapshot_every_events = 1000;
    config.snapshot_dir = dir.file("snapshots");
    ckptsim::svc::CampaignServer server(config);
    Collector out;
    // Skip: every replication is killed by the watchdog and keeps its
    // snapshot; the points finalize with empty results.
    server.handle_line(
        R"({"op":"sweep","id":"snap","axis":"interval","values":[30,60],)"
        R"("params":{"processors":4096},)"
        R"("spec":{"reps":3,"horizon_hours":80,"transient_hours":5,"seed":1234,)"
        R"("max_events":2500,"on_failure":"skip"}})",
        out.sink());
    server.drain();
    // Fail-fast: each point fails alone with its own error line.
    server.handle_line(
        R"({"op":"sweep","id":"fail","axis":"interval","values":[30,60],)"
        R"("params":{"processors":4096},)"
        R"("spec":{"reps":2,"horizon_hours":80,"transient_hours":5,"seed":1234,)"
        R"("max_events":300}})",
        out.sink());
    server.drain();
    server.stop();
    expect_pinned(sorted_lines(out.lines) + directory_listing(config.snapshot_dir),
                  0x4a5f918ab951a682ULL, jobs);
  }
}

}  // namespace
