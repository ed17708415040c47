// Pins what every RunSpec knob means on every surface that accepts it:
//  * the RunSpec that one sample value of each knob produces through
//    ckptsim_cli, report::bench_spec and the protocol's "spec" object;
//  * the text of each knob rule's error on each surface (a sub-knob without
//    its switch, a parameter a sweep axis or the optimizer sets itself, the
//    removed scheduler);
//  * the journal fingerprint of each result knob perturbed alone.
// The pins were captured before the knobs moved onto one table.  A changed
// pin means a spelling changed meaning, a rule changed its words, or
// journals and caches written earlier no longer resume: fix the code, never
// the pin.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/journal.h"
#include "src/model/parameters.h"
#include "src/obs/json_value.h"
#include "src/report/cli.h"
#include "src/svc/protocol.h"

namespace {

using ckptsim::FailurePolicy;
using ckptsim::Parameters;
using ckptsim::RunSpec;

/// Every knob field of `s`, one "name=value" each.
std::string knobs(const RunSpec& s) {
  std::ostringstream out;
  out.precision(17);
  out << "transient=" << s.transient << " horizon=" << s.horizon
      << " replications=" << s.replications << " seed=" << s.seed
      << " confidence=" << s.confidence_level << " jobs=" << s.exec.jobs
      << " rel_precision=" << s.sequential.rel_precision
      << " min_replications=" << s.sequential.min_replications
      << " max_replications=" << s.sequential.max_replications
      << " growth=" << s.sequential.growth
      << " on_failure=" << static_cast<int>(s.on_failure.mode)
      << " max_retries=" << s.on_failure.max_retries
      << " max_events=" << s.watchdog.max_events
      << " snapshot_every_events=" << s.snapshot_every_events
      << " snapshot_dir=" << s.snapshot_dir;
  return out.str();
}

/// CKPTSIM_QUICK unset for the guard's lifetime, so that the defaults
/// bench_spec starts from are the full-fidelity RunSpec.
struct NoQuickEnv {
  std::string saved;
  bool had = false;
  NoQuickEnv() {
    if (const char* v = std::getenv("CKPTSIM_QUICK")) {
      had = true;
      saved = v;
    }
    ::unsetenv("CKPTSIM_QUICK");
  }
  ~NoQuickEnv() {
    if (had) ::setenv("CKPTSIM_QUICK", saved.c_str(), 1);
  }
};

struct SpecPin {
  std::vector<std::string> args;  ///< the knob's sample, as the surface spells it
  void (*expect)(RunSpec&);       ///< what it does to the surface's defaults
};

/// The quick defaults, spelled out.
void quick(RunSpec& s) {
  s.transient = 50.0 * 3600.0;
  s.horizon = 400.0 * 3600.0;
  s.replications = 3;
}

// ------------------------------------------------------------ benches

TEST(RunKnobPins, EveryBenchFlagKeepsItsMeaning) {
  const NoQuickEnv env;
  const std::vector<SpecPin> pins = {
      {{}, [](RunSpec&) {}},
      {{"--quick"}, quick},
      {{"--seed", "7"}, [](RunSpec& s) { s.seed = 7; }},
      {{"--reps", "2"}, [](RunSpec& s) { s.replications = 2; }},
      {{"--horizon-hours", "3"}, [](RunSpec& s) { s.horizon = 3.0 * 3600.0; }},
      {{"--jobs", "3"}, [](RunSpec& s) { s.exec.jobs = 3; }},
      {{"--rel-precision", "0.5"}, [](RunSpec& s) { s.sequential.rel_precision = 0.5; }},
      {{"--rel-precision", "0.5", "--min-replications", "2"},
       [](RunSpec& s) {
         s.sequential.rel_precision = 0.5;
         s.sequential.min_replications = 2;
       }},
      {{"--rel-precision", "0.5", "--max-replications", "9"},
       [](RunSpec& s) {
         s.sequential.rel_precision = 0.5;
         s.sequential.max_replications = 9;
       }},
  };
  for (const SpecPin& pin : pins) {
    std::vector<const char*> argv = {"bench"};
    for (const std::string& a : pin.args) argv.push_back(a.c_str());
    const ckptsim::report::Cli cli(static_cast<int>(argv.size()), argv.data());
    RunSpec want;
    pin.expect(want);
    EXPECT_EQ(knobs(ckptsim::report::bench_spec(cli)), knobs(want))
        << (pin.args.empty() ? "(none)" : pin.args.front());
  }
}

// ----------------------------------------------------------- protocol

TEST(RunKnobPins, EverySpecKeyKeepsItsMeaning) {
  struct KeyPin {
    const char* spec;  ///< the "spec" object's members
    void (*expect)(RunSpec&);
  };
  const KeyPin pins[] = {
      {"", [](RunSpec&) {}},
      {R"("reps":2)", [](RunSpec& s) { s.replications = 2; }},
      {R"("seed":7)", [](RunSpec& s) { s.seed = 7; }},
      {R"("horizon_hours":3)", [](RunSpec& s) { s.horizon = 3.0 * 3600.0; }},
      {R"("transient_hours":0.75)", [](RunSpec& s) { s.transient = 0.75 * 3600.0; }},
      {R"("confidence":0.9)", [](RunSpec& s) { s.confidence_level = 0.9; }},
      {R"("rel_precision":0.5)", [](RunSpec& s) { s.sequential.rel_precision = 0.5; }},
      {R"("rel_precision":0.5,"min_replications":2)",
       [](RunSpec& s) {
         s.sequential.rel_precision = 0.5;
         s.sequential.min_replications = 2;
       }},
      {R"("rel_precision":0.5,"max_replications":9)",
       [](RunSpec& s) {
         s.sequential.rel_precision = 0.5;
         s.sequential.max_replications = 9;
       }},
      {R"("on_failure":"skip")",
       [](RunSpec& s) { s.on_failure.mode = FailurePolicy::Mode::kSkip; }},
      {R"("on_failure":"retry","max_retries":5)",
       [](RunSpec& s) {
         s.on_failure.mode = FailurePolicy::Mode::kRetry;
         s.on_failure.max_retries = 5;
       }},
      {R"("max_events":1000000000)", [](RunSpec& s) { s.watchdog.max_events = 1000000000; }},
  };
  for (const KeyPin& pin : pins) {
    const std::string line =
        std::string(R"({"op":"sweep","id":"pin","axis":"interval","values":[30],"spec":{)") +
        pin.spec + "}}";
    ckptsim::svc::Request req;
    std::string error;
    ASSERT_TRUE(ckptsim::svc::parse_request(line, &req, &error)) << line << ": " << error;
    RunSpec want;
    pin.expect(want);
    EXPECT_EQ(knobs(req.spec), knobs(want)) << pin.spec;
  }
}

// ---------------------------------------------------------------- CLI

/// Output and exit status of `binary args` run in `dir`, stdout and stderr
/// together (stdout dropped when `quiet_stdout`).
struct Run {
  std::string output;
  int status = -1;
};

Run run_in(const std::string& dir, const std::string& binary,
           const std::vector<std::string>& args, bool quiet_stdout) {
  std::string cmd = "cd '" + dir + "' && '" + binary + "'";
  for (const std::string& a : args) cmd += " '" + a + "'";
  cmd += quiet_stdout ? " 2>&1 >/dev/null" : " 2>&1";
  cmd += " < /dev/null";
  Run run;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[512];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) run.output.append(buf, n);
  const int raw = ::pclose(pipe);
  run.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return run;
}

/// A fresh, empty scratch directory, removed with the object.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& name)
      : path(std::string(::testing::TempDir()) + "ckptsim_knob_" + name + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  [[nodiscard]] bool empty() const { return std::filesystem::is_empty(path); }
};

std::string fp_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

/// The journal fingerprint that a one-point ckptsim_cli interval sweep (30
/// minutes) run in `dir` with `args` writes.
std::string cli_fingerprint(const ScratchDir& dir, const std::vector<std::string>& args) {
  std::vector<std::string> all = {"--sweep", "interval", "--sweep-values", "30",
                                  "--journal", "pin.jsonl"};
  all.insert(all.end(), args.begin(), args.end());
  const Run run = run_in(dir.path, CKPTSIM_CLI, all, true);
  EXPECT_EQ(run.status, 0) << run.output;
  std::ifstream in(dir.path + "/pin.jsonl");
  std::string fp;
  for (std::string line; std::getline(in, line);) {
    ckptsim::obs::JsonValue entry;
    if (!ckptsim::obs::parse_json(line, &entry)) continue;
    if (const ckptsim::obs::JsonValue* v = entry.find("fp")) fp = v->scalar;
  }
  std::filesystem::remove(dir.path + "/pin.jsonl");
  return fp;
}

/// The fingerprint that sweep point has under `spec`.
std::string sweep_fingerprint(const RunSpec& spec) {
  return fp_hex(ckptsim::journal_fingerprint(
      "sweep interval", ckptsim::svc::apply_axis("interval", Parameters{}, 30.0), spec,
      ckptsim::EngineKind::kDes, 30.0));
}

TEST(RunKnobPins, EveryCliFlagKeepsItsMeaning) {
  const ScratchDir dir("cli");
  // Each run names the three window knobs itself unless it pins one of
  // them, so that CKPTSIM_QUICK in the environment changes nothing.
  const std::vector<std::string> window = {"--reps", "1", "--horizon-hours", "2",
                                           "--transient-hours", "0.5"};
  const auto windowed = [](RunSpec& s) {
    s.replications = 1;
    s.horizon = 2.0 * 3600.0;
    s.transient = 0.5 * 3600.0;
  };
  struct CliPin {
    std::vector<std::string> args;
    bool own_window;  ///< `args` replace the window flags
    void (*expect)(RunSpec&);
  };
  const std::vector<CliPin> pins = {
      {{}, false, [](RunSpec&) {}},
      {{"--quick"}, true, quick},
      {{"--reps", "2", "--horizon-hours", "2", "--transient-hours", "0.5"}, true,
       [](RunSpec& s) {
         s.replications = 2;
         s.horizon = 2.0 * 3600.0;
         s.transient = 0.5 * 3600.0;
       }},
      {{"--reps", "1", "--horizon-hours", "3", "--transient-hours", "0.5"}, true,
       [](RunSpec& s) {
         s.replications = 1;
         s.horizon = 3.0 * 3600.0;
         s.transient = 0.5 * 3600.0;
       }},
      {{"--reps", "1", "--horizon-hours", "2", "--transient-hours", "0.75"}, true,
       [](RunSpec& s) {
         s.replications = 1;
         s.horizon = 2.0 * 3600.0;
         s.transient = 0.75 * 3600.0;
       }},
      {{"--seed", "7"}, false, [](RunSpec& s) { s.seed = 7; }},
      {{"--rel-precision", "0.5"}, false, [](RunSpec& s) { s.sequential.rel_precision = 0.5; }},
      {{"--rel-precision", "0.5", "--min-replications", "2"}, false,
       [](RunSpec& s) {
         s.sequential.rel_precision = 0.5;
         s.sequential.min_replications = 2;
       }},
      {{"--rel-precision", "0.5", "--max-replications", "9"}, false,
       [](RunSpec& s) {
         s.sequential.rel_precision = 0.5;
         s.sequential.max_replications = 9;
       }},
      {{"--on-failure", "skip"}, false,
       [](RunSpec& s) { s.on_failure.mode = FailurePolicy::Mode::kSkip; }},
      {{"--on-failure", "retry", "--max-retries", "5"}, false,
       [](RunSpec& s) {
         s.on_failure.mode = FailurePolicy::Mode::kRetry;
         s.on_failure.max_retries = 5;
       }},
      {{"--max-events", "1000000000"}, false,
       [](RunSpec& s) { s.watchdog.max_events = 1000000000; }},
  };
  for (const CliPin& pin : pins) {
    std::vector<std::string> args = pin.own_window ? std::vector<std::string>{} : window;
    args.insert(args.end(), pin.args.begin(), pin.args.end());
    RunSpec want;
    if (!pin.own_window) windowed(want);
    pin.expect(want);
    EXPECT_EQ(cli_fingerprint(dir, args), sweep_fingerprint(want))
        << (pin.args.empty() ? "(none)" : pin.args.front());
  }

  // The execution knobs leave the fingerprint alone and act where they
  // show: --jobs sizes the metrics' worker table, and the snapshot knobs
  // make their directory.
  RunSpec plain;
  windowed(plain);
  std::vector<std::string> jobs = window;
  jobs.insert(jobs.end(), {"--jobs", "3", "--metrics-out", "m.json"});
  EXPECT_EQ(cli_fingerprint(dir, jobs), sweep_fingerprint(plain));
  std::ifstream metrics(dir.path + "/m.json");
  const std::string json((std::istreambuf_iterator<char>(metrics)),
                         std::istreambuf_iterator<char>());
  std::size_t workers = 0;
  for (std::size_t at = 0; (at = json.find("\"worker\":", at)) != std::string::npos; ++at) {
    ++workers;
  }
  EXPECT_EQ(workers, 3u) << json;
  std::vector<std::string> snaps = window;
  snaps.insert(snaps.end(), {"--snapshot-every-events", "1000", "--snapshot-dir", "snaps"});
  EXPECT_EQ(cli_fingerprint(dir, snaps), sweep_fingerprint(plain));
  EXPECT_TRUE(std::filesystem::is_directory(dir.path + "/snaps"));
}

// --------------------------------------------------------- rule texts

struct RulePin {
  std::vector<std::string> args;
  const char* message;  ///< the whole error output
};

/// Each case fails before it runs anything: nonzero exit, exactly
/// `message` on stderr and nothing left in the scratch directory.
void expect_rules(const char* binary, const std::vector<RulePin>& pins) {
  for (const RulePin& pin : pins) {
    const ScratchDir dir("rule");
    const Run run = run_in(dir.path, binary, pin.args, false);
    EXPECT_NE(run.status, 0) << pin.message;
    EXPECT_EQ(run.output, std::string(pin.message) + "\n");
    EXPECT_TRUE(dir.empty()) << pin.message;
  }
}

TEST(RunKnobPins, CliRuleMessagesAreUnchanged) {
  const std::vector<std::string> optimize = {"--quick", "--reps", "2", "--optimize",
                                             "--optimize-grid", "3", "--optimize-refine", "0"};
  const auto with = [](std::vector<std::string> base, const std::vector<std::string>& more) {
    base.insert(base.end(), more.begin(), more.end());
    return base;
  };
  expect_rules(
      CKPTSIM_CLI,
      {
          {{"--quick", "--reps", "2", "--min-replications", "9"},
           "error: '--min-replications' needs '--rel-precision': without it the fixed --reps "
           "count runs"},
          {{"--quick", "--reps", "2", "--rel-precision", "0", "--max-replications", "12"},
           "error: '--max-replications' needs '--rel-precision': without it the fixed --reps "
           "count runs"},
          {{"--quick", "--reps", "2", "--max-retries", "7"},
           "error: '--max-retries' needs '--on-failure retry'"},
          {{"--quick", "--reps", "2", "--on-failure", "skip", "--max-retries", "7"},
           "error: '--max-retries' needs '--on-failure retry'"},
          {{"--quick", "--reps", "2", "--snapshot-dir", "never_made"},
           "error: '--snapshot-dir' needs '--snapshot-every-events N' (N > 0)"},
          {{"--quick", "--reps", "2", "--snapshot-every-events", "5"},
           "error: --snapshot-every-events requires --snapshot-dir"},
          {{"--quick", "--reps", "2", "--sweep", "interval", "--sweep-values", "30",
            "--interval-min", "45"},
           "error: '--interval-min' is overridden by '--sweep interval', which sets it at every "
           "point"},
          {{"--quick", "--reps", "2", "--sweep", "processors", "--sweep-values", "8192",
            "--processors", "65536"},
           "error: '--processors' is overridden by '--sweep processors', which sets it at every "
           "point"},
          {with(optimize, {"--interval-min", "45"}),
           "error: '--interval-min' is overridden by '--optimize', which sets it at every point"},
          {with(optimize, {"--optimize-processors", "8192", "--processors", "4096"}),
           "error: '--processors' is overridden by '--optimize-processors', which sets it at "
           "every point"},
          {with(optimize, {"--optimize-policies", "none", "--proactive-policy", "migrate",
                           "--predictor-recall", "0.7"}),
           "error: '--proactive-policy' is overridden by '--optimize-policies', which sets it "
           "at every point"},
          {{"--quick", "--reps", "2", "--scheduler", "calendar"},
           "error: '--scheduler' was removed: every engine now uses the binary-heap event "
           "queue"},
      });
}

TEST(RunKnobPins, DaemonRuleMessagesAreUnchanged) {
  expect_rules(CKPTSIM_DAEMON,
               {
                   {{"--once", "--snapshot-dir", "never_made"},
                    "error: '--snapshot-dir' needs '--snapshot-every-events N' (N > 0)"},
                   {{"--once", "--snapshot-every-events", "5"},
                    "ckptsimd: invalid-parameter: CampaignServer: snapshot_every_events needs "
                    "snapshot_dir"},
               });
}

TEST(RunKnobPins, BenchRuleMessagesAreUnchanged) {
  const NoQuickEnv env;
  const RulePin pins[] = {
      {{"--min-replications", "9"},
       "'--min-replications' needs '--rel-precision': without it the fixed --reps count runs"},
      {{"--rel-precision", "0", "--max-replications", "12"},
       "'--max-replications' needs '--rel-precision': without it the fixed --reps count runs"},
      {{"--scheduler", "calendar"},
       "'--scheduler' was removed: every engine now uses the binary-heap event queue"},
  };
  for (const RulePin& pin : pins) {
    std::vector<const char*> argv = {"bench"};
    for (const std::string& a : pin.args) argv.push_back(a.c_str());
    try {
      (void)ckptsim::report::bench_spec(
          ckptsim::report::Cli(static_cast<int>(argv.size()), argv.data()));
      ADD_FAILURE() << pin.message << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), pin.message);
    }
  }
}

TEST(RunKnobPins, ProtocolRuleMessagesAreUnchanged) {
  struct ProtocolPin {
    const char* line;
    const char* message;
  };
  const ProtocolPin pins[] = {
      {R"({"op":"sweep","id":"a","axis":"interval","values":[30],"spec":{"min_replications":9}})",
       "spec key 'min_replications' needs 'rel_precision': without it the fixed 'reps' count "
       "runs"},
      {R"({"op":"sweep","id":"a","axis":"interval","values":[30],)"
       R"("spec":{"rel_precision":0,"max_replications":12}})",
       "spec key 'max_replications' needs 'rel_precision': without it the fixed 'reps' count "
       "runs"},
      {R"({"op":"sweep","id":"a","axis":"interval","values":[30],"spec":{"max_retries":7}})",
       "spec key 'max_retries' needs \"on_failure\":\"retry\""},
      {R"({"op":"sweep","id":"a","axis":"interval","values":[30],)"
       R"("spec":{"on_failure":"skip","max_retries":7}})",
       "spec key 'max_retries' needs \"on_failure\":\"retry\""},
      {R"({"op":"optimize","id":"o","spec":{"max_retries":7}})",
       "spec key 'max_retries' needs \"on_failure\":\"retry\""},
      {R"({"op":"interference","id":"i","jobs":"a:procs=8192","spec":{"min_replications":9}})",
       "spec key 'min_replications' needs 'rel_precision': without it the fixed 'reps' count "
       "runs"},
      {R"({"op":"sweep","id":"a","axis":"interval","values":[30],"spec":{"scheduler":"heap"}})",
       "spec key 'scheduler' was removed: every engine now uses the binary-heap event queue"},
      {R"({"op":"sweep","id":"a","axis":"interval","values":[30],"params":{"interval_min":45}})",
       "params key 'interval_min' is overridden by axis \"interval\", which sets it at every "
       "point"},
      {R"({"op":"sweep","id":"a","axis":"processors","values":[8192],)"
       R"("params":{"processors":65536}})",
       "params key 'processors' is overridden by axis \"processors\", which sets it at every "
       "point"},
      {R"({"op":"optimize","id":"o","grid":3,"refine":0,"params":{"interval_min":45}})",
       "params key 'interval_min' is overridden by the interval search, which sets it at every "
       "point"},
      {R"({"op":"optimize","id":"o","grid":3,"refine":0,"processors":[8192],)"
       R"("params":{"processors":4096}})",
       "params key 'processors' is overridden by key 'processors', which sets it at every "
       "point"},
      {R"({"op":"optimize","id":"o","grid":3,"refine":0,"policies":["none"],)"
       R"("params":{"proactive_policy":"none"}})",
       "params key 'proactive_policy' is overridden by key 'policies', which sets it at every "
       "point"},
  };
  for (const ProtocolPin& pin : pins) {
    ckptsim::svc::Request req;
    std::string error;
    EXPECT_FALSE(ckptsim::svc::parse_request(pin.line, &req, &error)) << pin.line;
    EXPECT_EQ(error, pin.message);
  }
}

// -------------------------------------------------------- fingerprints

TEST(RunKnobPins, EveryResultKnobKeepsItsFingerprint) {
  struct FingerprintPin {
    const char* knob;
    void (*perturb)(RunSpec&);
    std::uint64_t expected;
  };
  const FingerprintPin pins[] = {
      {"defaults", [](RunSpec&) {}, 0x35cdcfa66f0d1aa5ULL},
      {"transient", [](RunSpec& s) { s.transient = 100.0 * 3600.0; }, 0x74fb44917e13cefdULL},
      {"horizon", [](RunSpec& s) { s.horizon = 1000.0 * 3600.0; }, 0x2aebd24111808eedULL},
      {"replications", [](RunSpec& s) { s.replications = 7; }, 0x78343ed77d28e61bULL},
      {"seed", [](RunSpec& s) { s.seed = 7; }, 0xcae3da7918e80fa0ULL},
      {"confidence_level", [](RunSpec& s) { s.confidence_level = 0.9; }, 0x25da8cb5bc30d043ULL},
      {"on_failure", [](RunSpec& s) { s.on_failure.mode = FailurePolicy::Mode::kSkip; },
       0xcf2cb9370e3eeb53ULL},
      {"max_retries", [](RunSpec& s) { s.on_failure.max_retries = 5; }, 0x51c7e5e8e3437eeULL},
      {"max_events", [](RunSpec& s) { s.watchdog.max_events = 1000000000; }, 0x831a13cb79f4ba20ULL},
      {"rel_precision", [](RunSpec& s) { s.sequential.rel_precision = 0.05; },
       0x2bf986e89672db7dULL},
      {"min_replications",
       [](RunSpec& s) {
         s.sequential.rel_precision = 0.05;
         s.sequential.min_replications = 9;
       },
       0xd8df85221d116ab9ULL},
      {"max_replications",
       [](RunSpec& s) {
         s.sequential.rel_precision = 0.05;
         s.sequential.max_replications = 100;
       },
       0xbc7b51eac787b10cULL},
      // Execution knobs never enter the fingerprint.
      {"jobs", [](RunSpec& s) { s.exec.jobs = 3; }, 0x35cdcfa66f0d1aa5ULL},
      {"snapshot_every_events", [](RunSpec& s) { s.snapshot_every_events = 1000; },
       0x35cdcfa66f0d1aa5ULL},
      {"snapshot_dir", [](RunSpec& s) { s.snapshot_dir = "snaps"; }, 0x35cdcfa66f0d1aa5ULL},
  };
  for (const FingerprintPin& pin : pins) {
    RunSpec spec;
    pin.perturb(spec);
    const std::uint64_t fp =
        ckptsim::journal_fingerprint("pin", Parameters{}, spec, ckptsim::EngineKind::kDes, 30.0);
    EXPECT_EQ(fp, pin.expected) << pin.knob << ": got 0x" << std::hex << fp;
  }
}

}  // namespace
