// The run-knob table (src/core/run_table.h) drives the RunSpec knobs of
// ckptsim_cli, the benches (report::bench_spec) and the protocol's "spec"
// object.  These properties hold for every row, so a new row is covered the
// moment it is added: each surface that accepts it sets the same field from
// the same text, a knob given without the switch it needs is one error on
// every surface, and a result knob (and only a result knob) changes the
// journal fingerprint.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/journal.h"
#include "src/core/run_table.h"
#include "src/report/cli.h"
#include "src/svc/ledger.h"
#include "src/svc/protocol.h"
#include "src/svc/server.h"

namespace {

using ckptsim::KeyKind;
using ckptsim::RunField;
using ckptsim::RunSpec;

/// One valid sample text per row, different from its default.
std::string sample_text(const RunField& f) {
  const std::string fallback = f.get(f, RunSpec{});
  switch (f.kind) {
    case KeyKind::kCount: {
      const unsigned long long v = std::stoull(fallback);
      return std::to_string(v == 0 ? 3 : 2 * v);
    }
    case KeyKind::kNumber: {
      const double v = std::stod(fallback);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", v == 0.0 ? 0.25 : v / 2.0);
      return buf;
    }
    case KeyKind::kChoice: {
      const std::string all = f.choices;
      const std::string last = all.substr(all.rfind('|') + 1);
      return fallback == last ? all.substr(0, all.find('|')) : last;
    }
    default:
      return "snaps";
  }
}

/// `f` and its sample, plus the switch it needs set to a value that turns
/// the switch on: its `needs` value, or the switch row's own sample.
std::vector<std::pair<const RunField*, std::string>> with_switch(const RunField& f) {
  std::vector<std::pair<const RunField*, std::string>> knobs = {{&f, sample_text(f)}};
  if (f.needs != nullptr) {
    const std::string needs = f.needs;
    const std::size_t space = needs.find(' ');
    const RunField* sw = ckptsim::find_run_key(needs.substr(0, space),
                                               static_cast<ckptsim::RunSurface>(f.surfaces));
    EXPECT_NE(sw, nullptr) << f.key << " needs " << needs;
    if (sw != nullptr) {
      knobs.emplace_back(sw,
                         space == std::string::npos ? sample_text(*sw) : needs.substr(space + 1));
    }
  }
  return knobs;
}

/// Every knob field of `s`.
std::string knobs(const RunSpec& s) {
  std::string out;
  for (const RunField& f : ckptsim::run_fields()) {
    out += std::string(f.key) + "=" + f.get(f, s) + ";";
  }
  return out;
}

RunSpec from_flags(const std::vector<std::pair<const RunField*, std::string>>& set,
                   ckptsim::RunSurface surface) {
  std::vector<std::string> args;
  for (const auto& [field, text] : set) {
    args.insert(args.end(), {ckptsim::run_flag(*field), text});
  }
  std::vector<const char*> argv = {"prog"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  const ckptsim::report::Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(cli.flag_errors(ckptsim::report::run_flag_specs(surface)).empty());
  return ckptsim::report::run_spec(cli, surface);
}

std::string spec_line(const std::vector<std::pair<const RunField*, std::string>>& set) {
  std::string members;
  for (const auto& [field, text] : set) {
    const bool quoted = field->kind == KeyKind::kChoice || field->kind == KeyKind::kPath;
    members += std::string(members.empty() ? "" : ",") + "\"" + field->key + "\":" +
               (quoted ? "\"" + text + "\"" : text);
  }
  return R"({"op":"sweep","id":"t","axis":"interval","values":[30],"spec":{)" + members + "}}";
}

/// CKPTSIM_QUICK unset for the guard's lifetime: every surface then starts
/// from RunSpec{}.
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

TEST(RunTable, EverySurfaceSetsARowAlike) {
  const NoQuickEnv env;
  for (const RunField& field : ckptsim::run_fields()) {
    SCOPED_TRACE(field.key);
    const auto set = with_switch(field);
    std::vector<RunSpec> got;
    if ((field.surfaces & ckptsim::kCliKnob) != 0) {
      got.push_back(from_flags(set, ckptsim::kCliKnob));
    }
    if ((field.surfaces & ckptsim::kBenchKnob) != 0) {
      got.push_back(from_flags(set, ckptsim::kBenchKnob));
    }
    ckptsim::svc::Request req;
    std::string error;
    const bool parsed = ckptsim::svc::parse_request(spec_line(set), &req, &error);
    EXPECT_EQ(parsed, (field.surfaces & ckptsim::kSpecKnob) != 0) << error;
    if (parsed) got.push_back(req.spec);
    if ((field.surfaces & ckptsim::kSpecKnob) == 0) {
      EXPECT_NE(error.find(std::string("unknown spec key '") + field.key + "'"),
                std::string::npos)
          << error;
    }
    ASSERT_FALSE(got.empty());
    for (const RunSpec& spec : got) {
      EXPECT_EQ(knobs(spec), knobs(got.front()));
      EXPECT_EQ(field.get(field, spec), sample_text(field));
    }
    EXPECT_NE(knobs(got.front()), knobs(RunSpec{})) << "sample changed nothing";
    // A surface that does not accept the row does not know its flag.
    for (const auto surface : {ckptsim::kCliKnob, ckptsim::kBenchKnob}) {
      if ((field.surfaces & surface) != 0) continue;
      const char* argv[] = {"prog", ckptsim::run_flag(field), "1"};
      EXPECT_FALSE(
          ckptsim::report::Cli(3, argv).flag_errors(ckptsim::report::run_flag_specs(surface)).empty());
    }
  }
}

/// `args` through the CLI binary in an empty scratch directory: exit 1,
/// exactly "error: `message`", and nothing left behind.
void expect_cli_error(const std::vector<std::string>& args, const std::string& message) {
  const std::string dir = std::string(::testing::TempDir()) + "ckptsim_run_table_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string cmd = "cd '" + dir + "' && '" + CKPTSIM_CLI + "'";
  for (const std::string& a : args) cmd += " '" + a + "'";
  cmd += " 2>&1";
  std::string out;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  char buf[512];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) out.append(buf, n);
  const int status = ::pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1) << cmd << "\n" << out;
  EXPECT_EQ(out, "error: " + message + "\n") << cmd;
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << cmd;
  std::filesystem::remove_all(dir);
}

/// A campaign server with a cache and a ledger.  Every line given to
/// expect_error must fail to parse with exactly `message`, and be answered
/// with one error line before the cache or the ledger sees it.
class ProtocolCheck {
 public:
  ProtocolCheck() : server_(config()) {}
  ~ProtocolCheck() {
    EXPECT_EQ(server_.cache().size(), 0u);
    EXPECT_EQ(server_.metrics().service().snapshot().replications_run, 0u);
    server_.stop();
    EXPECT_TRUE(ckptsim::svc::CampaignLedger(ledger_).pending().empty());
    std::remove(cache_.c_str());
    std::remove(ledger_.c_str());
  }

  void expect_error(const std::string& line, const std::string& message) {
    ckptsim::svc::Request req;
    std::string error;
    EXPECT_FALSE(ckptsim::svc::parse_request(line, &req, &error)) << line;
    EXPECT_EQ(error, message);
    std::vector<std::string> out;
    std::mutex mu;
    server_.handle_line(line, [&](const std::string& l) {
      const std::lock_guard<std::mutex> lock(mu);
      out.push_back(l);
    });
    server_.drain();
    ASSERT_EQ(out.size(), 1u) << line;
    EXPECT_NE(out[0].find("\"error\""), std::string::npos) << out[0];
    // The message up to its first double quote, which JSON escapes.
    EXPECT_NE(out[0].find(message.substr(0, message.find('"'))), std::string::npos) << out[0];
  }

 private:
  ckptsim::svc::ServerConfig config() {
    const std::string stem = std::string(::testing::TempDir()) + "ckptsim_run_table_" +
                             std::to_string(::getpid());
    cache_ = stem + "_cache.jsonl";
    ledger_ = stem + "_ledger.jsonl";
    std::remove(cache_.c_str());
    std::remove(ledger_.c_str());
    ckptsim::svc::ServerConfig c;
    c.cache_path = cache_;
    c.ledger_path = ledger_;
    return c;
  }

  std::string cache_;
  std::string ledger_;
  ckptsim::svc::CampaignServer server_;
};

TEST(RunTable, AKnobWithoutItsSwitchIsOneErrorOnEverySurface) {
  ProtocolCheck protocol;
  std::size_t needing = 0;
  for (const RunField& field : ckptsim::run_fields()) {
    if (field.needs == nullptr) continue;
    SCOPED_TRACE(field.key);
    ++needing;
    const std::string text = sample_text(field);
    const std::string flag = ckptsim::run_flag(field);
    if ((field.surfaces & ckptsim::kCliKnob) != 0) {
      expect_cli_error({"--quick", "--reps", "2", flag, text}, field.cli_rule);
      // With its switch the CLI reads the knob.
      EXPECT_NO_THROW((void)from_flags(with_switch(field), ckptsim::kCliKnob));
    }
    if ((field.surfaces & ckptsim::kBenchKnob) != 0) {
      const char* argv[] = {"bench", flag.c_str(), text.c_str()};
      try {
        (void)ckptsim::report::bench_spec(ckptsim::report::Cli(3, argv));
        ADD_FAILURE() << "accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), field.cli_rule);
      }
    }
    if ((field.surfaces & ckptsim::kSpecKnob) != 0) {
      protocol.expect_error(spec_line({{&field, text}}), field.spec_rule);
      ckptsim::svc::Request req;
      std::string error;
      EXPECT_TRUE(ckptsim::svc::parse_request(spec_line(with_switch(field)), &req, &error))
          << error;
    }
  }
  EXPECT_EQ(needing, 5u);
}

TEST(RunTable, AParameterTheRunSetsItselfIsOneErrorOnEverySurface) {
  // How the CLI and the protocol start each run that sets a parameter.
  struct Run {
    ckptsim::Overrider by;
    std::vector<std::string> cli;
    const char* request;
  };
  const std::vector<std::string> optimize = {"--optimize", "--optimize-grid", "3",
                                             "--optimize-refine", "0"};
  const auto with = [&optimize](std::vector<std::string> more) {
    more.insert(more.begin(), optimize.begin(), optimize.end());
    return more;
  };
  const Run runs[] = {
      {ckptsim::kIntervalAxis, {"--sweep", "interval", "--sweep-values", "30"},
       R"("op":"sweep","id":"t","axis":"interval","values":[30])"},
      {ckptsim::kProcessorsAxis, {"--sweep", "processors", "--sweep-values", "8192"},
       R"("op":"sweep","id":"t","axis":"processors","values":[8192])"},
      {ckptsim::kIntervalSearch, optimize, R"("op":"optimize","id":"t","grid":3,"refine":0)"},
      {ckptsim::kProcessorList, with({"--optimize-processors", "8192"}),
       R"("op":"optimize","id":"t","grid":3,"refine":0,"processors":[8192])"},
      {ckptsim::kPolicyList, with({"--optimize-policies", "none"}),
       R"("op":"optimize","id":"t","grid":3,"refine":0,"policies":["none"])"},
  };
  ProtocolCheck protocol;
  for (const ckptsim::OverrideRule& rule : ckptsim::override_rules()) {
    SCOPED_TRACE(rule.key);
    const Run* run = nullptr;
    for (const Run& r : runs) run = r.by == rule.by ? &r : run;
    ASSERT_NE(run, nullptr);
    // Any value is overridden: the parameter's default, given explicitly.
    const ckptsim::ParameterField& field = *ckptsim::find_parameter_key(rule.key);
    std::string text;
    ckptsim::append_field_value(text, field, ckptsim::Parameters{});
    if (field.kind() == KeyKind::kChoice) {
      text = std::string(ckptsim::choice_name(field.choices, std::stoul(text)));
    } else if (field.kind() == KeyKind::kNumber) {
      text = "45";
    }
    const std::string flag = ckptsim::cli_flag(field);
    std::vector<std::string> args = {"--quick", "--reps", "2"};
    args.insert(args.end(), run->cli.begin(), run->cli.end());
    args.insert(args.end(), {flag, text});
    expect_cli_error(args, "'" + flag + "' is overridden by " + rule.cli_by +
                               ", which sets it at every point");
    const std::string json = field.kind() == KeyKind::kChoice ? '"' + text + '"' : text;
    protocol.expect_error(std::string("{") + run->request + R"(,"params":{")" + rule.key +
                              "\":" + json + "}}",
                          std::string("params key '") + rule.key + "' is overridden by " +
                              rule.spec_by + ", which sets it at every point");
  }
}

TEST(RunTable, ResultRowsAndOnlyThemChangeTheJournalFingerprint) {
  const auto fingerprint = [](const RunSpec& spec) {
    return ckptsim::journal_fingerprint("table", ckptsim::Parameters{}, spec,
                                        ckptsim::EngineKind::kDes, 1.0);
  };
  for (const RunField& field : ckptsim::run_fields()) {
    SCOPED_TRACE(field.key);
    // The switch is on in both, so that only the row's own value differs.
    RunSpec base;
    const auto set = with_switch(field);
    for (std::size_t i = 1; i < set.size(); ++i) {
      set[i].first->set(*set[i].first, set[i].second, "switch", &base);
    }
    RunSpec changed = base;
    field.set(field, set[0].second, "sample", &changed);
    EXPECT_NE(knobs(changed), knobs(base));
    EXPECT_EQ(fingerprint(changed) != fingerprint(base), field.result);
  }
}

TEST(RunTable, HelpListsEveryCliRow) {
  const std::string help = ckptsim::run_help();
  for (const RunField& field : ckptsim::run_fields()) {
    const bool listed = help.find(std::string("  ") + ckptsim::run_flag(field) + " ") !=
                        std::string::npos;
    EXPECT_EQ(listed, (field.surfaces & ckptsim::kCliKnob) != 0) << field.key;
  }
  EXPECT_NE(help.find("--reps N"), std::string::npos) << help;
  EXPECT_NE(help.find("[2000 h]"), std::string::npos) << help;
  EXPECT_NE(help.find("needs --on-failure retry"), std::string::npos) << help;
}

}  // namespace
