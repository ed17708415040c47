// The parameter table (src/model/parameter_table.h) drives the fingerprint,
// the CLI flags, the service protocol's params keys and job-mix keys.
// These properties hold for every row, so a new row is covered the moment
// it is added: perturbing it changes the journal fingerprint, and setting
// it through any of the three surfaces yields the same Parameters.  The
// count and number conversions every surface shares are checked here too.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/journal.h"
#include "src/model/parameter_table.h"
#include "src/platform/job_mix.h"
#include "src/report/cli.h"
#include "src/svc/protocol.h"

namespace {

using ckptsim::FieldGroup;
using ckptsim::KeyKind;
using ckptsim::ParameterField;
using ckptsim::Parameters;
using ckptsim::parse_count;
using ckptsim::parse_number;

/// A failure-trace file that exists for the test's lifetime.
struct TraceFile {
  std::string path;
  explicit TraceFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + "ckptsim_table_" + name + "_" +
             std::to_string(::getpid()) + ".csv") {
    std::ofstream(path) << "node,time\n1,100\n";
  }
  ~TraceFile() { std::remove(path.c_str()); }
};

/// `field` moved off its current value: flags flip, enums step to a
/// neighbouring value, numbers grow by one and paths gain a suffix.
void perturb(const ParameterField& field, Parameters* p) {
  std::visit(
      [&](auto member) {
        auto& v = p->*member;
        using T = std::remove_reference_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>) {
          v = !v;
        } else if constexpr (std::is_enum_v<T>) {
          v = static_cast<T>(static_cast<int>(v) ^ 1);
        } else if constexpr (std::is_same_v<T, std::string>) {
          v += "2";
        } else {
          v = static_cast<T>(v + 1);
        }
      },
      field.member);
}

std::uint64_t fingerprint(const Parameters& p) {
  return ckptsim::journal_fingerprint("table", p, ckptsim::RunSpec{}, ckptsim::EngineKind::kDes,
                                      1.0);
}

TEST(ParameterTable, CoversEveryFieldWithUniqueSpellings) {
  const auto fields = ckptsim::parameter_fields();
  EXPECT_EQ(fields.size(), 45u);
  std::set<std::string> names;
  std::set<std::string> keys;
  std::set<std::string> flags;
  for (const ParameterField& f : fields) {
    EXPECT_TRUE(names.insert(f.name).second) << f.name;
    if (f.key == nullptr) continue;
    EXPECT_TRUE(keys.insert(f.key).second) << f.key;
    EXPECT_TRUE(flags.insert(ckptsim::cli_flag(f)).second) << ckptsim::cli_flag(f);
    EXPECT_EQ(ckptsim::find_parameter_key(f.key), &f);
    if (f.mix_alias != nullptr) {
      EXPECT_EQ(ckptsim::find_parameter_key(f.mix_alias), nullptr) << f.mix_alias;
      EXPECT_EQ(ckptsim::find_parameter_key(f.mix_alias, true), &f) << f.mix_alias;
    }
  }
  EXPECT_EQ(keys.size(), 31u);
  // Choice names index their enum: proactive_policy's must match to_string.
  const ParameterField* policy = ckptsim::find_parameter_key("proactive_policy");
  ASSERT_NE(policy, nullptr);
  for (const auto value : {ckptsim::ProactivePolicy::kNone, ckptsim::ProactivePolicy::kMigrate,
                           ckptsim::ProactivePolicy::kMalleable,
                           ckptsim::ProactivePolicy::kProactiveCheckpoint}) {
    Parameters p;
    ckptsim::set_parameter(*policy, ckptsim::to_string(value), "policy", &p);
    EXPECT_EQ(p.proactive_policy, value);
  }
}

TEST(ParameterTable, PerturbingAnyRowChangesTheJournalFingerprint) {
  // The trace row's base and perturbed paths must both load: the journal
  // fingerprint hashes the trace's contents.
  const TraceFile trace("perturb");
  std::ofstream(trace.path + "2") << "node,time\n1,100\n";
  for (const ParameterField& field : ckptsim::parameter_fields()) {
    Parameters base;
    if (field.group == FieldGroup::kProactive) base.predictor_enabled = true;
    if (field.group == FieldGroup::kTrace) base.failure_trace_path = trace.path;
    Parameters changed = base;
    perturb(field, &changed);
    EXPECT_NE(fingerprint(base), fingerprint(changed)) << field.name;
  }
  std::remove((trace.path + "2").c_str());
}

/// One valid sample value per settable row, different from its default.
std::string sample_text(const ParameterField& f, const std::string& trace) {
  const Parameters defaults;
  std::string fallback;
  ckptsim::append_field_value(fallback, f, defaults);
  switch (f.kind()) {
    case KeyKind::kCount:
      return std::to_string(2 * std::stoull(fallback));
    case KeyKind::kNumber: {
      const double v = defaults.*std::get<double Parameters::*>(f.member) / f.scale;
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v == 0.0 ? 0.25 : v / 2.0);
      return buf;
    }
    case KeyKind::kFlag:
      return "false";
    case KeyKind::kChoice: {
      std::vector<std::string> names;
      const std::string all = f.choices;
      for (std::size_t pos = 0; pos <= all.size();) {
        const std::size_t end = std::min(all.find('|', pos), all.size());
        names.push_back(all.substr(pos, end - pos));
        pos = end + 1;
      }
      return std::stoul(fallback) + 1 == names.size() ? names.front() : names.back();
    }
    case KeyKind::kPath:
      return trace;
  }
  return "";
}

/// The field string with both optional groups switched on, so the values
/// of every field show.
std::string visible(Parameters p) {
  p.predictor_enabled = true;
  if (p.failure_trace_path.empty()) p.failure_trace_path = "visible.csv";
  return ckptsim::parameters_field_string(p);
}

TEST(ParameterTable, EverySurfaceSetsAKeyedRowAlike) {
  const TraceFile trace("surfaces");
  for (const ParameterField& field : ckptsim::parameter_fields()) {
    if (field.key == nullptr) continue;
    SCOPED_TRACE(field.key);
    const std::string text = sample_text(field, trace.path);

    // CLI: --flag value (a kFlag row's flag takes no value).
    const std::string flag = ckptsim::cli_flag(field);
    std::vector<const char*> argv = {"prog", flag.c_str()};
    if (field.kind() != KeyKind::kFlag) argv.push_back(text.c_str());
    const ckptsim::report::Cli cli(static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(cli.flag_errors(ckptsim::report::parameter_flag_specs()).empty());
    Parameters from_cli;
    ckptsim::report::apply_parameter_flags(cli, &from_cli);

    // Protocol: "params": {"key": value}, through the optimizer, or for the
    // interval its search sets, through a processors sweep.
    std::string json = text;
    if (field.kind() == KeyKind::kChoice || field.kind() == KeyKind::kPath) json = '"' + text + '"';
    const std::string op = std::string(field.key) == "interval_min"
                               ? R"("op":"sweep","axis":"processors","values":[8192])"
                               : R"("op":"optimize")";
    const std::string line =
        "{" + op + R"(,"id":"t","params":{")" + field.key + "\":" + json + "}}";
    ckptsim::svc::Request req;
    std::string error;
    ASSERT_TRUE(ckptsim::svc::parse_request(line, &req, &error)) << line << ": " << error;

    // Job mix: "name:key=value".
    const ckptsim::platform::JobMix mix = ckptsim::platform::parse_job_mix(
        std::string("a:") + field.key + "=" + text, Parameters{});
    ASSERT_EQ(mix.jobs.size(), 1u);

    const std::string want = ckptsim::parameters_field_string(from_cli);
    EXPECT_EQ(ckptsim::parameters_field_string(req.params), want);
    EXPECT_EQ(ckptsim::parameters_field_string(mix.jobs[0].params), want);
    EXPECT_EQ(visible(req.params), visible(from_cli));
    EXPECT_EQ(visible(mix.jobs[0].params), visible(from_cli));
    EXPECT_NE(visible(from_cli), visible(Parameters{})) << "sample " << text << " changed nothing";
  }
}

TEST(ParameterTable, HelpListsEverySettableField) {
  const std::string help = ckptsim::parameter_help(false) + ckptsim::parameter_help(true);
  for (const ParameterField& field : ckptsim::parameter_fields()) {
    if (field.key == nullptr) continue;
    EXPECT_NE(help.find(std::string("  ") + ckptsim::cli_flag(field) + " "), std::string::npos)
        << field.key;
  }
}

TEST(ParameterTable, CountConversionIsExact) {
  for (const char* twenty : {"20", "20.0", "2e1", "2E+1", "200e-1", "+20", ".2e2", "20."}) {
    EXPECT_EQ(parse_count(twenty, "n"), 20u) << twenty;
  }
  for (const char* zero : {"0", "0.0", "0e9", "000"}) {
    EXPECT_EQ(parse_count(zero, "n"), 0u) << zero;
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_count("18446744073709551615", "seed"), kMax);
  EXPECT_EQ(parse_count("1.8446744073709551615e19", "seed"), kMax);
  EXPECT_EQ(parse_count("12345678901234567891", "seed"), 12345678901234567891ULL);
  EXPECT_EQ(parse_count("4294967295", "n", 4294967295u), 4294967295u);
  for (const char* bad : {"-8", "-0", "2.7", "2x", "", " 2", "2 ", "0x10", "e5", ".", "1e", "inf",
                          "nan", "1e400", "18446744073709551616", "2.5e-1"}) {
    EXPECT_THROW((void)parse_count(bad, "n"), std::invalid_argument) << bad;
  }
  EXPECT_THROW((void)parse_count("4294967304", "n", 4294967295u), std::invalid_argument);
  try {
    (void)parse_count("2.7", "'--reps'");
    FAIL() << "accepted 2.7";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'--reps'"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("2.7"), std::string::npos) << e.what();
  }
}

TEST(ParameterTable, NumberConversionRejectsJunk) {
  EXPECT_EQ(parse_number("2.5", "x"), 2.5);
  EXPECT_EQ(parse_number("1e-3", "x"), 1e-3);
  EXPECT_EQ(parse_number("-4", "x"), -4.0);
  for (const char* bad : {"2yr", "", " 1", "1 ", "nan", "inf", "1e400", "x"}) {
    EXPECT_THROW((void)parse_number(bad, "x"), std::invalid_argument) << bad;
  }
}

TEST(ParameterTable, NegativeWeibullShapeIsRejected) {
  const ParameterField* shape = ckptsim::find_parameter_key("weibull_shape");
  ASSERT_NE(shape, nullptr);
  Parameters p;
  EXPECT_THROW(ckptsim::set_parameter(*shape, "-0.5", "weibull_shape", &p),
               std::invalid_argument);
  ckptsim::set_parameter(*shape, "0", "weibull_shape", &p);  // 0 keeps exponential
  EXPECT_EQ(p.failure_distribution, ckptsim::FailureDistribution::kExponential);
  ckptsim::set_parameter(*shape, "1.5", "weibull_shape", &p);
  EXPECT_EQ(p.failure_distribution, ckptsim::FailureDistribution::kWeibull);
  EXPECT_EQ(p.weibull_shape, 1.5);
}

}  // namespace
