#include "src/report/cli.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "src/model/parameter_table.h"

namespace ckptsim::report {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
}

bool Cli::has(std::string_view flag) const {
  for (const auto& a : args_) {
    if (a == flag) return true;
  }
  return false;
}

bool Cli::given(std::string_view flag) const {
  for (const auto& a : args_) {
    if (a.rfind(flag, 0) == 0 && (a.size() == flag.size() || a[flag.size()] == '=')) return true;
  }
  return false;
}

std::string Cli::value(std::string_view key, std::string fallback) const {
  const std::string prefix = std::string(key) + "=";
  for (std::size_t i = 0; i < args_.size(); ++i) {
    std::string v;
    if (args_[i] == key) {
      if (i + 1 < args_.size()) v = args_[i + 1];
    } else if (args_[i].rfind(prefix, 0) == 0) {
      v = args_[i].substr(prefix.size());
    } else {
      continue;
    }
    // Given, but with nothing to read: an error, not the fallback.
    if (v.empty()) throw std::invalid_argument("'" + std::string(key) + "' expects a value");
    return v;
  }
  return fallback;
}

double Cli::number(std::string_view key, double fallback) const {
  const std::string v = value(key);
  return v.empty() ? fallback : parse_number(v, std::string("'").append(key) + "'");
}

std::uint64_t Cli::count(std::string_view key, std::uint64_t fallback, std::uint64_t max) const {
  const std::string v = value(key);
  return v.empty() ? fallback : parse_count(v, std::string("'").append(key) + "'", max);
}

void apply_parameter_flags(const Cli& cli, Parameters* p) {
  for (const ParameterField& field : parameter_fields()) {
    if (field.key == nullptr) continue;
    const char* flag = cli_flag(field);
    const bool no_value = field.kind() == KeyKind::kFlag;  // --no-KEY sets KEY false
    const std::string text = no_value ? (cli.has(flag) ? "false" : "") : cli.value(flag);
    if (!text.empty()) set_parameter(field, text, std::string("'").append(flag) + "'", p);
  }
  if (cli.has("--no-failures")) {
    p->compute_failures_enabled = false;
    p->io_failures_enabled = false;
    p->master_failures_enabled = false;
  }
}

std::vector<FlagSpec> parameter_flag_specs() {
  std::vector<FlagSpec> specs{{"--no-failures", false}};
  for (const ParameterField& field : parameter_fields()) {
    if (field.key != nullptr) specs.push_back({cli_flag(field), field.kind() != KeyKind::kFlag});
  }
  return specs;
}

std::vector<std::string> Cli::unknown_flags(const std::vector<FlagSpec>& known) const {
  std::vector<std::string> unknown;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    const std::string& arg = args_[i];
    const std::string name = arg.substr(0, arg.find('='));
    const bool inline_value = name.size() != arg.size();
    bool matched = false;
    for (const FlagSpec& spec : known) {
      if (name != spec.name) continue;
      matched = true;
      if (spec.takes_value && !inline_value) ++i;  // next token is the value
      break;
    }
    // Report the flag part only: "--sead=9" is a misspelling of "--seed",
    // and the hint matcher should see the name, not the value.
    if (!matched) unknown.push_back(arg.rfind("--", 0) == 0 ? name : arg);
  }
  return unknown;
}

std::vector<std::string> Cli::valued_switches(const std::vector<FlagSpec>& known) const {
  std::vector<std::string> out;
  for (const std::string& arg : args_) {
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos || arg.rfind("--", 0) != 0) continue;
    for (const FlagSpec& spec : known) {
      if (!spec.takes_value && std::string_view(arg).substr(0, eq) == spec.name) {
        out.push_back(spec.name);
      }
    }
  }
  return out;
}

std::string Cli::suggest(std::string_view flag, const std::vector<FlagSpec>& known) {
  if (flag.empty() || flag[0] != '-') return "";  // stray positional, not a typo'd flag
  const std::string name(flag.substr(0, flag.find('=')));
  std::string best;
  std::size_t best_distance = 4;  // hints only for near-misses
  for (const FlagSpec& spec : known) {
    const std::string_view candidate = spec.name;
    // Levenshtein distance, two-row rolling table.
    std::vector<std::size_t> prev(candidate.size() + 1);
    std::vector<std::size_t> cur(candidate.size() + 1);
    for (std::size_t j = 0; j <= candidate.size(); ++j) prev[j] = j;
    for (std::size_t i = 1; i <= name.size(); ++i) {
      cur[0] = i;
      for (std::size_t j = 1; j <= candidate.size(); ++j) {
        const std::size_t subst = prev[j - 1] + (name[i - 1] == candidate[j - 1] ? 0 : 1);
        cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
      }
      std::swap(prev, cur);
    }
    const std::size_t distance = prev[candidate.size()];
    if (distance < best_distance) {
      best_distance = distance;
      best = spec.name;
    }
  }
  return best;
}

bool quick_mode(const Cli& cli) {
  if (cli.has("--quick")) return true;
  const char* env = std::getenv("CKPTSIM_QUICK");
  return env != nullptr && std::string_view(env) != "0" && std::string_view(env) != "";
}

RunSpec bench_spec(const Cli& cli) {
  RunSpec spec = quick_mode(cli) ? RunSpec::quick() : RunSpec{};
  spec.seed = cli.count("--seed", spec.seed);
  spec.replications = cli.count("--reps", spec.replications);
  const double horizon_hours = cli.number("--horizon-hours", spec.horizon / 3600.0);
  spec.horizon = horizon_hours * 3600.0;
  // 0 = auto: ExecSpec::resolve() falls back to CKPTSIM_JOBS, then hardware.
  spec.exec.jobs = cli.count("--jobs", 0);
  // Precision-driven mode: --rel-precision enables the sequential stopper
  // (off by default, so plain invocations stay byte-identical); the bounds
  // flags refine the round schedule only when it is on, so without it they
  // are an error rather than a silently ignored knob.
  spec.sequential.rel_precision = cli.number("--rel-precision", 0.0);
  spec.sequential.min_replications =
      cli.count("--min-replications", spec.sequential.min_replications);
  spec.sequential.max_replications =
      cli.count("--max-replications", spec.sequential.max_replications);
  if (cli.given("--scheduler")) {
    throw std::invalid_argument(
        "'--scheduler' was removed: every engine now uses the binary-heap event queue");
  }
  if (!spec.sequential.enabled()) {
    for (const char* flag : {"--min-replications", "--max-replications"}) {
      if (cli.given(flag)) {
        throw std::invalid_argument(std::string("'") + flag +
                                    "' needs '--rel-precision': without it the fixed --reps "
                                    "count runs");
      }
    }
  }
  return spec;
}

std::vector<FlagSpec> bench_spec_flags() {
  return {{"--quick", false},          {"--seed", true},
          {"--reps", true},            {"--horizon-hours", true},
          {"--jobs", true},            {"--rel-precision", true},
          {"--min-replications", true}, {"--max-replications", true},
          {"--scheduler", true}};
}

}  // namespace ckptsim::report
