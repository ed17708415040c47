#include "src/report/cli.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "src/model/parameter_table.h"

namespace ckptsim::report {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
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
    const std::string text = no_value ? (cli.given(flag) ? "false" : "") : cli.value(flag);
    if (!text.empty()) set_parameter(field, text, std::string("'").append(flag) + "'", p);
  }
  if (cli.given("--no-failures")) {
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

std::vector<std::string> Cli::flag_errors(const std::vector<FlagSpec>& known) const {
  const auto find = [&known](std::string_view name) -> const FlagSpec* {
    for (const FlagSpec& spec : known) {
      if (name == spec.name) return &spec;
    }
    return nullptr;
  };
  for (const std::string& arg : args_) {
    const std::string name = arg.substr(0, arg.find('='));
    const FlagSpec* spec = arg.rfind("--", 0) == 0 ? find(name) : nullptr;
    if (spec != nullptr && !spec->takes_value && name != arg) {
      return {"'" + name + "' is a switch and takes no value"};
    }
  }
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    // Name the flag part only: "--sead=9" is a misspelling of "--seed".
    const std::string name = args_[i].substr(0, args_[i].find('='));
    const FlagSpec* spec = find(name);
    if (spec == nullptr) {
      const std::string unknown = args_[i].rfind("--", 0) == 0 ? name : args_[i];
      const std::string hint = suggest(unknown, known);
      errors.push_back("unknown option '" + unknown + "'" +
                       (hint.empty() ? "" : " (did you mean '" + hint + "'?)"));
    } else if (spec->takes_value && name == args_[i]) {
      ++i;  // the next token is the value
    }
  }
  return errors;
}

int Cli::check_flags(const std::vector<FlagSpec>& known) const {
  const std::vector<std::string> errors = flag_errors(known);
  for (const std::string& error : errors) std::cerr << "error: " << error << "\n";
  return errors.empty() ? 0 : 1;
}

std::string Cli::suggest(std::string_view flag, const std::vector<FlagSpec>& known) {
  if (flag.empty() || flag[0] != '-') return "";  // stray positional, not a typo'd flag
  const std::string name(flag.substr(0, flag.find('=')));
  std::string best;
  std::size_t best_distance = 3;  // hints only for near-misses: at most 2 edits
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
  // ...and within half the typed name: "--bogus" is no typo of "--jobs".
  const std::size_t typed = name.size() - std::min(name.find_first_not_of('-'), name.size());
  return 2 * best_distance <= typed ? best : "";
}

bool open_journal(const Cli& cli, const char* unit, std::optional<SweepJournal>* journal) {
  const std::string path = cli.value("--journal");
  if (path.empty()) return true;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!cli.given("--resume") && !ec && size > 0) {
    std::cerr << "error: journal '" << path
              << "' exists; pass --resume to continue it or delete the file\n";
    return false;
  }
  journal->emplace(path);
  if ((*journal)->loaded() > 0) {
    std::cout << "resuming: " << (*journal)->loaded() << " completed " << unit
              << "(s) loaded from " << path << "\n";
  }
  return true;
}

namespace {
std::atomic<bool> g_interrupted{false};
}  // namespace

RunObservers::RunObservers(const Cli& cli, RunSpec* spec)
    : metrics_path_(cli.value("--metrics-out")) {
  std::signal(SIGINT, [](int) {
    g_interrupted.store(true, std::memory_order_relaxed);
    std::signal(SIGINT, SIG_DFL);
  });
  spec->cancel = &g_interrupted;
  if (cli.given("--progress")) spec->progress = &progress_;
  if (!metrics_path_.empty()) spec->metrics = &metrics_.emplace(spec->exec.resolve());
}

void RunObservers::write_metrics() const {
  if (!metrics_.has_value()) return;
  metrics_->snapshot().write_json(metrics_path_);
  std::cout << "wrote " << metrics_path_ << "\n";
}

bool quick_mode(const Cli& cli) {
  if (cli.given("--quick")) return true;
  const char* env = std::getenv("CKPTSIM_QUICK");
  return env != nullptr && std::string_view(env) != "0" && std::string_view(env) != "";
}

RunSpec run_spec(const Cli& cli, RunSurface surface) {
  RunSpec spec = quick_mode(cli) ? RunSpec::quick() : RunSpec{};
  for (const RunField& field : run_fields()) {
    if ((field.surfaces & surface) == 0) continue;
    const char* flag = run_flag(field);
    const std::string text = cli.value(flag);
    if (!text.empty()) field.set(field, text, std::string("'") + flag + "'", &spec);
  }
  if (cli.given("--scheduler")) reject_removed_scheduler("'--scheduler'");
  check_run_rules(spec, surface, [&cli](const RunField& f) { return cli.given(run_flag(f)); });
  return spec;
}

std::vector<FlagSpec> run_flag_specs(RunSurface surface, std::initializer_list<FlagSpec> extra) {
  std::vector<FlagSpec> specs{{"--quick", false}, {"--scheduler", true}};
  for (const RunField& field : run_fields()) {
    if ((field.surfaces & surface) != 0) specs.push_back({run_flag(field), true});
  }
  specs.insert(specs.end(), extra);
  return specs;
}

RunSpec bench_spec(const Cli& cli, std::initializer_list<FlagSpec> extra) {
  const std::vector<std::string> errors = cli.flag_errors(run_flag_specs(kBenchKnob, extra));
  if (!errors.empty()) {
    std::string text = errors.front();
    for (std::size_t i = 1; i < errors.size(); ++i) text += "\nerror: " + errors[i];
    throw std::invalid_argument(text);
  }
  return run_spec(cli, kBenchKnob);
}

}  // namespace ckptsim::report
