#include "src/model/parameter_table.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace ckptsim {

namespace {

using P = Parameters;
using units::kMinute;
constexpr FieldGroup kProactive = FieldGroup::kProactive;

// One row per Parameters field, in declaration order; FIELD spells the
// fingerprint name from the member itself.
#define FIELD(m, ...) ParameterField{.name = #m, .member = &P::m __VA_OPT__(, ) __VA_ARGS__}
// clang-format off
const ParameterField kFields[] = {
    FIELD(num_processors, .key = "processors", .doc = "compute processors", .mix_alias = "procs"),
    FIELD(processors_per_node, .key = "procs_per_node", .doc = "processors per node"),
    FIELD(compute_nodes_per_io_node, .key = "nodes_per_io", .doc = "compute nodes per I/O node"),
    FIELD(mttf_node, .key = "mttf_years", .scale = units::kYear, .unit = "yr",
          .doc = "per-node MTTF", .mix_alias = "mttf_yr"),
    FIELD(mttr_compute, .key = "mttr_min", .scale = kMinute, .unit = "min",
          .doc = "compute recovery mean"),
    FIELD(mttr_io, .key = "mttr_io_min", .scale = kMinute, .unit = "min",
          .doc = "I/O-node restart mean"),
    FIELD(reboot_time),
    FIELD(recovery_failure_threshold),
    FIELD(compute_failures_enabled, .key = "compute_failures", .doc = "compute-node failures"),
    FIELD(io_failures_enabled, .key = "io_failures", .doc = "I/O-node failures"),
    FIELD(master_failures_enabled, .key = "master_failures", .doc = "master failures"),
    FIELD(failures_during_checkpointing),
    FIELD(failures_during_recovery),
    FIELD(failure_distribution),
    FIELD(weibull_shape, .key = "weibull_shape", .doc = "Weibull shape (DES), 0 = off"),
    FIELD(checkpoint_interval, .key = "interval_min", .scale = kMinute, .unit = "min",
          .doc = "checkpoint interval"),
    FIELD(mttq, .key = "mttq", .unit = "s", .doc = "per-processor quiesce mean"),
    FIELD(coordination, .key = "coordination", .doc = "quiesce model", .choices = "fixed|exp|max"),
    FIELD(timeout, .key = "timeout", .unit = "s", .doc = "master timeout, 0 = none"),
    FIELD(broadcast_overhead),
    FIELD(software_overhead),
    FIELD(checkpoint_size_per_node, .key = "ckpt_mb", .scale = units::kMB, .unit = "MB",
          .doc = "checkpoint size per node"),
    FIELD(bw_compute_to_io),
    FIELD(bw_io_to_fs),
    FIELD(background_fs_write, .key = "background_fs_write", .doc = "background FS writes",
          .cli = "--sync-write"),
    FIELD(incremental_size_fraction, .key = "incremental", .doc = "incremental size, 1 = full"),
    FIELD(full_checkpoint_period, .key = "full_period", .doc = "full checkpoint every N-th"),
    FIELD(app_cycle_period),
    FIELD(compute_fraction, .key = "compute_fraction", .doc = "app compute fraction"),
    FIELD(app_io_data_per_node),
    FIELD(app_io_enabled, .key = "app_io", .doc = "application I/O bursts"),
    FIELD(prob_correlated, .key = "prob_correlated", .doc = "error-propagation p_e"),
    FIELD(correlated_factor, .key = "correlated_factor", .doc = "correlated rate factor r"),
    FIELD(correlated_window),
    FIELD(generic_correlated_coefficient, .key = "generic_alpha",
          .doc = "generic correlation alpha"),
    FIELD(generic_correlated_smooth),
    FIELD(proactive_policy, .group = kProactive, .key = "proactive_policy",
          .doc = "reaction to warnings", .choices = "none|proactive-checkpoint|migrate|malleable"),
    FIELD(predictor_enabled, .group = kProactive),
    FIELD(predictor_precision, .group = kProactive, .key = "predictor_precision",
          .doc = "predictor precision"),
    FIELD(predictor_recall, .group = kProactive, .key = "predictor_recall",
          .doc = "predictor recall"),
    FIELD(predictor_lead_time, .group = kProactive, .key = "predictor_lead_s", .unit = "s",
          .doc = "mean warning lead time"),
    FIELD(migration_time, .group = kProactive, .key = "migration_cost_s", .unit = "s",
          .doc = "evacuation pause (migrate)"),
    FIELD(rescale_time, .group = kProactive, .key = "rescale_cost_s", .unit = "s",
          .doc = "rescale pause (malleable)"),
    FIELD(node_repair_time, .group = kProactive, .key = "node_repair_min", .scale = kMinute,
          .unit = "min", .doc = "mean node repair time"),
    FIELD(failure_trace_path, .group = FieldGroup::kTrace, .key = "failure_trace",
          .doc = "replay a recorded failure log"),
};
// clang-format on
#undef FIELD

std::vector<std::string_view> choice_names(std::string_view choices) {
  std::vector<std::string_view> names;
  for (std::size_t bar; (bar = choices.find('|')) != std::string_view::npos;) {
    names.push_back(choices.substr(0, bar));
    choices.remove_prefix(bar + 1);
  }
  names.push_back(choices);
  return names;
}

[[noreturn]] void bad_value(std::string_view name, const std::string& expects,
                            std::string_view text) {
  throw std::invalid_argument(std::string(name) + " expects " + expects + ", got '" +
                              std::string(text) + "'");
}

}  // namespace

std::span<const ParameterField> parameter_fields() noexcept { return kFields; }

const ParameterField* find_parameter_key(std::string_view key, bool mix_aliases) noexcept {
  for (const ParameterField& f : kFields) {
    if (f.key == nullptr) continue;
    if (key == f.key || (mix_aliases && f.mix_alias != nullptr && key == f.mix_alias)) return &f;
  }
  return nullptr;
}

const char* cli_flag(const ParameterField& field) {
  static const std::vector<std::string> flags = [] {
    std::vector<std::string> out;
    for (const ParameterField& f : kFields) {
      std::string flag = f.key == nullptr ? "" : key_flag(f.key);
      if (!flag.empty() && f.kind() == KeyKind::kFlag) flag.insert(2, "no-");
      out.push_back(f.cli != nullptr ? f.cli : flag);
    }
    return out;
  }();
  return flags[static_cast<std::size_t>(&field - kFields)].c_str();
}

std::string key_flag(std::string_view key) {
  std::string flag = "--" + std::string(key);
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

std::size_t parse_choice(std::string_view text, std::string_view choices, std::string_view name) {
  const auto names = choice_names(choices);
  const auto it = std::find(names.begin(), names.end(), text);
  if (it == names.end()) bad_value(name, "one of " + std::string(choices), text);
  return static_cast<std::size_t>(it - names.begin());
}

std::string_view choice_name(std::string_view choices, std::size_t index) {
  return choice_names(choices)[index];
}

std::uint64_t parse_count(std::string_view text, std::string_view name, std::uint64_t max) {
  const auto reject = [&] {
    bad_value(name,
              max == std::numeric_limits<std::uint64_t>::max()
                  ? "a non-negative whole number"
                  : "a whole number in [0, " + std::to_string(max) + "]",
              text);
  };
  const auto digit = [&](std::size_t i) {
    return i < text.size() && text[i] >= '0' && text[i] <= '9';
  };
  // Exact read of [+]digits[.digits][(e|E)[+-]digits]: the significant
  // digits, and the power of ten that scales them.
  std::size_t i = text.starts_with('+') ? 1 : 0;
  std::string digits;
  long exponent = 0;
  for (; digit(i); ++i) digits += text[i];
  if (i < text.size() && text[i] == '.') {
    for (++i; digit(i); ++i, --exponent) digits += text[i];
  }
  if (digits.empty()) reject();
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    const bool minus = ++i < text.size() && text[i] == '-';
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) ++i;
    if (!digit(i)) reject();
    long e = 0;
    for (; digit(i); ++i) e = std::min(10 * e + (text[i] - '0'), 100000L);
    exponent += minus ? -e : e;
  }
  if (i != text.size()) reject();
  digits.erase(0, digits.find_first_not_of('0'));
  if (digits.empty()) return 0;
  for (; exponent < 0; ++exponent) {  // the fraction must be all zeros
    if (digits.back() != '0') reject();
    digits.pop_back();
  }
  if (digits.size() + static_cast<std::size_t>(exponent) > 20) reject();
  digits.append(static_cast<std::size_t>(exponent), '0');
  std::uint64_t value = 0;
  for (const char c : digits) {
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (value > max / 10 || d > max - 10 * value) reject();
    value = 10 * value + d;
  }
  return value;
}

double parse_number(std::string_view text, std::string_view name) {
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])) != 0 ||
      end != s.c_str() + s.size() || !std::isfinite(v)) {
    bad_value(name, "a finite number", text);
  }
  return v;
}

void set_parameter(const ParameterField& field, std::string_view text, std::string_view name,
                   Parameters* p) {
  std::visit(
      [&](auto member) {
        auto& value = p->*member;
        using T = std::remove_reference_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>) {
          value = text;
        } else if constexpr (std::is_same_v<T, bool>) {
          if (text != "true" && text != "false") bad_value(name, "true or false", text);
          value = text == "true";
        } else if constexpr (std::is_enum_v<T>) {
          value = static_cast<T>(parse_choice(text, field.choices, name));
        } else if constexpr (std::is_integral_v<T>) {
          value = static_cast<T>(parse_count(text, name, std::numeric_limits<T>::max()));
        } else {
          const double v = parse_number(text, name);
          if (member == &P::weibull_shape) {
            if (v < 0.0) bad_value(name, "a shape >= 0 (0 keeps exponential failures)", text);
            if (v == 0.0) return;
            p->failure_distribution = FailureDistribution::kWeibull;
          }
          if (field.key != nullptr && std::string_view(field.key).starts_with("predictor_")) {
            p->predictor_enabled = true;
          }
          value = v * field.scale;
        }
      },
      field.member);
}

void append_field_value(std::string& out, const ParameterField& field, const Parameters& p) {
  std::visit(
      [&](auto member) {
        const auto& v = p.*member;
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          out += v;
        } else if constexpr (std::is_same_v<T, double>) {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%.17g", v);
          out += buf;
        } else {
          out += std::to_string(static_cast<std::uint64_t>(v));
        }
      },
      field.member);
}

const char* metavar(KeyKind kind) {
  constexpr const char* kMetavars[] = {" N", " X", "", " NAME", " FILE"};  // by KeyKind
  return kMetavars[static_cast<int>(kind)];
}

std::string help_line(const std::string& flag, const std::string& doc,
                      const std::string& fallback) {
  const auto pad = [](std::string s, std::size_t width) {
    s.resize(std::max(width, s.size() + 1), ' ');
    return s;
  };
  std::string line = "  " + pad(flag, 24) + doc;
  if (!fallback.empty()) line = pad(line, 56) + "[" + fallback + "]";
  return line + "\n";
}

std::string parameter_help(bool extensions) {
  const Parameters defaults;
  std::string out;
  for (const ParameterField& f : kFields) {
    if (f.key == nullptr || (f.group != FieldGroup::kAlways) != extensions) continue;
    const KeyKind kind = f.kind();
    std::string doc = kind == KeyKind::kFlag ? std::string("turn off ") + f.doc : f.doc;
    if (f.choices != nullptr) doc += std::string(" (") + f.choices + ")";
    std::string fallback;  // the default in the key's unit; none for flags and paths
    append_field_value(fallback, f, defaults);
    if (kind == KeyKind::kChoice) fallback = choice_name(f.choices, std::stoul(fallback));
    if (kind == KeyKind::kNumber) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%g%s%s",
                    defaults.*std::get<double P::*>(f.member) / f.scale,
                    *f.unit != '\0' ? " " : "", f.unit);
      fallback = std::get<double P::*>(f.member) == &P::weibull_shape ? "" : buf;
    }
    if (kind == KeyKind::kFlag || kind == KeyKind::kPath) fallback.clear();
    out += help_line(cli_flag(f) + std::string(metavar(kind)), doc, fallback);
  }
  return out;
}

}  // namespace ckptsim
