#include "src/core/run_table.h"

#include <cstdio>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace ckptsim {

namespace {

template <typename T>
constexpr KeyKind kind_of() {
  if constexpr (std::is_enum_v<T>) return KeyKind::kChoice;
  if constexpr (std::is_integral_v<T>) return KeyKind::kCount;
  if constexpr (std::is_floating_point_v<T>) return KeyKind::kNumber;
  return KeyKind::kPath;
}

template <typename T>
void assign(T& member, const RunField& f, std::string_view text, std::string_view name) {
  if constexpr (std::is_enum_v<T>) {
    member = static_cast<T>(parse_choice(text, f.choices, name));
  } else if constexpr (std::is_integral_v<T>) {
    member = static_cast<T>(parse_count(text, name, std::numeric_limits<T>::max()));
  } else if constexpr (std::is_floating_point_v<T>) {
    member = parse_number(text, name) * f.scale;
  } else {
    member = text;
  }
}

template <typename T>
std::string show(const T& member, const RunField& f) {
  if constexpr (std::is_enum_v<T>) {
    return std::string(choice_name(f.choices, static_cast<std::size_t>(member)));
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(member);
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", member / f.scale);
    return buf;
  } else {
    return member;
  }
}

constexpr unsigned kEverySurface = kCliKnob | kBenchKnob | kSpecKnob;

// One row per knob; KNOB reads and writes RunSpec member `path` (which may
// be nested) and derives the row's kind from the member's type.
#define KNOB(k, path, surfaces_, ...)                                                        \
  RunField {                                                                                 \
    .key = k, .kind = kind_of<decltype(std::declval<RunSpec&>().path)>(),                    \
    .surfaces = surfaces_,                                                                   \
    .set = [](const RunField& f, std::string_view text, std::string_view name, RunSpec* s) { \
      assign(s->path, f, text, name);                                                        \
    },                                                                                       \
    .get = [](const RunField& f, const RunSpec& s) { return show(s.path, f); }               \
    __VA_OPT__(, ) __VA_ARGS__                                                               \
  }
// clang-format off
const RunField kFields[] = {
    KNOB("reps", replications, kEverySurface, .doc = "replications per point"),
    KNOB("seed", seed, kEverySurface, .doc = "master seed"),
    KNOB("horizon_hours", horizon, kEverySurface, .scale = units::kHour, .unit = "h",
         .doc = "observation span per replication"),
    KNOB("transient_hours", transient, kCliKnob | kSpecKnob, .scale = units::kHour, .unit = "h",
         .doc = "discarded warm-up"),
    KNOB("confidence", confidence_level, kSpecKnob, .doc = "confidence level"),
    KNOB("jobs", exec.jobs, kCliKnob | kBenchKnob, .doc = "worker threads, 0 = auto",
         .result = false),
    KNOB("rel_precision", sequential.rel_precision, kEverySurface,
         .doc = "target relative CI half-width, 0 = off"),
    KNOB("min_replications", sequential.min_replications, kEverySurface,
         .doc = "first round / floor", .needs = "rel_precision",
         .switched = [](const RunSpec& s) { return s.sequential.enabled(); },
         .cli_rule = "'--min-replications' needs '--rel-precision': without it the fixed --reps "
                     "count runs",
         .spec_rule = "spec key 'min_replications' needs 'rel_precision': without it the fixed "
                      "'reps' count runs"),
    KNOB("max_replications", sequential.max_replications, kEverySurface,
         .doc = "replication budget ceiling", .needs = "rel_precision",
         .switched = [](const RunSpec& s) { return s.sequential.enabled(); },
         .cli_rule = "'--max-replications' needs '--rel-precision': without it the fixed --reps "
                     "count runs",
         .spec_rule = "spec key 'max_replications' needs 'rel_precision': without it the fixed "
                      "'reps' count runs"),
    KNOB("on_failure", on_failure.mode, kCliKnob | kSpecKnob, .doc = "on a failed replication",
         .choices = "fail|retry|skip"),
    KNOB("max_retries", on_failure.max_retries, kCliKnob | kSpecKnob,
         .doc = "extra attempts per replication", .needs = "on_failure retry",
         .switched =
             [](const RunSpec& s) { return s.on_failure.mode == FailurePolicy::Mode::kRetry; },
         .cli_rule = "'--max-retries' needs '--on-failure retry'",
         .spec_rule = "spec key 'max_retries' needs \"on_failure\":\"retry\""),
    KNOB("max_events", watchdog.max_events, kCliKnob | kSpecKnob,
         .doc = "per-replication event watchdog, 0 = unlimited"),
    KNOB("snapshot_every_events", snapshot_every_events, kCliKnob,
         .doc = "snapshot period in fired events, 0 = off", .result = false,
         .needs = "snapshot_dir",  // 0 is off, and needs no directory
         .switched = [](const RunSpec& s) {
           return s.snapshot_every_events == 0 || !s.snapshot_dir.empty();
         },
         .cli_rule = "--snapshot-every-events requires --snapshot-dir"),
    KNOB("snapshot_dir", snapshot_dir, kCliKnob, .doc = "directory for replication snapshots",
         .result = false, .needs = "snapshot_every_events",
         .switched = [](const RunSpec& s) { return s.snapshot_every_events > 0; },
         .cli_rule = "'--snapshot-dir' needs '--snapshot-every-events N' (N > 0)"),
};
// clang-format on
#undef KNOB

const OverrideRule kOverrides[] = {
    {kIntervalAxis, "interval_min", "'--sweep interval'", "axis \"interval\""},
    {kProcessorsAxis, "processors", "'--sweep processors'", "axis \"processors\""},
    {kIntervalSearch, "interval_min", "'--optimize'", "the interval search"},
    {kProcessorList, "processors", "'--optimize-processors'", "key 'processors'"},
    {kPolicyList, "proactive_policy", "'--optimize-policies'", "key 'policies'"},
};

}  // namespace

std::span<const RunField> run_fields() noexcept { return kFields; }

std::span<const OverrideRule> override_rules() noexcept { return kOverrides; }

const RunField* find_run_key(std::string_view key, RunSurface surface) noexcept {
  for (const RunField& f : kFields) {
    if (key == f.key && (f.surfaces & surface) != 0) return &f;
  }
  return nullptr;
}

const char* run_flag(const RunField& field) {
  static const std::vector<std::string> flags = [] {
    std::vector<std::string> out;
    for (const RunField& f : kFields) out.push_back(key_flag(f.key));
    return out;
  }();
  return flags[static_cast<std::size_t>(&field - kFields)].c_str();
}

void check_run_rules(const RunSpec& spec, RunSurface surface,
                     const std::function<bool(const RunField&)>& given) {
  for (const RunField& f : kFields) {
    if (f.needs == nullptr || (f.surfaces & surface) == 0 || f.switched(spec) || !given(f)) {
      continue;
    }
    throw std::invalid_argument(surface == kSpecKnob ? f.spec_rule : f.cli_rule);
  }
}

void reject_removed_scheduler(std::string_view name) {
  throw std::invalid_argument(std::string(name) +
                              " was removed: every engine now uses the binary-heap event queue");
}

std::string run_help() {
  const RunSpec defaults;
  std::string out;
  for (const RunField& f : kFields) {
    if ((f.surfaces & kCliKnob) == 0) continue;
    std::string doc = f.doc;
    if (f.choices != nullptr) doc += std::string(" (") + f.choices + ")";
    if (f.needs != nullptr) doc += "; needs " + key_flag(f.needs);
    std::string fallback = f.kind == KeyKind::kPath ? "" : f.get(f, defaults);
    if (*f.unit != '\0') fallback += std::string(" ") + f.unit;
    const char* var = f.kind == KeyKind::kPath ? " DIR" : metavar(f.kind);
    out += help_line(run_flag(f) + std::string(var), doc, fallback);
  }
  return out;
}

void reject_overridden_parameters(unsigned overriders, RunSurface surface,
                                  const std::function<bool(const ParameterField&)>& given) {
  for (const OverrideRule& rule : kOverrides) {
    const ParameterField& field = *find_parameter_key(rule.key);
    if ((overriders & rule.by) == 0 || !given(field)) continue;
    const std::string name = surface == kSpecKnob
                                 ? std::string("params key '") + rule.key + "'"
                                 : std::string("'") + cli_flag(field) + "'";
    throw std::invalid_argument(name + " is overridden by " +
                                (surface == kSpecKnob ? rule.spec_by : rule.cli_by) +
                                ", which sets it at every point");
  }
}

}  // namespace ckptsim
