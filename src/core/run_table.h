#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "src/core/results.h"
#include "src/model/parameter_table.h"

namespace ckptsim {

/// The surfaces that set run knobs, as bits of RunField::surfaces.
enum RunSurface : unsigned {
  kCliKnob = 1u << 0,    ///< ckptsim_cli's flags
  kBenchKnob = 1u << 1,  ///< the benches' and examples' flags (report::bench_spec)
  kSpecKnob = 1u << 2,   ///< the service protocol's "spec" object
};

/// One row of the RunSpec knob table, the run controls beside the
/// Parameters fields of parameter_fields().  `key` is the protocol's "spec"
/// key; the CLI flag derives from it as for parameters ("--" plus the key
/// with '_' replaced by '-').  The value is read as `kind` says, in the
/// key's unit (member value = key value * `scale`).  A knob that acts only
/// under a switch (`needs`) is an error without it, worded `cli_rule` on
/// the command lines and `spec_rule` in the protocol.
struct RunField {
  const char* key;
  KeyKind kind;
  unsigned surfaces;  ///< RunSurface bits of the surfaces that accept the key
  /// Set the row (passed first) on the spec from its key's text; a bad
  /// value throws std::invalid_argument naming `name`.
  void (*set)(const RunField&, std::string_view text, std::string_view name, RunSpec*);
  std::string (*get)(const RunField&, const RunSpec&);  ///< the value in the key's unit
  double scale = 1.0;
  const char* unit = "";
  const char* doc = "";            ///< --help text
  const char* choices = nullptr;   ///< kChoice: "a|b|c"
  bool result = true;              ///< changes results, so enters the journal fingerprint
  const char* needs = nullptr;     ///< the switch: "key" or "key value"
  bool (*switched)(const RunSpec&) = nullptr;  ///< the switch is on
  const char* cli_rule = nullptr;   ///< the error without it, on the command lines
  const char* spec_rule = nullptr;  ///< ... and in the protocol's "spec" object
};

/// Every run knob, in --help order.
[[nodiscard]] std::span<const RunField> run_fields() noexcept;

/// The row spelled `key` that `surface` accepts; nullptr when there is none.
[[nodiscard]] const RunField* find_run_key(std::string_view key, RunSurface surface) noexcept;

/// The CLI flag of a row.
[[nodiscard]] const char* run_flag(const RunField& field);

/// The knob rules, the one check every surface runs after reading its knobs:
/// throws std::invalid_argument, in `surface`'s words, for the first row
/// `given` reports whose switch is off in `spec`.
void check_run_rules(const RunSpec& spec, RunSurface surface,
                     const std::function<bool(const RunField&)>& given);

/// The removed "scheduler" knob, spelled `name` by its surface: throws
/// std::invalid_argument saying why it is gone.
[[noreturn]] void reject_removed_scheduler(std::string_view name);

/// --help lines (flag, doc, default) of the rows ckptsim_cli accepts.
[[nodiscard]] std::string run_help();

/// What sets a parameter itself at every point of a run, as bits.
enum Overrider : unsigned {
  kIntervalAxis = 1u << 0,    ///< a sweep along the checkpoint interval
  kProcessorsAxis = 1u << 1,  ///< a sweep along the processor count
  kIntervalSearch = 1u << 2,  ///< the optimizer's interval search
  kProcessorList = 1u << 3,   ///< the optimizer's processor candidates
  kPolicyList = 1u << 4,      ///< the optimizer's policy candidates
};

/// A parameter that `by` sets at every point it runs, and how the command
/// line and the protocol name `by`.
struct OverrideRule {
  Overrider by;
  const char* key;  ///< the parameter's key
  const char* cli_by;
  const char* spec_by;
};

/// Every parameter a sweep axis or the optimizer sets itself.
[[nodiscard]] std::span<const OverrideRule> override_rules() noexcept;

/// The override rule, one check for the CLI and the protocol: throws
/// std::invalid_argument, in `surface`'s words, when `given` reports a
/// parameter that one of `overriders` sets at every point.
void reject_overridden_parameters(unsigned overriders, RunSurface surface,
                                  const std::function<bool(const ParameterField&)>& given);

}  // namespace ckptsim
