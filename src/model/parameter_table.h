#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "src/model/parameters.h"

namespace ckptsim {

/// When a field enters the fingerprint: always, or only while the
/// proactive extension (proactive_enabled()) or a trace (trace_driven()) is on.
enum class FieldGroup : std::uint8_t { kAlways, kProactive, kTrace };

/// How a key's value is written, by the member's type: a count for an
/// integer (parse_count), a number in the key's unit for a double
/// (parse_number, times `scale`), true | false for a bool (its CLI flag
/// "--no-..." sets false), one name of `choices` for an enum (a name's index
/// is its value), or a path for a string.
enum class KeyKind : std::uint8_t { kCount, kNumber, kFlag, kChoice, kPath };

/// One row of the Parameters field table.  A settable row's key is its
/// service-protocol and job-mix key; its CLI flag is "--" plus the key with
/// '_' replaced by '-' ("--no-..." for a kFlag) unless `cli` overrides it.
/// Two keys do more than set their member: any predictor_* key turns the
/// predictor on, and a weibull_shape > 0 selects Weibull failures (0
/// changes nothing).
struct ParameterField {
  using Member = std::variant<std::uint64_t Parameters::*, std::uint32_t Parameters::*,
                              double Parameters::*, bool Parameters::*,
                              FailureDistribution Parameters::*, CoordinationMode Parameters::*,
                              ProactivePolicy Parameters::*, std::string Parameters::*>;
  const char* name;  ///< member name, as the fingerprint spells it
  Member member;
  FieldGroup group = FieldGroup::kAlways;
  const char* key = nullptr;        ///< nullptr: no surface sets the field
  double scale = 1.0;               ///< member value = key value * scale
  const char* unit = "";            ///< the key's unit
  const char* doc = "";             ///< --help text
  const char* choices = nullptr;    ///< kChoice: "a|b|c"
  const char* cli = nullptr;        ///< CLI flag, when not derived from the key
  const char* mix_alias = nullptr;  ///< older job-mix spelling, still accepted

  [[nodiscard]] KeyKind kind() const noexcept {
    constexpr KeyKind kByMember[] = {KeyKind::kCount,  KeyKind::kCount,  KeyKind::kNumber,
                                     KeyKind::kFlag,   KeyKind::kChoice, KeyKind::kChoice,
                                     KeyKind::kChoice, KeyKind::kPath};
    return kByMember[member.index()];
  }
};

/// Every Parameters field, in declaration order.  Adding a field means
/// editing parameters.h, one row here and Parameters::validate().
[[nodiscard]] std::span<const ParameterField> parameter_fields() noexcept;

/// The settable row spelled `key` (or, with `mix_aliases`, whose job-mix
/// alias is `key`); nullptr when there is none.
[[nodiscard]] const ParameterField* find_parameter_key(std::string_view key,
                                                       bool mix_aliases = false) noexcept;

/// The CLI flag of a settable row of parameter_fields().
[[nodiscard]] const char* cli_flag(const ParameterField& field);

/// The CLI flag a key derives: "--" plus the key with '_' replaced by '-'.
[[nodiscard]] std::string key_flag(std::string_view key);

/// Set `field` on `*p` from its key's text ("true" | "false" for a kFlag).
/// A bad value throws std::invalid_argument naming `name`.
void set_parameter(const ParameterField& field, std::string_view text, std::string_view name,
                   Parameters* p);

/// Append `field`'s fingerprint encoding on `p`: integers, flags (0/1) and
/// enum values in decimal, doubles as %.17g, paths verbatim.
void append_field_value(std::string& out, const ParameterField& field, const Parameters& p);

/// The one conversion for counts on every surface: a non-negative whole
/// number <= `max`, read exactly from its decimal text ("20", "20.0" and
/// "2e1" are 20; plain digits keep all 64 bits).  Anything else throws
/// std::invalid_argument naming `name`.
[[nodiscard]] std::uint64_t parse_count(
    std::string_view text, std::string_view name,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// The one conversion for numbers: all of `text` must read (strtod) as a
/// finite number, or std::invalid_argument names `name`.
[[nodiscard]] double parse_number(std::string_view text, std::string_view name);

/// The index of `text` among `choices` ("a|b|c"); a name that is not one
/// of them throws std::invalid_argument naming `name`.
[[nodiscard]] std::size_t parse_choice(std::string_view text, std::string_view choices,
                                       std::string_view name);
/// The name of choice `index` of `choices`.
[[nodiscard]] std::string_view choice_name(std::string_view choices, std::size_t index);

/// --help lines (flag, doc, default) of the settable always-on rows, or
/// with `extensions` of the proactive and trace rows.
[[nodiscard]] std::string parameter_help(bool extensions);

/// One --help line: `flag` (with its metavar) padded to a column, `doc`,
/// and `fallback` in brackets unless it is empty.
[[nodiscard]] std::string help_line(const std::string& flag, const std::string& doc,
                                    const std::string& fallback);
/// The metavar a key of `kind` takes in --help (" N", " X", ...).
[[nodiscard]] const char* metavar(KeyKind kind);

}  // namespace ckptsim
