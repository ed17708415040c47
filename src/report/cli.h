#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/results.h"
#include "src/model/parameters.h"

namespace ckptsim::report {

/// One flag a tool accepts, for unknown-flag rejection.
struct FlagSpec {
  const char* name;         ///< e.g. "--processors"
  bool takes_value = false; ///< consumes the next token unless given as =
};

/// Tiny argument parser shared by benches and examples.
/// Supports `--flag` booleans and `--key value` / `--key=value` options.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view flag) const;
  /// True when `flag` appears at all: as a switch, `flag value` or `flag=value`.
  [[nodiscard]] bool given(std::string_view flag) const;
  /// `key`'s value (`key value` or `key=value`), or `fallback` when `key` is
  /// absent.  A `key` given with no value (the last token, `key=`, or
  /// followed by an empty token) throws std::invalid_argument naming it.
  [[nodiscard]] std::string value(std::string_view key, std::string fallback = "") const;
  /// `key`'s value through parse_number / parse_count (parameter_table.h),
  /// or `fallback` when absent.
  [[nodiscard]] double number(std::string_view key, double fallback) const;
  [[nodiscard]] std::uint64_t count(
      std::string_view key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;

  /// Arguments not covered by `known`: misspelled flags and stray
  /// positional tokens.  A known value-taking flag consumes the following
  /// token (unless written as --key=value), so option values are never
  /// misreported.  Tools reject when this is non-empty — a typo'd flag
  /// must not silently run with the default it masked.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      const std::vector<FlagSpec>& known) const;

  /// Known switches (flags that take no value) written as `--switch=value`.
  /// has() never matches them, so a tool must reject them, not ignore them.
  [[nodiscard]] std::vector<std::string> valued_switches(
      const std::vector<FlagSpec>& known) const;

  /// Closest known flag to `flag` for a "did you mean" hint, or "" when
  /// nothing is plausibly close (edit distance > 3).
  [[nodiscard]] static std::string suggest(std::string_view flag,
                                           const std::vector<FlagSpec>& known);

 private:
  std::vector<std::string> args_;
};

/// Apply the command line's flag for each settable row of the parameter
/// table, and --no-failures (all three failure processes off), to `*p`.
void apply_parameter_flags(const Cli& cli, Parameters* p);
/// The flags apply_parameter_flags reads.
[[nodiscard]] std::vector<FlagSpec> parameter_flag_specs();

/// RunSpec for a bench invocation: defaults to the full-fidelity spec, and
/// shrinks to RunSpec::quick() when `--quick` is passed or the environment
/// variable CKPTSIM_QUICK is set (used by CI).  `--seed N`, `--reps N`,
/// `--horizon-hours H`, and `--jobs N` override individual fields (jobs
/// falls back to CKPTSIM_JOBS, then to the hardware thread count; results
/// are identical for any value).  `--rel-precision R` switches the run to
/// precision-driven replications (sequential stopping at relative CI
/// half-width R, bounded by `--min-replications` / `--max-replications`);
/// without it the fixed `--reps` count is used and output is byte-identical
/// to earlier builds, and either bound flag throws std::invalid_argument.
/// The removed `--scheduler` flag throws too: every engine uses the
/// binary-heap event queue.
[[nodiscard]] RunSpec bench_spec(const Cli& cli);
/// The flags bench_spec reads (`--scheduler` included, so that naming it
/// reaches bench_spec's error).
[[nodiscard]] std::vector<FlagSpec> bench_spec_flags();

/// True when quick mode is active (flag or environment).
[[nodiscard]] bool quick_mode(const Cli& cli);

}  // namespace ckptsim::report
