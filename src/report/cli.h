#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/journal.h"
#include "src/core/results.h"
#include "src/core/run_table.h"
#include "src/model/parameters.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"

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

  /// True when `flag` appears at all: as a switch, `flag value` or
  /// `flag=value`.  It reads switches too: the flag check has already
  /// rejected a switch given a value.
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

  /// The one flag check every tool runs first: the error for a known switch
  /// written with a value (`--quick=1`: no switch takes one), or else
  /// one for each argument not in `known` (a misspelled flag or a stray
  /// positional token), with a "did you mean" hint when a known flag is
  /// close; empty when every argument is known.  A known value-taking flag
  /// consumes the following token (unless written as --key=value), so an
  /// option's value is never misreported.  A typo'd flag must not silently
  /// run with the default it masked.
  [[nodiscard]] std::vector<std::string> flag_errors(const std::vector<FlagSpec>& known) const;
  /// flag_errors as an exit status: 1 after an "error:" line each on
  /// stderr, or 0.
  [[nodiscard]] int check_flags(const std::vector<FlagSpec>& known) const;

  /// Closest known flag to `flag` for a "did you mean" hint, or "" when
  /// nothing is plausibly close: more than 2 edits away, or more edits than
  /// half the typed name's length (without its dashes).
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

/// The RunSpec the command line gives on `surface`: the full-fidelity spec,
/// or RunSpec::quick() when `--quick` is passed or the environment variable
/// CKPTSIM_QUICK is set (used by CI), with the flag of each run_fields() row
/// that `surface` accepts applied (`--jobs` 0 = auto: CKPTSIM_JOBS, then the
/// hardware thread count; results are identical for any value).  A bad
/// value, a knob without its switch (check_run_rules) and the removed
/// `--scheduler` throw std::invalid_argument.
[[nodiscard]] RunSpec run_spec(const Cli& cli, RunSurface surface);
/// The flags run_spec reads on `surface` (`--quick`, and `--scheduler`, so
/// that naming it reaches run_spec's error), then `extra`.
[[nodiscard]] std::vector<FlagSpec> run_flag_specs(RunSurface surface,
                                                   std::initializer_list<FlagSpec> extra = {});
/// run_spec for the benches and examples, after the flag check against the
/// flags it reads and `extra`: bad flags throw std::invalid_argument, its
/// text a line each once the caller prints "error: " before it.
[[nodiscard]] RunSpec bench_spec(const Cli& cli, std::initializer_list<FlagSpec> extra = {});

/// Open `--journal FILE` into `*journal` (nothing without the flag) and say
/// how many completed `unit`s it holds.  False, after an "error:" line, when
/// the file is non-empty and `--resume` is absent: that protects against
/// silently mixing runs.
bool open_journal(const Cli& cli, const char* unit, std::optional<SweepJournal>* journal);

/// The observers a command line attaches to a run, owned for its length:
/// SIGINT cancels cooperatively (in-flight replications finish, completed
/// sweep points reach the journal, then the driver throws
/// SimError(kInterrupted); a second ^C restores the default handler for an
/// immediate kill), `--progress` prints a heartbeat to stderr, and
/// `--metrics-out FILE` collects run metrics for write_metrics().  The spec
/// points into the object, which can be neither copied nor moved.
class RunObservers {
 public:
  RunObservers(const Cli& cli, RunSpec* spec);
  /// Write the metrics to `--metrics-out` and say so; nothing without it.
  void write_metrics() const;

 private:
  obs::ProgressReporter progress_;
  std::optional<obs::Metrics> metrics_;
  std::string metrics_path_;
};

/// True when quick mode is active (flag or environment).
[[nodiscard]] bool quick_mode(const Cli& cli);

}  // namespace ckptsim::report
