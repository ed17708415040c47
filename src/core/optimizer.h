#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/model/parameters.h"

namespace ckptsim {

class SweepJournal;

/// One candidate evaluated during an optimisation scan.
struct EvaluatedPoint {
  double x = 0.0;  ///< processors or interval, depending on the scan
  double total_useful_work = 0.0;
  double useful_fraction = 0.0;
};

/// Result of the capacity-planning search (paper: "there is an optimum
/// number of processors for which total useful work is maximized").
struct OptimumProcessors {
  std::uint64_t processors = 0;    ///< argmax of total useful work
  double total_useful_work = 0.0;  ///< job units at the optimum
  double useful_fraction = 0.0;    ///< fraction at the optimum
  std::vector<EvaluatedPoint> evaluated;
};

/// Evaluate `candidates` (default: powers of two from 8K to 1M processors)
/// and return the one maximising total useful work.
[[nodiscard]] OptimumProcessors find_optimal_processors(
    const Parameters& base, const RunSpec& spec, std::vector<std::uint64_t> candidates = {},
    EngineKind engine = EngineKind::kDes);

/// Result of a checkpoint-interval scan (paper: "for any practical range
/// there is no optimal checkpoint interval").
struct IntervalScan {
  std::vector<EvaluatedPoint> evaluated;  ///< x = interval in seconds

  /// Interval with the maximum total useful work.
  [[nodiscard]] double best_interval() const;
  /// True when an *interior* candidate beats both endpoints by more than
  /// `relative_margin` — i.e. the scan found a practically meaningful
  /// optimum inside the range rather than a monotone trend.
  [[nodiscard]] bool has_interior_optimum(double relative_margin = 0.02) const;
};

/// Evaluate `intervals_seconds` (default: the paper's 15 min .. 4 h grid).
[[nodiscard]] IntervalScan scan_checkpoint_interval(
    const Parameters& base, const RunSpec& spec, std::vector<double> intervals_seconds = {},
    EngineKind engine = EngineKind::kDes);

/// Search space of the hybrid optimiser: a coarse interval grid per
/// (policy, processor-count) combination, followed by a golden-section
/// refinement inside the winning grid bracket.
struct OptimizeSpec {
  double interval_lo = 15.0 * units::kMinute;  ///< checkpoint-interval range
  double interval_hi = 4.0 * units::kHour;
  std::size_t grid = 9;          ///< coarse grid points across [lo, hi] (>= 3)
  std::size_t refine_iters = 10; ///< golden-section iterations in the bracket
  /// Processor counts to evaluate; empty = the base value only.
  std::vector<std::uint64_t> processor_candidates;
  /// Proactive policies to compare; empty = the base policy only.  Policies
  /// other than none require base.predictor_enabled (Parameters::validate).
  std::vector<ProactivePolicy> policies;

  /// Throws std::invalid_argument naming the first violated constraint.
  void validate() const;
};

/// One evaluated candidate of an optimisation run.
struct OptimizeCandidate {
  double interval = 0.0;  ///< checkpoint interval (seconds)
  ProactivePolicy policy = ProactivePolicy::kNone;
  std::uint64_t processors = 0;
  double total_useful_work = 0.0;
  double useful_fraction = 0.0;
  bool refined = false;  ///< evaluated by the golden-section stage
  bool cached = false;   ///< the journal held it, so nothing was simulated
  std::size_t replications = 0;  ///< replications simulated for it (skipped ones included)
};

/// Result of the hybrid search.  `evaluated` lists every candidate in
/// evaluation order — deterministic for a fixed (base, spec, opt), so a
/// repeated run is byte-identical.
struct OptimumPolicy {
  OptimizeCandidate best;
  std::vector<OptimizeCandidate> evaluated;

  [[nodiscard]] std::string describe() const;
};

/// Streaming hook: called once per candidate as its evaluation completes
/// (journal hits included), in deterministic order.
using OptimizeObserver = std::function<void(const OptimizeCandidate&)>;

/// Hybrid grid + golden-section search for the configuration maximising
/// total useful work, over checkpoint interval x proactive policy x
/// processor count.
///
/// Every candidate is simulated under the *same* spec.seed, so candidates
/// are CRN-paired: replication r of every configuration sees a
/// bit-identical true-failure trajectory, and reward differences are pure
/// policy/parameter effects.  Use spec.sequential (the PR-5 stopper) to
/// let cheap candidates stop early without breaking pairing — round
/// boundaries are a pure function of the observed rewards.
///
/// Per (policy, processors) combination: evaluate the coarse interval
/// grid, bracket the argmax with its grid neighbours, then run
/// `refine_iters` golden-section iterations inside the bracket.
/// Evaluations are memoised, and when `journal` is non-null every
/// completed candidate is a journaled point (label "optimize", fingerprint
/// = candidate parameters + spec + x = the interval) — a killed search
/// resumed with the same journal, or the daemon's optimize op on its
/// cache, recomputes only unfinished candidates and produces byte-identical
/// output.
[[nodiscard]] OptimumPolicy optimize(const Parameters& base, const RunSpec& spec,
                                     const OptimizeSpec& opt, SweepJournal* journal = nullptr,
                                     const OptimizeObserver& observer = nullptr);

/// Smallest master timeout whose checkpoint-abort probability is at most
/// `abort_probability`, from the max-of-exponentials quantile (Sec. 7.2's
/// "threshold value" above which performance is insensitive to the timeout).
[[nodiscard]] double recommended_timeout(const Parameters& params,
                                         double abort_probability = 0.01);

}  // namespace ckptsim
