#include "src/core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <tuple>

#include "src/core/journal.h"
#include "src/proactive/run.h"
#include "src/sim/distributions.h"

namespace ckptsim {

OptimumProcessors find_optimal_processors(const Parameters& base, const RunSpec& spec,
                                          std::vector<std::uint64_t> candidates,
                                          EngineKind engine) {
  if (candidates.empty()) {
    for (std::uint64_t n = 8192; n <= 1048576; n *= 2) candidates.push_back(n);
  }
  OptimumProcessors best;
  for (const std::uint64_t n : candidates) {
    Parameters p = base;
    p.num_processors = n;
    const RunResult r = run_model(p, spec, engine);
    EvaluatedPoint point{static_cast<double>(n), r.total_useful_work, r.useful_fraction.mean};
    best.evaluated.push_back(point);
    if (point.total_useful_work > best.total_useful_work) {
      best.processors = n;
      best.total_useful_work = point.total_useful_work;
      best.useful_fraction = point.useful_fraction;
    }
  }
  if (best.processors == 0) throw std::invalid_argument("find_optimal_processors: no candidates");
  return best;
}

double IntervalScan::best_interval() const {
  if (evaluated.empty()) throw std::logic_error("IntervalScan: empty scan");
  return std::max_element(evaluated.begin(), evaluated.end(),
                          [](const auto& a, const auto& b) {
                            return a.total_useful_work < b.total_useful_work;
                          })
      ->x;
}

bool IntervalScan::has_interior_optimum(double relative_margin) const {
  if (evaluated.size() < 3) return false;
  const auto best = std::max_element(evaluated.begin(), evaluated.end(),
                                     [](const auto& a, const auto& b) {
                                       return a.total_useful_work < b.total_useful_work;
                                     });
  if (best == evaluated.begin() || best == evaluated.end() - 1) return false;
  const double ends = std::max(evaluated.front().total_useful_work,
                               evaluated.back().total_useful_work);
  return best->total_useful_work > ends * (1.0 + relative_margin);
}

IntervalScan scan_checkpoint_interval(const Parameters& base, const RunSpec& spec,
                                      std::vector<double> intervals_seconds, EngineKind engine) {
  if (intervals_seconds.empty()) {
    for (const double minutes : {15.0, 30.0, 60.0, 120.0, 240.0}) {
      intervals_seconds.push_back(minutes * units::kMinute);
    }
  }
  IntervalScan scan;
  for (const double interval : intervals_seconds) {
    Parameters p = base;
    p.checkpoint_interval = interval;
    const RunResult r = run_model(p, spec, engine);
    scan.evaluated.push_back(EvaluatedPoint{interval, r.total_useful_work,
                                            r.useful_fraction.mean});
  }
  return scan;
}

void OptimizeSpec::validate() const {
  if (!(std::isfinite(interval_lo) && interval_lo > 0.0)) {
    throw std::invalid_argument("OptimizeSpec: interval_lo must be finite and > 0");
  }
  if (!(std::isfinite(interval_hi) && interval_hi > interval_lo)) {
    throw std::invalid_argument("OptimizeSpec: interval_hi must be finite and > interval_lo");
  }
  if (grid < 3) throw std::invalid_argument("OptimizeSpec: grid must be >= 3");
  for (const std::uint64_t n : processor_candidates) {
    if (n == 0) throw std::invalid_argument("OptimizeSpec: processor candidates must be > 0");
  }
}

std::string OptimumPolicy::describe() const {
  char buf[224];
  std::snprintf(buf, sizeof buf,
                "optimum: interval %.6g min, policy %s, %llu processors -> "
                "total useful work %.6g (fraction %.4f), %zu candidates evaluated\n",
                best.interval / units::kMinute, to_string(best.policy),
                static_cast<unsigned long long>(best.processors), best.total_useful_work,
                best.useful_fraction, evaluated.size());
  return buf;
}

namespace {

/// Memoised, journal-backed candidate evaluator.  Keyed on the exact
/// (policy, processors, interval-bits) triple; fingerprints reuse the
/// sweep-journal identity (candidate parameters + spec + x = interval), so
/// resume-vs-fresh output is byte-identical.
class CandidateEvaluator {
 public:
  CandidateEvaluator(const Parameters& base, const RunSpec& spec, SweepJournal* journal,
                     OptimumPolicy& out, const OptimizeObserver& observer)
      : base_(base), spec_(spec), journal_(journal), out_(out), observer_(observer) {}

  double eval(ProactivePolicy policy, std::uint64_t processors, double interval,
              bool refined) {
    const Key key{static_cast<int>(policy), processors, interval};
    const auto hit = memo_.find(key);
    if (hit != memo_.end()) return hit->second;

    Parameters p = base_;
    p.proactive_policy = policy;
    p.num_processors = processors;
    p.checkpoint_interval = interval;

    RunResult r;
    OptimizeCandidate c;
    const std::uint64_t fp =
        journal_ != nullptr
            ? journal_fingerprint("optimize", p, spec_, EngineKind::kDes, interval)
            : 0;
    c.cached = journal_ != nullptr && journal_->lookup(fp, &r);
    if (!c.cached) {
      r = p.proactive_enabled() ? proactive::run_proactive(p, spec_).run
                                : run_model(p, spec_, EngineKind::kDes);
      if (journal_ != nullptr) journal_->insert(fp, interval, r);
      c.replications = r.replications + r.failures.skipped.size();
    }

    c.interval = interval;
    c.policy = policy;
    c.processors = processors;
    c.total_useful_work = r.total_useful_work;
    c.useful_fraction = r.useful_fraction.mean;
    c.refined = refined;
    out_.evaluated.push_back(c);
    if (observer_) observer_(c);
    if (out_.best.processors == 0 || c.total_useful_work > out_.best.total_useful_work) {
      out_.best = c;
    }
    memo_.emplace(key, c.total_useful_work);
    return c.total_useful_work;
  }

 private:
  using Key = std::tuple<int, std::uint64_t, double>;
  const Parameters& base_;
  const RunSpec& spec_;
  SweepJournal* journal_;
  OptimumPolicy& out_;
  const OptimizeObserver& observer_;
  std::map<Key, double> memo_;
};

}  // namespace

OptimumPolicy optimize(const Parameters& base, const RunSpec& spec, const OptimizeSpec& opt,
                       SweepJournal* journal, const OptimizeObserver& observer) {
  opt.validate();
  spec.validate();
  std::vector<std::uint64_t> procs = opt.processor_candidates;
  if (procs.empty()) procs.push_back(base.num_processors);
  std::vector<ProactivePolicy> policies = opt.policies;
  if (policies.empty()) policies.push_back(base.proactive_policy);

  OptimumPolicy out;
  CandidateEvaluator evaluator(base, spec, journal, out, observer);
  const double step =
      (opt.interval_hi - opt.interval_lo) / static_cast<double>(opt.grid - 1);

  for (const ProactivePolicy policy : policies) {
    for (const std::uint64_t n : procs) {
      // Stage 1: coarse grid across the interval range.
      std::size_t best_i = 0;
      double best_f = -1.0;
      std::vector<double> xs(opt.grid);
      for (std::size_t i = 0; i < opt.grid; ++i) {
        // Hit interval_hi exactly at the last point (no accumulation drift).
        xs[i] = i + 1 == opt.grid ? opt.interval_hi
                                  : opt.interval_lo + static_cast<double>(i) * step;
        const double f = evaluator.eval(policy, n, xs[i], false);
        if (f > best_f) {
          best_f = f;
          best_i = i;
        }
      }
      if (opt.refine_iters == 0) continue;

      // Stage 2: golden-section refinement inside the winning bracket
      // (the grid neighbours of the argmax; clamped at the range ends).
      double a = xs[best_i > 0 ? best_i - 1 : 0];
      double b = xs[best_i + 1 < opt.grid ? best_i + 1 : opt.grid - 1];
      if (!(b > a)) continue;
      constexpr double kInvPhi = 0.6180339887498949;  // (sqrt(5) - 1) / 2
      double c = b - (b - a) * kInvPhi;
      double d = a + (b - a) * kInvPhi;
      double fc = evaluator.eval(policy, n, c, true);
      double fd = evaluator.eval(policy, n, d, true);
      for (std::size_t it = 1; it < opt.refine_iters; ++it) {
        if (fc > fd) {
          b = d;
          d = c;
          fd = fc;
          c = b - (b - a) * kInvPhi;
          fc = evaluator.eval(policy, n, c, true);
        } else {
          a = c;
          c = d;
          fc = fd;
          d = a + (b - a) * kInvPhi;
          fd = evaluator.eval(policy, n, d, true);
        }
      }
    }
  }
  if (out.best.processors == 0) throw std::invalid_argument("optimize: nothing evaluated");
  return out;
}

double recommended_timeout(const Parameters& params, double abort_probability) {
  if (!(abort_probability > 0.0 && abort_probability < 1.0)) {
    throw std::invalid_argument("recommended_timeout: probability must be in (0, 1)");
  }
  const sim::MaxOfExponentials dist(params.num_processors, params.mttq);
  return dist.quantile(1.0 - abort_probability);
}

}  // namespace ckptsim
