#include "src/core/job.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/core/runner.h"
#include "src/model/des_model.h"
#include "src/sim/rng.h"

namespace ckptsim {

double JobResult::mean_efficiency(double work_hours) const {
  if (makespans.count() == 0) return 0.0;
  // E[W/T] approximated at the mean makespan (exact enough for reporting;
  // per-replication ratios are available through `makespans`).
  return work_hours / makespans.mean();
}

double JobResult::mean_slowdown(double work_hours) const {
  if (makespans.count() == 0) return std::numeric_limits<double>::infinity();
  return makespans.mean() / work_hours;
}

void JobSpec::validate() const {
  auto fail = [](const std::string& msg) { throw std::invalid_argument("JobSpec: " + msg); };
  if (!(work_hours > 0.0) || !std::isfinite(work_hours)) {
    fail("work_hours must be finite and > 0");
  }
  if (!(deadline_hours > 0.0)) fail("deadline_hours must be > 0");
  if (replications == 0) fail("need >= 1 replication");
  if (!(confidence_level > 0.0 && confidence_level < 1.0)) {
    fail("confidence_level must be in (0, 1)");
  }
}

JobResult run_job(const Parameters& params, const JobSpec& spec) {
  validate_reactive_point(params, "run_job");
  spec.validate();
  JobResult result;
  result.replications = spec.replications;
  for (std::size_t rep = 0; rep < spec.replications; ++rep) {
    const std::uint64_t rep_seed =
        sim::splitmix64(spec.seed ^ sim::splitmix64(0x10B5ULL + rep));
    DesModel model(params, rep_seed);
    const double makespan =
        model.run_until_work(spec.work_hours * 3600.0, spec.deadline_hours * 3600.0);
    if (std::isfinite(makespan)) {
      ++result.completed;
      result.makespans.add(makespan / 3600.0);
    }
  }
  result.makespan_ci = stats::mean_confidence(result.makespans, spec.confidence_level);
  return result;
}

}  // namespace ckptsim
