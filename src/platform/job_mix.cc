#include "src/platform/job_mix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string_view>

#include "src/model/parameter_table.h"

namespace ckptsim::platform {

namespace {

[[noreturn]] void fail(const std::string& what) { throw std::invalid_argument("job mix: " + what); }

// The fields InterferenceModel reads.  A K > 1 job must leave every other
// field at its default: the engine would silently ignore it.
constexpr std::string_view kInterferenceFields[] = {
    "num_processors", "processors_per_node", "compute_nodes_per_io_node", "mttf_node",
    "mttr_compute", "checkpoint_interval", "mttq", "coordination", "broadcast_overhead",
    "software_overhead", "checkpoint_size_per_node", "bw_io_to_fs", "failure_trace_path"};

void reject_unmodelled_fields(const JobSpec& job) {
  for (const ParameterField& field : parameter_fields()) {
    std::string value, fallback;
    append_field_value(value, field, job.params);
    append_field_value(fallback, field, Parameters{});
    if (value != fallback && std::ranges::find(kInterferenceFields, field.name) ==
                                 std::end(kInterferenceFields)) {
      fail("job '" + job.name + "': the multi-job interference engine does not model '" +
           (field.key != nullptr ? field.key : field.name) + "'; leave it at its default");
    }
  }
}

}  // namespace

double JobMix::resolved_bandwidth() const {
  if (pfs.bandwidth != 0.0 || jobs.empty()) return pfs.bandwidth;
  const Parameters& p = jobs.front().params;
  return static_cast<double>(p.io_nodes()) * p.bw_io_to_fs;
}

void JobMix::validate() const {
  if (jobs.empty()) fail("at least one job is required");
  std::set<std::string> names;
  for (const JobSpec& job : jobs) {
    if (job.name.empty()) fail("job names must be non-empty");
    if (!names.insert(job.name).second) fail("duplicate job name '" + job.name + "'");
    try {
      job.params.validate();
    } catch (const std::invalid_argument& e) {
      fail("job '" + job.name + "': " + e.what());
    }
    if (job.params.failure_distribution != FailureDistribution::kExponential) {
      fail("job '" + job.name +
           "': the interference engine models exponential failures only");
    }
    if (job.params.proactive_enabled()) {
      fail("job '" + job.name +
           "': proactive fault tolerance is a single-application feature (run_proactive)");
    }
    if (jobs.size() > 1) reject_unmodelled_fields(job);
  }
  const double bw = resolved_bandwidth();
  if (!std::isfinite(bw) || bw <= 0.0) {
    fail("PFS bandwidth must be finite and > 0 (got " + std::to_string(bw) + ")");
  }
}

std::string JobMix::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "pfs: bandwidth = %.6g MB/s, policy = %s\n",
                resolved_bandwidth() / units::kMB, to_string(pfs.policy));
  std::string out = buf;
  for (const JobSpec& job : jobs) {
    std::snprintf(buf, sizeof buf,
                  "%s: procs = %llu, mttf = %.3g yr, interval = %.4g min, ckpt = %.4g MB/node\n",
                  job.name.c_str(), static_cast<unsigned long long>(job.params.num_processors),
                  job.params.mttf_node / units::kYear,
                  job.params.checkpoint_interval / units::kMinute,
                  job.params.checkpoint_size_per_node / units::kMB);
    out += buf;
  }
  return out;
}

JobMix JobMix::uniform(std::size_t k, const Parameters& base, PfsPolicy policy) {
  JobMix mix;
  mix.jobs.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    mix.jobs.push_back(JobSpec{"job" + std::to_string(j), base});
  }
  mix.pfs.policy = policy;
  return mix;
}

JobMix parse_job_mix(const std::string& spec, const Parameters& base) {
  JobMix mix;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t end = std::min(spec.find(';', pos), spec.size());
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) {
      if (pos > spec.size()) break;  // trailing ';' or empty spec
      fail("empty job entry (stray ';')");
    }
    const std::size_t colon = entry.find(':');
    JobSpec job;
    job.name = entry.substr(0, colon == std::string::npos ? entry.size() : colon);
    if (job.name.empty()) fail("job name is empty in entry '" + entry + "'");
    job.params = base;
    if (colon != std::string::npos && colon + 1 < entry.size()) {
      std::size_t kpos = colon + 1;
      while (kpos <= entry.size()) {
        const std::size_t kend = std::min(entry.find(',', kpos), entry.size());
        const std::string kv = entry.substr(kpos, kend - kpos);
        kpos = kend + 1;
        if (kv.empty()) fail("empty override in job '" + job.name + "'");
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size()) {
          fail("override '" + kv + "' in job '" + job.name + "' is not key=value");
        }
        const std::string key = kv.substr(0, eq);
        const ParameterField* field = find_parameter_key(key, /*mix_aliases=*/true);
        if (field == nullptr) {
          fail("unknown key '" + key + "' in job '" + job.name + "' (see ckptsim_cli --help)");
        }
        try {
          set_parameter(*field, kv.substr(eq + 1), "key '" + key + "'", &job.params);
        } catch (const std::invalid_argument& e) {
          fail("job '" + job.name + "': " + e.what());
        }
        if (kpos > entry.size()) break;
      }
    }
    mix.jobs.push_back(std::move(job));
    if (pos > spec.size()) break;
  }
  if (mix.jobs.empty()) fail("spec names no jobs");
  return mix;
}

}  // namespace ckptsim::platform
