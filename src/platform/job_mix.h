#pragma once

#include <string>
#include <vector>

#include "src/model/parameters.h"
#include "src/platform/pfs.h"

namespace ckptsim::platform {

/// One job of an interference mix: a full paper parameter set under a name.
/// The job's own I/O-path bandwidths still shape its dump size and local
/// timings; what the platform layer contends is the shared PFS bandwidth
/// in PfsSpec.
struct JobSpec {
  std::string name;
  Parameters params;
};

/// The shared parallel file system of the mix.
struct PfsSpec {
  /// Aggregate PFS bandwidth in bytes/s.  0 (the default) means "derive
  /// from the first job": io_nodes() * bw_io_to_fs, i.e. the uncontended
  /// single-application capacity.  Explicit values must be finite and > 0
  /// — JobMix::validate rejects degenerate configs loudly.
  double bandwidth = 0.0;
  PfsPolicy policy = PfsPolicy::kFairShare;
};

/// K jobs contending for one PFS.  The unit the interference driver,
/// CLI/daemon job-mix spec, and bench all construct.
struct JobMix {
  std::vector<JobSpec> jobs;
  PfsSpec pfs;

  /// The bandwidth simulations actually use: pfs.bandwidth, or the derived
  /// single-application capacity when it is 0.  validate() first.
  [[nodiscard]] double resolved_bandwidth() const;

  /// Throws std::invalid_argument naming the first violated constraint:
  /// at least one job, unique non-empty names, every job's Parameters
  /// valid, exponential failure law, no proactive policy, with K > 1 jobs
  /// no field off its default that the interference engine does not model
  /// (the interference engine's scope), and a finite positive resolved PFS
  /// bandwidth.
  void validate() const;

  /// Multi-line "name: key = value" dump for logs and bench headers.
  [[nodiscard]] std::string describe() const;

  /// K identical jobs ("job0".."job<K-1>") over `base` with the derived
  /// default bandwidth — the homogeneous mix tests and benches start from.
  [[nodiscard]] static JobMix uniform(std::size_t k, const Parameters& base, PfsPolicy policy);
};

/// Parse the CLI/daemon job-mix spec over a base parameter set:
///
///   "a:procs=65536,mttf_yr=1;b:procs=16384,interval_min=15,ckpt_mb=512"
///
/// Jobs are ';'-separated as "<name>:<key>=<value>,...".  Each job starts
/// from `base` and applies its overrides.  Keys are the parameter table's
/// (src/model/parameter_table.h; see ckptsim_cli --help), plus two older
/// spellings, procs and mttf_yr.  An empty override list ("a" or "a:") is
/// the base unchanged.  Unknown keys or malformed numbers throw
/// std::invalid_argument naming the offender — a typo must not silently
/// simulate the default it masked.  The returned mix carries the derived
/// default bandwidth and kFairShare; callers override `pfs` afterwards.
[[nodiscard]] JobMix parse_job_mix(const std::string& spec, const Parameters& base);

}  // namespace ckptsim::platform
