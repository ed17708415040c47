// Pins the bytes behind every spelling of a Parameters field:
//  * the FNV-1a digest of parameters_field_string (the encoding that keys
//    sweep journals, the daemon's result cache and snapshot run contexts)
//    for the defaults and for each field perturbed alone;
//  * the Parameters that one sample value of every CLI flag, protocol key
//    and job-mix key produces.
// The constants were captured before the CLI, the protocol and job mixes
// moved onto one field table.  A changed constant means journals, caches or
// .snap files written earlier no longer resume, or a spelling changed
// meaning: fix the code, never the constant.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/journal.h"
#include "src/model/parameters.h"
#include "src/obs/json_value.h"
#include "src/platform/job_mix.h"
#include "src/sim/rng.h"
#include "src/svc/protocol.h"

namespace {

using ckptsim::CoordinationMode;
using ckptsim::FailureDistribution;
using ckptsim::Parameters;
using ckptsim::ProactivePolicy;

std::uint64_t digest(const Parameters& p) {
  return ckptsim::sim::fnv1a64(ckptsim::parameters_field_string(p));
}

void expect_pin(const std::string& name, std::uint64_t actual, std::uint64_t expected) {
  EXPECT_EQ(actual, expected) << name << ": got 0x" << std::hex << actual;
}

// ------------------------------------------------------ field encodings

struct FieldPin {
  const char* field;
  void (*perturb)(Parameters&);
  std::uint64_t expected;
};

// Each field moved off its default alone.  Proactive fields are perturbed
// with the predictor on and the trace path with a trace set, since the
// encoding omits both groups when they are inactive.
const FieldPin kFieldPins[] = {
    {"num_processors", [](Parameters& p) { p.num_processors = 131072; }, 0xaf30bd1e21ea6965ULL},
    {"processors_per_node", [](Parameters& p) { p.processors_per_node = 4; },
     0xef08799bb794f052ULL},
    {"compute_nodes_per_io_node", [](Parameters& p) { p.compute_nodes_per_io_node = 32; },
     0x74df908502f7c1ULL},
    {"mttf_node", [](Parameters& p) { p.mttf_node *= 2.5; }, 0xfeda716ef8ba2e2bULL},
    {"mttr_compute", [](Parameters& p) { p.mttr_compute = 750.0; }, 0x47bbad6cccb7a368ULL},
    {"mttr_io", [](Parameters& p) { p.mttr_io = 120.0; }, 0xf2cad9a33e44f567ULL},
    {"reboot_time", [](Parameters& p) { p.reboot_time = 1800.0; }, 0x299b3f3dc8dd1e16ULL},
    {"recovery_failure_threshold", [](Parameters& p) { p.recovery_failure_threshold = 7; },
     0x519dff8e70448522ULL},
    {"compute_failures_enabled", [](Parameters& p) { p.compute_failures_enabled = false; },
     0x285abe2a5c0c2dbULL},
    {"io_failures_enabled", [](Parameters& p) { p.io_failures_enabled = false; },
     0xbefb04854d3a9d8bULL},
    {"master_failures_enabled", [](Parameters& p) { p.master_failures_enabled = false; },
     0xe809e1d2ab6c6abbULL},
    {"failures_during_checkpointing",
     [](Parameters& p) { p.failures_during_checkpointing = false; }, 0x3c2e7781a568da67ULL},
    {"failures_during_recovery", [](Parameters& p) { p.failures_during_recovery = false; },
     0x392a26580d6b5e79ULL},
    {"failure_distribution",
     [](Parameters& p) { p.failure_distribution = FailureDistribution::kWeibull; },
     0xccc0a3063f74f6f3ULL},
    {"weibull_shape", [](Parameters& p) { p.weibull_shape = 1.3; }, 0x70c93700b1d33d7dULL},
    {"checkpoint_interval", [](Parameters& p) { p.checkpoint_interval = 2700.0; },
     0x578a3dd09032ee04ULL},
    {"mttq", [](Parameters& p) { p.mttq = 5.0; }, 0x74937ca90d408cbeULL},
    {"coordination", [](Parameters& p) { p.coordination = CoordinationMode::kFixedQuiesce; },
     0xb37ccc4b3978c5acULL},
    {"timeout", [](Parameters& p) { p.timeout = 50.0; }, 0x532c015e63055eadULL},
    {"broadcast_overhead", [](Parameters& p) { p.broadcast_overhead = 2e-3; },
     0x426de5fac2781223ULL},
    {"software_overhead", [](Parameters& p) { p.software_overhead = 5e-4; }, 0x1d6985db3dc1c00fULL},
    {"checkpoint_size_per_node", [](Parameters& p) { p.checkpoint_size_per_node = 512e6; },
     0x24b8f76764ccf011ULL},
    {"bw_compute_to_io", [](Parameters& p) { p.bw_compute_to_io = 700e6; }, 0x17118dd3781bfccbULL},
    {"bw_io_to_fs", [](Parameters& p) { p.bw_io_to_fs = 250e6; }, 0x4373e78fbfca6c1fULL},
    {"background_fs_write", [](Parameters& p) { p.background_fs_write = false; },
     0x99fdf061d6a3bcb5ULL},
    {"incremental_size_fraction", [](Parameters& p) { p.incremental_size_fraction = 0.5; },
     0x8abac2c8ccaa871cULL},
    {"full_checkpoint_period", [](Parameters& p) { p.full_checkpoint_period = 4; },
     0xe6bdc4a974bd5a67ULL},
    {"app_cycle_period", [](Parameters& p) { p.app_cycle_period = 240.0; }, 0xcdb5a50f115bdf23ULL},
    {"compute_fraction", [](Parameters& p) { p.compute_fraction = 0.9; }, 0x9c15ef32ed6e6038ULL},
    {"app_io_data_per_node", [](Parameters& p) { p.app_io_data_per_node = 20e6; },
     0x3a22023495e23da7ULL},
    {"app_io_enabled", [](Parameters& p) { p.app_io_enabled = false; }, 0x2165d42b8ea3a7c9ULL},
    {"prob_correlated", [](Parameters& p) { p.prob_correlated = 0.01; }, 0xc56030ffa34a3749ULL},
    {"correlated_factor", [](Parameters& p) { p.correlated_factor = 600.0; },
     0x5e7ddba63e9fc2acULL},
    {"correlated_window", [](Parameters& p) { p.correlated_window = 360.0; },
     0x4f958c18075de3a2ULL},
    {"generic_correlated_coefficient",
     [](Parameters& p) { p.generic_correlated_coefficient = 0.0025; }, 0xa37c0c422c7f74b8ULL},
    {"generic_correlated_smooth", [](Parameters& p) { p.generic_correlated_smooth = false; },
     0xa3fa213f3d62133fULL},
    {"proactive_policy",
     [](Parameters& p) {
       p.predictor_enabled = true;
       p.proactive_policy = ProactivePolicy::kMigrate;
     },
     0xfe443d07ac6b2e00ULL},
    {"predictor_enabled", [](Parameters& p) { p.predictor_enabled = true; }, 0x7346a9bbd6927136ULL},
    {"predictor_precision",
     [](Parameters& p) {
       p.predictor_enabled = true;
       p.predictor_precision = 0.9;
     },
     0x54849ff9413f5d61ULL},
    {"predictor_recall",
     [](Parameters& p) {
       p.predictor_enabled = true;
       p.predictor_recall = 0.7;
     },
     0xdc70979bd8393beaULL},
    {"predictor_lead_time",
     [](Parameters& p) {
       p.predictor_enabled = true;
       p.predictor_lead_time = 120.0;
     },
     0xefa11df7934ff1f2ULL},
    {"migration_time",
     [](Parameters& p) {
       p.predictor_enabled = true;
       p.migration_time = 45.0;
     },
     0x8e375c9e4d8640a2ULL},
    {"rescale_time",
     [](Parameters& p) {
       p.predictor_enabled = true;
       p.rescale_time = 90.0;
     },
     0x9b0afa3198ee6e01ULL},
    {"node_repair_time",
     [](Parameters& p) {
       p.predictor_enabled = true;
       p.node_repair_time = 7200.0;
     },
     0x24bc77d3d948d894ULL},
    {"failure_trace_path", [](Parameters& p) { p.failure_trace_path = "pin_b.csv"; },
     0x5f2b20da85ff6b1eULL},
};

TEST(ParameterPins, DefaultEncodingIsUnchanged) {
  expect_pin("Parameters{}", digest(Parameters{}), 0xa3fd993f3d6514feULL);
  Parameters trace;
  trace.failure_trace_path = "pin_a.csv";
  expect_pin("trace set", digest(trace), 0x89b5ec48f60d7271ULL);
}

TEST(ParameterPins, EveryFieldEncodingIsUnchanged) {
  ASSERT_EQ(std::size(kFieldPins), 45u);
  for (const FieldPin& pin : kFieldPins) {
    Parameters p;
    pin.perturb(p);
    expect_pin(pin.field, digest(p), pin.expected);
  }
}

// ------------------------------------------------------- protocol keys

struct KeyPin {
  const char* key;
  const char* json_value;
  std::uint64_t expected;
};

// One sample per "params" key.  Keys that only matter with the predictor on
// ride with "predictor_lead_s": 300 (its default value), which enables it.
const KeyPin kProtocolPins[] = {
    {"processors", "131072", 0xaf30bd1e21ea6965ULL},
    {"procs_per_node", "4", 0xef08799bb794f052ULL},
    {"nodes_per_io", "32", 0x74df908502f7c1ULL},
    {"mttf_years", "2.5", 0xfeda716ef8ba2e2bULL},
    {"mttr_min", "12.5", 0x47bbad6cccb7a368ULL},
    {"mttr_io_min", "2", 0xf2cad9a33e44f567ULL},
    {"interval_min", "45", 0x578a3dd09032ee04ULL},
    {"mttq", "5", 0x74937ca90d408cbeULL},
    {"timeout", "50", 0x532c015e63055eadULL},
    {"coordination", "\"fixed\"", 0xb37ccc4b3978c5acULL},
    {"compute_fraction", "0.9", 0x9c15ef32ed6e6038ULL},
    {"ckpt_mb", "512", 0x24b8f76764ccf011ULL},
    {"background_fs_write", "false", 0x99fdf061d6a3bcb5ULL},
    {"compute_failures", "false", 0x285abe2a5c0c2dbULL},
    {"io_failures", "false", 0xbefb04854d3a9d8bULL},
    {"master_failures", "false", 0xe809e1d2ab6c6abbULL},
    {"prob_correlated", "0.01", 0xc56030ffa34a3749ULL},
    {"correlated_factor", "600", 0x5e7ddba63e9fc2acULL},
    {"generic_alpha", "0.0025", 0xa37c0c422c7f74b8ULL},
    {"weibull_shape", "0.7", 0xccc0a3063f74f6f3ULL},
    {"incremental", "0.5", 0x8abac2c8ccaa871cULL},
    {"full_period", "4", 0xe6bdc4a974bd5a67ULL},
    {"app_io", "false", 0x2165d42b8ea3a7c9ULL},
    {"predictor_precision", "0.9", 0x54849ff9413f5d61ULL},
    {"predictor_recall", "0.7", 0xdc70979bd8393beaULL},
    {"predictor_lead_s", "120", 0xefa11df7934ff1f2ULL},
    {"proactive_policy", "\"malleable\"", 0xff999bebf89a5f3cULL},
    {"migration_cost_s", "45", 0x8e375c9e4d8640a2ULL},
    {"rescale_cost_s", "90", 0x9b0afa3198ee6e01ULL},
    {"node_repair_min", "120", 0x24bc77d3d948d894ULL},
    {"failure_trace", "\"ckptsim_pin_trace.csv\"", 0x315c94924489268dULL},
};

bool needs_predictor(const std::string& key) {
  return key == "migration_cost_s" || key == "rescale_cost_s" || key == "node_repair_min";
}

TEST(ParameterPins, EveryProtocolKeyKeepsItsMeaning) {
  for (const KeyPin& pin : kProtocolPins) {
    std::string params = "\"";
    params += pin.key;
    params += "\":";
    params += pin.json_value;
    if (needs_predictor(pin.key)) params += ",\"predictor_lead_s\":300";
    // The optimizer reads every key but the interval, which its search
    // sets; a processors sweep reads the interval (and refuses the
    // proactive keys).
    const std::string line =
        std::string(pin.key) == "interval_min"
            ? R"({"op":"sweep","id":"pin","axis":"processors","values":[8192],"params":{)" +
                  params + "}}"
            : R"({"op":"optimize","id":"pin","params":{)" + params + "}}";
    ckptsim::svc::Request req;
    std::string error;
    ASSERT_TRUE(ckptsim::svc::parse_request(line, &req, &error)) << line << ": " << error;
    expect_pin(pin.key, digest(req.params), pin.expected);
  }
}

// -------------------------------------------------------- job-mix keys

const KeyPin kMixPins[] = {
    {"procs", "16384", 0x7c7ce99fbd6f80dULL},
    {"procs_per_node", "4", 0xef08799bb794f052ULL},
    {"nodes_per_io", "32", 0x74df908502f7c1ULL},
    {"mttf_yr", "2.5", 0xfeda716ef8ba2e2bULL},
    {"mttr_min", "12.5", 0x47bbad6cccb7a368ULL},
    {"interval_min", "45", 0x578a3dd09032ee04ULL},
    {"ckpt_mb", "512", 0x24b8f76764ccf011ULL},
    {"mttq", "5", 0x74937ca90d408cbeULL},
    {"compute_fraction", "0.9", 0x9c15ef32ed6e6038ULL},
};

TEST(ParameterPins, EveryJobMixKeyKeepsItsMeaning) {
  for (const KeyPin& pin : kMixPins) {
    const std::string spec = "a:" + std::string(pin.key) + "=" + pin.json_value;
    const ckptsim::platform::JobMix mix = ckptsim::platform::parse_job_mix(spec, Parameters{});
    ASSERT_EQ(mix.jobs.size(), 1u);
    expect_pin(pin.key, digest(mix.jobs[0].params), pin.expected);
  }
}

// ----------------------------------------------------------- CLI flags

/// FNV-1a digest of the sorted journal fingerprints that one ckptsim_cli
/// run writes: each covers parameters_field_string of a point, so the
/// digest pins the Parameters the flags produced.  The run is a 3-candidate
/// optimize over a 2-hour horizon (the optimizer accepts proactive
/// parameters, which a sweep refuses); `mode` replaces it where a flag's
/// field is the optimizer's own axis.
std::uint64_t cli_digest(const std::vector<std::string>& flags,
                         const std::vector<std::string>& mode) {
  const std::string dir = ::testing::TempDir();
  const std::string journal = "ckptsim_pin_" + std::to_string(::getpid()) + ".jsonl";
  std::remove((dir + journal).c_str());
  std::string cmd = "cd '" + dir + "' && '" + std::string(CKPTSIM_CLI) +
                    "' --reps 1 --jobs 1 --horizon-hours 2 --transient-hours 0.5 --journal " +
                    journal;
  for (const std::string& arg : mode) cmd += " '" + arg + "'";
  for (const std::string& arg : flags) cmd += " '" + arg + "'";
  cmd += " > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::vector<std::string> fps;
  std::ifstream in(dir + journal);
  for (std::string line; std::getline(in, line);) {
    ckptsim::obs::JsonValue entry;
    if (!ckptsim::obs::parse_json(line, &entry)) continue;
    if (const ckptsim::obs::JsonValue* fp = entry.find("fp")) fps.push_back(fp->scalar);
  }
  std::remove((dir + journal).c_str());
  EXPECT_FALSE(fps.empty()) << cmd;
  std::sort(fps.begin(), fps.end());
  std::string joined;
  for (const std::string& fp : fps) joined += fp + ",";
  return ckptsim::sim::fnv1a64(joined);
}

struct FlagPin {
  std::vector<std::string> flags;
  std::uint64_t expected;
};

TEST(ParameterPins, EveryCliFlagKeepsItsMeaning) {
  {
    std::ofstream trace(::testing::TempDir() + "ckptsim_pin_trace.csv");
    trace << "node,time\n3,1800\n4100,5400\n";
  }
  const std::vector<std::string> optimize = {"--optimize", "--optimize-grid", "3",
                                             "--optimize-refine", "0"};
  const std::vector<std::string> processors_sweep = {"--sweep", "processors", "--sweep-values",
                                                     "65536"};
  const std::vector<FlagPin> pins = {
      {{}, 0x1c8b4c9e0f86827dULL},
      {{"--processors", "131072"}, 0x34deefaf732bec32ULL},
      {{"--procs-per-node", "4"}, 0x3bee82efe3dc223eULL},
      {{"--mttf-years", "2.5"}, 0x5cd2a58d2668a326ULL},
      {{"--mttr-min", "12.5"}, 0x70f8c5953e86024dULL},
      {{"--mttq", "5"}, 0x3ca50253db41f960ULL},
      {{"--timeout", "50"}, 0x4c8ac546d9e1e4aULL},
      {{"--coordination", "fixed"}, 0x4ba8697c680a097aULL},
      {{"--compute-fraction", "0.9"}, 0x9917ada0c5f481e3ULL},
      {{"--ckpt-mb", "512"}, 0x9f833a25616f7a66ULL},
      {{"--sync-write"}, 0x9d6cfd3c2d56f3f7ULL},
      {{"--no-failures"}, 0xc747cb026df44c3fULL},
      {{"--no-io-failures"}, 0x7dac0bd2a6478f19ULL},
      {{"--no-master-failures"}, 0x379c0482359c3d59ULL},
      {{"--prob-correlated", "0.01"}, 0xeba6be3654cf5c29ULL},
      {{"--correlated-factor", "600"}, 0x74bf34bd3e4ef7d1ULL},
      {{"--generic-alpha", "0.0025"}, 0xa46fa051424676ULL},
      {{"--weibull-shape", "0.7"}, 0x6ec2536631a7c2c2ULL},
      {{"--incremental", "0.5"}, 0x5ac2cc13fd02ee65ULL},
      {{"--full-period", "4"}, 0x3e56691955ee600dULL},
      {{"--predictor-precision", "0.9"}, 0x1bfb9b8f19d14944ULL},
      {{"--predictor-recall", "0.7"}, 0x31c1e72b016f0f8bULL},
      {{"--predictor-lead-s", "120"}, 0xfeabc0510be99988ULL},
      {{"--proactive-policy", "malleable"}, 0x2699e35664b52637ULL},
      {{"--migration-cost-s", "45", "--predictor-lead-s", "300"}, 0xc73dcca7ce222711ULL},
      {{"--rescale-cost-s", "90", "--predictor-lead-s", "300"}, 0x93caf4a4f95b6b67ULL},
      {{"--node-repair-min", "120", "--predictor-lead-s", "300"}, 0xd99fa3913d1019cbULL},
      {{"--failure-trace", "ckptsim_pin_trace.csv"}, 0x6373ebfef8a2d726ULL},
  };
  for (const FlagPin& pin : pins) {
    std::string name = "cli";
    for (const std::string& flag : pin.flags) name += " " + flag;
    expect_pin(name, cli_digest(pin.flags, optimize), pin.expected);
  }
  // The optimizer owns the interval, so --interval-min runs a one-point
  // processors sweep instead.
  expect_pin("cli --interval-min 45", cli_digest({"--interval-min", "45"}, processors_sweep),
             0xf54071d3c73f5b48ULL);
  std::remove((::testing::TempDir() + "ckptsim_pin_trace.csv").c_str());
}

}  // namespace
