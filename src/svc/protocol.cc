#include "src/svc/protocol.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/core/result_json.h"
#include "src/core/run_table.h"
#include "src/core/sweep.h"
#include "src/model/failure_trace.h"
#include "src/model/parameter_table.h"
#include "src/obs/json.h"
#include "src/obs/json_value.h"

namespace ckptsim::svc {

namespace {

/// A request is rejected by throwing std::invalid_argument with the message
/// parse_request returns: the public surface reports via (bool, *error),
/// and every "reject this" site, here or in the table conversions and
/// validations it calls, stays a one-liner.
[[noreturn]] void fail(const std::string& message) { throw std::invalid_argument(message); }

double require_number(const obs::JsonValue& v, const std::string& key) {
  if (!v.is_number()) fail("key '" + key + "' must be a number");
  const double d = v.number();
  if (!std::isfinite(d)) fail("key '" + key + "' must be finite");
  return d;
}

/// A count key's value through the parameter table's count conversion,
/// read from the number's own text so "2e1" is 20 and 64-bit seeds keep
/// every bit.
std::uint64_t require_count(const obs::JsonValue& v, const std::string& key,
                            std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (!v.is_number()) fail("key '" + key + "' must be a number");
  return parse_count(v.scalar, "key '" + key + "'", max);
}

bool require_bool(const obs::JsonValue& v, const std::string& key) {
  if (!v.is_bool()) fail("key '" + key + "' must be true or false");
  return v.boolean;
}

std::string require_string(const obs::JsonValue& v, const std::string& key) {
  if (!v.is_string()) fail("key '" + key + "' must be a string");
  return v.scalar;
}

/// The text a table key's JSON value stands for: true | false for a flag,
/// the string of a choice or path, and a number's own text.
std::string key_text(const obs::JsonValue& v, KeyKind kind, const std::string& key) {
  if (kind == KeyKind::kFlag) return require_bool(v, key) ? "true" : "false";
  if (kind == KeyKind::kChoice || kind == KeyKind::kPath) return require_string(v, key);
  if (!v.is_number()) fail("key '" + key + "' must be a number");
  return v.scalar;
}

/// Apply a "params" object onto the Table-3 defaults: one key per settable
/// row of the parameter table, in the CLI's units.
void apply_params(const obs::JsonValue& obj, Parameters* p) {
  for (const auto& [key, v] : obj.members) {
    const ParameterField* field = find_parameter_key(key);
    if (field == nullptr) fail("unknown params key '" + key + "'");
    const std::string text = key_text(v, field->kind(), key);
    set_parameter(*field, text, "key '" + key + "'", p);
  }
}

/// Apply a "spec" object onto the RunSpec defaults: one key per run_fields()
/// row the protocol accepts, then the knob rules.  Observers, cancel, exec
/// and snapshots stay under the server's control (they never enter
/// fingerprints, so the cache is oblivious either way).
void apply_spec(const obs::JsonValue& obj, RunSpec* spec) {
  for (const auto& [key, v] : obj.members) {
    if (key == "scheduler") reject_removed_scheduler("spec key 'scheduler'");
    const RunField* field = find_run_key(key, kSpecKnob);
    if (field == nullptr) fail("unknown spec key '" + key + "'");
    field->set(*field, key_text(v, field->kind, key), "key '" + key + "'", spec);
  }
  check_run_rules(*spec, kSpecKnob,
                  [&obj](const RunField& f) { return obj.find(f.key) != nullptr; });
}

/// Fail when the request's "params" object sets a key that one of
/// `overriders` sets at every point the request runs.
void reject_overridden_params(const obs::JsonValue& root, unsigned overriders) {
  const obs::JsonValue* params = root.find("params");
  if (params == nullptr) return;
  reject_overridden_parameters(overriders, kSpecKnob, [params](const ParameterField& f) {
    return params->find(f.key) != nullptr;
  });
}

/// Read one of the keys every campaign op takes ("op", "id", "params",
/// "spec"); false when `key` is none of them.
bool read_common_key(const std::string& key, const obs::JsonValue& v, Request* out) {
  if (key == "id") {
    out->id = require_string(v, key);
  } else if (key == "params" || key == "spec") {
    if (!v.is_object()) fail("key '" + key + "' must be an object");
    if (key == "params") apply_params(v, &out->params);
    if (key == "spec") apply_spec(v, &out->spec);
  } else {
    return key == "op";
  }
  return true;
}

void parse_sweep(const obs::JsonValue& root, Request* out) {
  out->op = Request::Op::kSweep;
  for (const auto& [key, v] : root.members) {
    if (read_common_key(key, v, out)) continue;
    if (key == "priority") {
      out->priority = static_cast<int>(require_count(v, key, 9));
    } else if (key == "axis") {
      out->axis = require_string(v, key);
    } else if (key == "values") {
      if (!v.is_array()) fail("key 'values' must be an array of numbers");
      for (const auto& item : v.items) out->values.push_back(require_number(item, "values[]"));
    } else if (key == "label") {
      out->label = require_string(v, key);
    } else if (key == "engine") {
      out->engine =
          static_cast<EngineKind>(parse_choice(require_string(v, key), kEngines, "key 'engine'"));
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (out->id.empty()) fail("sweep requires a non-empty 'id'");
  const bool interval = parse_choice(out->axis, kSweepAxes, "key 'axis'") == 0;
  reject_overridden_params(root, interval ? kIntervalAxis : kProcessorsAxis);
  if (out->values.empty()) {
    out->values = interval ? figure4_interval_axis_minutes() : figure4_processor_axis();
  }
  if (out->label.empty()) out->label = "sweep " + out->axis;
  // Validate the whole campaign up front: a request that would blow up in a
  // worker thread is rejected at the socket instead.
  out->spec.validate();
  for (const double x : out->values) {
    validate_reactive_point(apply_axis(out->axis, out->params, x), "sweep");
  }
  // The trace's content keys the cache: an unreadable or malformed file
  // is answered here, not thrown on the connection thread.
  if (out->params.trace_driven()) (void)FailureTrace::load(out->params.failure_trace_path);
}

void parse_interference(const obs::JsonValue& root, Request* out) {
  out->op = Request::Op::kInterference;
  std::string jobs_spec;
  std::string policy = "fair";
  double pfs_mbs = 0.0;
  for (const auto& [key, v] : root.members) {
    if (read_common_key(key, v, out)) continue;
    if (key == "jobs") {
      jobs_spec = require_string(v, key);
    } else if (key == "policy") {
      policy = require_string(v, key);
    } else if (key == "pfs_mbs") {
      pfs_mbs = require_number(v, key);
      if (pfs_mbs < 0.0) fail("key 'pfs_mbs' must be >= 0 (0 = derive)");
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (out->id.empty()) fail("interference requires a non-empty 'id'");
  if (jobs_spec.empty()) fail("interference requires a non-empty 'jobs' mix spec");
  // Same up-front validation contract as sweep: a mix that would throw in
  // the handler is rejected at the socket with the parser's message.
  out->mix = platform::parse_job_mix(jobs_spec, out->params);
  out->mix.pfs.policy = static_cast<platform::PfsPolicy>(
      parse_choice(policy, platform::kPfsPolicies, "key 'policy'"));
  if (pfs_mbs > 0.0) out->mix.pfs.bandwidth = pfs_mbs * units::kMB;
  out->mix.validate();
  out->spec.validate();
}

void parse_optimize(const obs::JsonValue& root, Request* out) {
  out->op = Request::Op::kOptimize;
  for (const auto& [key, v] : root.members) {
    if (read_common_key(key, v, out)) continue;
    if (key == "lo_min") {
      out->opt.interval_lo = require_number(v, key) * units::kMinute;
    } else if (key == "hi_min") {
      out->opt.interval_hi = require_number(v, key) * units::kMinute;
    } else if (key == "grid") {
      out->opt.grid = require_count(v, key);
    } else if (key == "refine") {
      out->opt.refine_iters = require_count(v, key);
    } else if (key == "processors") {
      if (!v.is_array()) fail("key 'processors' must be an array of counts");
      for (const auto& item : v.items) {
        out->opt.processor_candidates.push_back(require_count(item, "processors[]"));
      }
    } else if (key == "policies") {
      if (!v.is_array()) fail("key 'policies' must be an array of policy names");
      for (const auto& item : v.items) {
        out->opt.policies.push_back(
            parse_proactive_policy(require_string(item, "policies[]")));
      }
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (out->id.empty()) fail("optimize requires a non-empty 'id'");
  // The search sets the interval of every candidate, and its processor
  // count and policy when it is given candidates for them.
  reject_overridden_params(root, kIntervalSearch |
                                     (out->opt.processor_candidates.empty() ? 0u : kProcessorList) |
                                     (out->opt.policies.empty() ? 0u : kPolicyList));
  // Same up-front contract as sweep: validate the search space and every
  // (policy, interval-endpoint) combination the searcher will instantiate.
  out->opt.validate();
  out->spec.validate();
  std::vector<ProactivePolicy> policies = out->opt.policies;
  if (policies.empty()) policies.push_back(out->params.proactive_policy);
  for (const ProactivePolicy policy : policies) {
    Parameters p = out->params;
    p.proactive_policy = policy;
    p.checkpoint_interval = out->opt.interval_lo;
    p.validate();
  }
}

}  // namespace

Parameters apply_axis(const std::string& axis, Parameters base, double x) {
  if (parse_choice(axis, kSweepAxes, "axis") == 0) {
    base.checkpoint_interval = x * units::kMinute;
  } else {
    char text[32];
    std::snprintf(text, sizeof text, "%.17g", x);
    base.num_processors = parse_count(text, "processors axis value");
  }
  return base;
}

bool parse_request(std::string_view line, Request* out, std::string* error) {
  *out = Request{};
  obs::JsonValue root;
  if (!obs::parse_json(line, &root) || !root.is_object()) {
    if (error != nullptr) *error = "request is not a JSON object";
    return false;
  }
  try {
    const obs::JsonValue* op = root.find("op");
    if (op == nullptr || !op->is_string()) fail("missing string key 'op'");
    const std::string& name = op->scalar;
    if (name == "sweep") {
      parse_sweep(root, out);
      return true;
    }
    if (name == "interference") {
      parse_interference(root, out);
      return true;
    }
    if (name == "optimize") {
      parse_optimize(root, out);
      return true;
    }
    // The simple ops take at most an 'id'; anything else is a typo.
    for (const auto& [key, v] : root.members) {
      if (key == "op") continue;
      if (key == "id") {
        out->id = require_string(v, key);
        continue;
      }
      fail("unknown key '" + key + "' for op '" + name + "'");
    }
    if (name == "ping") {
      out->op = Request::Op::kPing;
    } else if (name == "stats") {
      out->op = Request::Op::kStats;
    } else if (name == "shutdown") {
      out->op = Request::Op::kShutdown;
    } else if (name == "cancel") {
      out->op = Request::Op::kCancel;
      if (out->id.empty()) fail("cancel requires a non-empty 'id'");
    } else {
      fail("unknown op '" + name +
           "' (ping|stats|shutdown|cancel|sweep|interference|optimize)");
    }
    return true;
  } catch (const std::invalid_argument& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

namespace {

obs::JsonWriter begin_response(const char* type, const std::string& id) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("type", type);
  if (!id.empty()) w.kv("id", id);
  return w;
}

}  // namespace

std::string response_error(const std::string& id, const std::string& message) {
  obs::JsonWriter w = begin_response("error", id);
  w.kv("message", message);
  w.end_object();
  return w.str();
}

std::string response_error_code(const std::string& id, const std::string& code,
                                const std::string& message) {
  obs::JsonWriter w = begin_response("error", id);
  w.kv("code", code);
  w.kv("message", message);
  w.end_object();
  return w.str();
}

std::string response_rejected(const std::string& id, std::size_t queue_depth,
                              std::size_t max_queue_depth) {
  obs::JsonWriter w = begin_response("rejected", id);
  w.kv("queue_depth", static_cast<std::uint64_t>(queue_depth));
  w.kv("max_queue_depth", static_cast<std::uint64_t>(max_queue_depth));
  w.kv("message", std::string("queue full; retry after a campaign completes"));
  w.end_object();
  return w.str();
}

std::string response_draining(const std::string& id) {
  obs::JsonWriter w = begin_response("draining", id);
  w.kv("message",
       std::string("server is draining for shutdown; resubmit after it restarts"));
  w.end_object();
  return w.str();
}

std::string response_accepted(const std::string& id, std::size_t points, std::size_t cached) {
  obs::JsonWriter w = begin_response("accepted", id);
  w.kv("points", static_cast<std::uint64_t>(points));
  w.kv("cached", static_cast<std::uint64_t>(cached));
  w.end_object();
  return w.str();
}

std::string response_point(const std::string& id, double x, bool cached,
                           const RunResult& result) {
  obs::JsonWriter w = begin_response("point", id);
  w.kv("x", x);
  w.kv("cached", cached);
  w.key("result");
  write_run_result(w, result);
  w.end_object();
  return w.str();
}

std::string response_job(const std::string& id, const platform::InterferenceJobResult& job) {
  obs::JsonWriter w = begin_response("job", id);
  w.kv("name", job.name);
  w.kv("useful_fraction", job.useful_fraction.mean);
  w.kv("ci_half_width", job.useful_fraction.half_width);
  w.kv("dump_stretch", job.stretch_replicates.mean());
  w.kv("commits", job.commits);
  w.kv("failures", job.failures);
  w.end_object();
  return w.str();
}

std::string response_platform(const std::string& id, const platform::JobMix& mix,
                              const platform::InterferenceResult& result) {
  obs::JsonWriter w = begin_response("platform", id);
  w.kv("policy", std::string(to_string(mix.pfs.policy)));
  w.kv("pfs_bandwidth", mix.resolved_bandwidth());
  w.kv("pfs_utilization", result.pfs_utilization.mean());
  w.kv("replications", static_cast<std::uint64_t>(result.replications));
  w.end_object();
  return w.str();
}

std::string response_candidate(const std::string& id, const OptimizeCandidate& c) {
  obs::JsonWriter w = begin_response("candidate", id);
  w.kv("interval_min", c.interval / units::kMinute);
  w.kv("policy", std::string(to_string(c.policy)));
  w.kv("processors", c.processors);
  w.kv("total_useful_work", c.total_useful_work);
  w.kv("useful_fraction", c.useful_fraction);
  w.kv("refined", c.refined);
  w.end_object();
  return w.str();
}

std::string response_optimum(const std::string& id, const OptimumPolicy& best) {
  obs::JsonWriter w = begin_response("optimum", id);
  w.kv("interval_min", best.best.interval / units::kMinute);
  w.kv("policy", std::string(to_string(best.best.policy)));
  w.kv("processors", best.best.processors);
  w.kv("total_useful_work", best.best.total_useful_work);
  w.kv("useful_fraction", best.best.useful_fraction);
  w.kv("candidates", static_cast<std::uint64_t>(best.evaluated.size()));
  w.end_object();
  return w.str();
}

std::string response_done(const std::string& id, std::size_t points, std::size_t cached,
                          std::size_t failed) {
  obs::JsonWriter w = begin_response("done", id);
  w.kv("points", static_cast<std::uint64_t>(points));
  w.kv("cached", static_cast<std::uint64_t>(cached));
  w.kv("failed", static_cast<std::uint64_t>(failed));
  w.end_object();
  return w.str();
}

std::string response_cancelled(const std::string& id) {
  obs::JsonWriter w = begin_response("cancelled", id);
  w.end_object();
  return w.str();
}

std::string response_pong() {
  obs::JsonWriter w = begin_response("pong", "");
  w.end_object();
  return w.str();
}

std::string response_stats(const obs::ServiceSnapshot& s) {
  obs::JsonWriter w = begin_response("stats", "");
  w.kv("requests", s.requests);
  w.kv("accepted", s.accepted);
  w.kv("rejected", s.rejected);
  w.kv("errors", s.errors);
  w.kv("cancelled", s.cancelled);
  w.kv("cache_hits", s.cache_hits);
  w.kv("cache_misses", s.cache_misses);
  w.kv("points_completed", s.points_completed);
  w.kv("replications_run", s.replications_run);
  w.kv("queue_depth",
       static_cast<std::uint64_t>(s.queue_depth < 0 ? 0 : s.queue_depth));
  w.kv("uptime_seconds", s.uptime_seconds);
  w.kv("points_per_sec", s.points_per_sec);
  w.end_object();
  return w.str();
}

std::string response_bye() {
  obs::JsonWriter w = begin_response("bye", "");
  w.end_object();
  return w.str();
}

}  // namespace ckptsim::svc
