#include "src/svc/protocol.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/core/result_json.h"
#include "src/core/sweep.h"
#include "src/model/failure_trace.h"
#include "src/model/parameter_table.h"
#include "src/obs/json.h"
#include "src/obs/json_value.h"

namespace ckptsim::svc {

namespace {

/// Parse failure carrying the message parse_request returns.  Internal to
/// this translation unit: the public surface reports via (bool, *error),
/// the implementation keeps the dozens of "reject this" sites one-liners.
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& message) { throw ParseError(message); }

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
  try {
    return parse_count(v.scalar, "key '" + key + "'", max);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
}

bool require_bool(const obs::JsonValue& v, const std::string& key) {
  if (!v.is_bool()) fail("key '" + key + "' must be true or false");
  return v.boolean;
}

std::string require_string(const obs::JsonValue& v, const std::string& key) {
  if (!v.is_string()) fail("key '" + key + "' must be a string");
  return v.scalar;
}

/// Apply a "params" object onto the Table-3 defaults: one key per settable
/// row of the parameter table, in the CLI's units.
void apply_params(const obs::JsonValue& obj, Parameters* p) {
  for (const auto& [key, v] : obj.members) {
    const ParameterField* field = find_parameter_key(key);
    if (field == nullptr) fail("unknown params key '" + key + "'");
    const KeyKind kind = field->kind();
    std::string text = v.scalar;  // a number's own text
    if (kind == KeyKind::kFlag) {
      text = require_bool(v, key) ? "true" : "false";
    } else if (kind == KeyKind::kChoice || kind == KeyKind::kPath) {
      text = require_string(v, key);
    } else if (!v.is_number()) {
      fail("key '" + key + "' must be a number");
    }
    try {
      set_parameter(*field, text, "key '" + key + "'", p);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
  }
}

/// Apply a "spec" object onto the RunSpec defaults.  Only the knobs a
/// remote client may set: observers, cancel, exec and snapshots stay under
/// the server's control (they never enter fingerprints, so the cache is
/// oblivious either way).
void apply_spec(const obs::JsonValue& obj, RunSpec* spec) {
  for (const auto& [key, v] : obj.members) {
    if (key == "reps") {
      spec->replications = require_count(v, key);
    } else if (key == "seed") {
      spec->seed = require_count(v, key);
    } else if (key == "horizon_hours") {
      spec->horizon = require_number(v, key) * 3600.0;
    } else if (key == "transient_hours") {
      spec->transient = require_number(v, key) * 3600.0;
    } else if (key == "confidence") {
      spec->confidence_level = require_number(v, key);
    } else if (key == "rel_precision") {
      spec->sequential.rel_precision = require_number(v, key);
    } else if (key == "min_replications") {
      spec->sequential.min_replications = require_count(v, key);
    } else if (key == "max_replications") {
      spec->sequential.max_replications = require_count(v, key);
    } else if (key == "on_failure") {
      const std::string mode = require_string(v, key);
      if (mode == "fail") spec->on_failure.mode = FailurePolicy::Mode::kFailFast;
      else if (mode == "retry") spec->on_failure.mode = FailurePolicy::Mode::kRetry;
      else if (mode == "skip") spec->on_failure.mode = FailurePolicy::Mode::kSkip;
      else fail("unknown on_failure '" + mode + "' (fail|retry|skip)");
    } else if (key == "max_retries") {
      spec->on_failure.max_retries = require_count(v, key);
    } else if (key == "max_events") {
      spec->watchdog.max_events = require_count(v, key);
    } else if (key == "scheduler") {
      fail("spec key 'scheduler' was removed: every engine now uses the binary-heap event queue");
    } else {
      fail("unknown spec key '" + key + "'");
    }
  }
}

void parse_sweep(const obs::JsonValue& root, Request* out) {
  out->op = Request::Op::kSweep;
  for (const auto& [key, v] : root.members) {
    if (key == "op") {
      continue;
    } else if (key == "id") {
      out->id = require_string(v, key);
    } else if (key == "priority") {
      out->priority = static_cast<int>(require_count(v, key, 9));
    } else if (key == "axis") {
      out->axis = require_string(v, key);
    } else if (key == "values") {
      if (!v.is_array()) fail("key 'values' must be an array of numbers");
      for (const auto& item : v.items) out->values.push_back(require_number(item, "values[]"));
    } else if (key == "label") {
      out->label = require_string(v, key);
    } else if (key == "engine") {
      const std::string name = require_string(v, key);
      if (name == "des") out->engine = EngineKind::kDes;
      else if (name == "san") out->engine = EngineKind::kSan;
      else fail("unknown engine '" + name + "' (des|san)");
    } else if (key == "params") {
      if (!v.is_object()) fail("key 'params' must be an object");
      apply_params(v, &out->params);
    } else if (key == "spec") {
      if (!v.is_object()) fail("key 'spec' must be an object");
      apply_spec(v, &out->spec);
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (out->id.empty()) fail("sweep requires a non-empty 'id'");
  if (out->axis != "interval" && out->axis != "processors") {
    fail("sweep requires axis \"interval\" or \"processors\"");
  }
  if (out->values.empty()) {
    out->values = out->axis == "interval" ? figure4_interval_axis_minutes()
                                          : figure4_processor_axis();
  }
  if (out->label.empty()) out->label = "sweep " + out->axis;
  // Validate the whole campaign up front: a request that would blow up in a
  // worker thread is rejected at the socket instead.
  try {
    out->spec.validate();
    for (const double x : out->values) {
      validate_reactive_point(apply_axis(out->axis, out->params, x), "sweep");
    }
    // The trace's content keys the cache: an unreadable or malformed file
    // is answered here, not thrown on the connection thread.
    if (out->params.trace_driven()) (void)FailureTrace::load(out->params.failure_trace_path);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
}

void parse_interference(const obs::JsonValue& root, Request* out) {
  out->op = Request::Op::kInterference;
  std::string jobs_spec;
  std::string policy = "fair";
  double pfs_mbs = 0.0;
  for (const auto& [key, v] : root.members) {
    if (key == "op") {
      continue;
    } else if (key == "id") {
      out->id = require_string(v, key);
    } else if (key == "jobs") {
      jobs_spec = require_string(v, key);
    } else if (key == "policy") {
      policy = require_string(v, key);
    } else if (key == "pfs_mbs") {
      pfs_mbs = require_number(v, key);
      if (pfs_mbs < 0.0) fail("key 'pfs_mbs' must be >= 0 (0 = derive)");
    } else if (key == "params") {
      if (!v.is_object()) fail("key 'params' must be an object");
      apply_params(v, &out->params);
    } else if (key == "spec") {
      if (!v.is_object()) fail("key 'spec' must be an object");
      apply_spec(v, &out->spec);
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (out->id.empty()) fail("interference requires a non-empty 'id'");
  if (jobs_spec.empty()) fail("interference requires a non-empty 'jobs' mix spec");
  // Same up-front validation contract as sweep: a mix that would throw in
  // the handler is rejected at the socket with the parser's message.
  try {
    out->mix = platform::parse_job_mix(jobs_spec, out->params);
    if (!platform::pfs_policy_from_string(policy, &out->mix.pfs.policy)) {
      fail("unknown policy '" + policy + "' (fair|fcfs|coop|stagger)");
    }
    if (pfs_mbs > 0.0) out->mix.pfs.bandwidth = pfs_mbs * units::kMB;
    out->mix.validate();
    out->spec.validate();
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
}

void parse_optimize(const obs::JsonValue& root, Request* out) {
  out->op = Request::Op::kOptimize;
  for (const auto& [key, v] : root.members) {
    if (key == "op") {
      continue;
    } else if (key == "id") {
      out->id = require_string(v, key);
    } else if (key == "lo_min") {
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
        try {
          out->opt.policies.push_back(
              parse_proactive_policy(require_string(item, "policies[]")));
        } catch (const std::invalid_argument& e) {
          fail(e.what());
        }
      }
    } else if (key == "params") {
      if (!v.is_object()) fail("key 'params' must be an object");
      apply_params(v, &out->params);
    } else if (key == "spec") {
      if (!v.is_object()) fail("key 'spec' must be an object");
      apply_spec(v, &out->spec);
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (out->id.empty()) fail("optimize requires a non-empty 'id'");
  // Same up-front contract as sweep: validate the search space and every
  // (policy, interval-endpoint) combination the searcher will instantiate.
  try {
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
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
}

}  // namespace

Parameters apply_axis(const std::string& axis, Parameters base, double x) {
  if (axis == "interval") {
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
  } catch (const ParseError& e) {
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
