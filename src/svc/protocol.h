#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/core/optimizer.h"
#include "src/core/results.h"
#include "src/core/runner.h"
#include "src/model/parameters.h"
#include "src/obs/metrics.h"
#include "src/platform/interference.h"
#include "src/platform/job_mix.h"

namespace ckptsim::svc {

/// One decoded request line of the ckptsimd wire protocol.
///
/// The protocol is newline-delimited JSON: every request is one JSON object
/// on one line, every response is one JSON object on one line.  Grammar:
///
///   {"op": "ping"}
///   {"op": "stats"}
///   {"op": "shutdown"}
///   {"op": "cancel", "id": "<campaign>"}
///   {"op": "interference", "id": "<request>",
///    "jobs": "a:procs=65536;b:interval_min=15",  // job-mix spec (required)
///    "policy": "fair"|"fcfs"|"coop"|"stagger",   // optional [fair]
///    "pfs_mbs": 4096,               // optional shared-PFS MB/s; 0 = derive
///                                   //   from the first job's I/O subsystem
///    "params": { ... },             // optional; base every job inherits
///    "spec": { ... }}               // optional; run controls
///   {"op": "sweep",  "id": "<campaign>",
///    "axis": "interval" | "processors",
///    "values": [x, ...],            // optional; default = the paper's axis
///    "priority": 0..9,              // optional; higher runs first [0]
///    "label": "...",                // optional; default "sweep <axis>",
///                                   //   matching the CLI's journal labels
///    "engine": "des" | "san",       // optional [des]
///    "params": { ... },             // optional; see below
///    "spec": { ... }}               // optional; run controls
///   {"op": "optimize", "id": "<request>",
///    "lo_min": 15, "hi_min": 240,   // optional interval range [15, 240]
///    "grid": 9,                     // optional coarse grid points [9]
///    "refine": 10,                  // optional golden-section iters [10]
///    "processors": [n, ...],        // optional counts [params' processors]
///    "policies": ["none", ...],     // optional proactive policies to
///                                   //   compare [the params' policy]
///    "params": { ... },             // optional; base for every candidate
///    "spec": { ... }}               // optional; run controls
///
/// `params` keys (all optional; defaults = the paper's Table 3) are the keys
/// of the parameter table (src/model/parameter_table.h), the same keys,
/// units and defaults as ckptsim_cli's flags (see ckptsim_cli --help).
///
/// `spec` keys (all optional): reps, seed, horizon_hours, transient_hours,
/// confidence, rel_precision, min_replications, max_replications,
/// on_failure ("fail"|"retry"|"skip"), max_retries, max_events.  The removed
/// key `scheduler` gets its own error: every engine uses the binary heap.
///
/// Parsing is strict: an unknown key anywhere, a wrong type, or a value
/// that fails Parameters/RunSpec validation rejects the whole request —
/// a typo'd key must not silently simulate the default it masked.
struct Request {
  enum class Op { kPing, kStats, kShutdown, kCancel, kSweep, kInterference, kOptimize };

  Op op = Op::kPing;
  std::string id;          ///< campaign id (sweep: required; cancel: target)
  int priority = 0;        ///< 0..9, higher scheduled first (sweep only)
  std::string axis;        ///< "interval" | "processors" (sweep only)
  std::vector<double> values;  ///< swept x values (never empty after parse)
  std::string label;       ///< series label; defaulted to "sweep <axis>"
  Parameters params;       ///< full parameter set (defaults + overrides)
  RunSpec spec;            ///< run controls (observer/cancel fields unset)
  EngineKind engine = EngineKind::kDes;
  platform::JobMix mix;    ///< validated job mix (interference only)
  OptimizeSpec opt;        ///< search space (optimize only)
};

/// Parse one request line.  Returns false and fills `*error` with a
/// one-line description on any syntax, schema, or validation failure;
/// `*out` is fully populated (axis applied defaults, validated) on success.
[[nodiscard]] bool parse_request(std::string_view line, Request* out, std::string* error);

/// Parameters of one sweep point: `base` with `axis` set to `x`, exactly as
/// the CLI's --sweep mode applies it (interval in minutes, processors as a
/// count) — so service fingerprints match CLI journal fingerprints.  A
/// processors value that is not a count (parse_count) throws
/// std::invalid_argument.
[[nodiscard]] Parameters apply_axis(const std::string& axis, Parameters base, double x);

// --- Response lines (each returns one JSON object, no trailing newline) ---

/// {"type":"error",...} — malformed or failed request.
[[nodiscard]] std::string response_error(const std::string& id, const std::string& message);
/// {"type":"error","code":...,...} — failed request with a machine-readable
/// error code clients can branch on (e.g. "unknown_campaign" for a cancel
/// whose id names no active campaign — including one that already
/// completed; retired campaigns are indistinguishable from never-submitted
/// ids by design).  Plain response_error lines stay byte-identical.
[[nodiscard]] std::string response_error_code(const std::string& id, const std::string& code,
                                              const std::string& message);
/// {"type":"rejected",...} — admission control turned the campaign away.
[[nodiscard]] std::string response_rejected(const std::string& id, std::size_t queue_depth,
                                            std::size_t max_queue_depth);
/// {"type":"draining",...} — the daemon is draining for shutdown; new
/// campaigns are refused explicitly (distinct from queue-full backpressure,
/// which invites a retry against *this* process).
[[nodiscard]] std::string response_draining(const std::string& id);
/// {"type":"accepted",...} — campaign admitted; `cached` of `points` were
/// served from the result cache immediately.
[[nodiscard]] std::string response_accepted(const std::string& id, std::size_t points,
                                            std::size_t cached);
/// {"type":"point",...} — one finalized point, streamed as it completes.
/// `result` is the canonical write_run_result encoding, so a cached point's
/// line is byte-identical to the line its cold run produced.
[[nodiscard]] std::string response_point(const std::string& id, double x, bool cached,
                                         const RunResult& result);
/// {"type":"job",...} — one job of an interference run: useful-work
/// fraction (mean + CI half-width), mean dump stretch, windowed commit and
/// failure counts.  Streamed between "accepted" and "done", like "point".
[[nodiscard]] std::string response_job(const std::string& id,
                                       const platform::InterferenceJobResult& job);
/// {"type":"platform",...} — platform-level rewards of an interference run
/// (shared-PFS utilization and the policy that produced it).  One per run,
/// after the per-job lines.
[[nodiscard]] std::string response_platform(const std::string& id, const platform::JobMix& mix,
                                            const platform::InterferenceResult& result);
/// {"type":"candidate",...} — one evaluated optimizer candidate, streamed
/// as its simulation completes.  The searcher's order is deterministic, so
/// a repeated request produces byte-identical candidate lines.
[[nodiscard]] std::string response_candidate(const std::string& id,
                                             const OptimizeCandidate& c);
/// {"type":"optimum",...} — the optimizer's winning candidate, after the
/// candidate stream and before "done".
[[nodiscard]] std::string response_optimum(const std::string& id, const OptimumPolicy& best);
/// {"type":"done",...} — campaign complete (every point emitted).
[[nodiscard]] std::string response_done(const std::string& id, std::size_t points,
                                        std::size_t cached, std::size_t failed);
/// {"type":"cancelled",...} — campaign cancelled before completion.
[[nodiscard]] std::string response_cancelled(const std::string& id);
/// {"type":"pong"} — liveness probe reply.
[[nodiscard]] std::string response_pong();
/// {"type":"stats",...} — live service counters.
[[nodiscard]] std::string response_stats(const obs::ServiceSnapshot& s);
/// {"type":"bye"} — shutdown acknowledged; the daemon is stopping.
[[nodiscard]] std::string response_bye();

}  // namespace ckptsim::svc
