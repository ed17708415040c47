#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ckptsim {

/// One recorded failure: the node that failed and when, in seconds from
/// the start of the trace (= the start of every replication that replays
/// it).
struct TraceEvent {
  std::uint64_t node = 0;
  double time = 0.0;
};

/// Parsed failure log for trace-driven injection.
///
/// When Parameters::failure_trace_path is set, the independent
/// compute-failure renewal process replays the recorded timestamps instead
/// of sampling exponential/Weibull inter-arrivals — the same plug point
/// the stochastic processes use, so real failure logs flow through every
/// scenario (single application, interference job mixes, sweeps,
/// snapshots).  An exhausted trace injects nothing further.
///
/// Two formats, chosen by file extension:
///  * `.jsonl`: one `{"node": N, "time": T}` object per line (strict —
///    unknown keys rejected, like the service protocol);
///  * anything else: CSV `node,time` lines; one optional `node,time`
///    header is allowed.
///
/// Validation is strict and every violation throws std::invalid_argument
/// naming the offending line: non-finite or negative times, timestamps out
/// of order (equal timestamps are fine — two nodes can fail together),
/// malformed records, and a torn final line (missing terminating newline —
/// the signature of a truncated write) are all rejected.  Node ids are
/// range-checked against the topology by the consuming model (the trace
/// file itself does not know the node count): see validate_nodes().
class FailureTrace {
 public:
  /// Parse CSV text (`node,time` per line).
  [[nodiscard]] static FailureTrace parse_csv(std::string_view text);
  /// Parse JSONL text (`{"node":N,"time":T}` per line).
  [[nodiscard]] static FailureTrace parse_jsonl(std::string_view text);
  /// Read and parse `path`, dispatching on the `.jsonl` extension.
  [[nodiscard]] static FailureTrace load(const std::string& path);
  /// Process-wide cache of load(): replications of one run share a single
  /// parsed copy instead of re-reading the file.  Entries expire when the
  /// last user drops its reference, so a rewritten file is re-parsed by
  /// the next run.
  [[nodiscard]] static std::shared_ptr<const FailureTrace> shared(const std::string& path);

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept { return events_; }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  /// FNV-1a hash of the text this trace was parsed from: DES snapshots
  /// carry it, so a resume against a rewritten file is rejected.
  [[nodiscard]] std::uint64_t content_hash() const noexcept { return content_hash_; }

  /// Throws std::invalid_argument when any event names a node id >= `nodes`
  /// (`what` identifies the trace in the message, e.g. its path).
  void validate_nodes(std::uint64_t nodes, const std::string& what) const;

 private:
  std::vector<TraceEvent> events_;
  std::uint64_t content_hash_ = 0;
};

}  // namespace ckptsim
