#include "src/obs/chrome_trace.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "src/core/durable_file.h"
#include "src/obs/json.h"

namespace ckptsim::obs {

namespace {

using trace::Event;
using trace::EventKind;

// Track (tid) layout of the exported trace: one row per protocol concern so
// overlapping phases (e.g. a failure during a dump) stay readable.
enum Track : int {
  kTrackProtocol = 1,
  kTrackApp = 2,
  kTrackFailures = 3,
  kTrackRecovery = 4,
  kTrackCorrelation = 5,
  kTrackPlatform = 6,
  kTrackProactive = 7,
};

constexpr const char* track_name(int tid) {
  switch (tid) {
    case kTrackProtocol: return "protocol";
    case kTrackApp: return "application";
    case kTrackFailures: return "failures";
    case kTrackRecovery: return "recovery";
    case kTrackCorrelation: return "correlation";
    case kTrackPlatform: return "platform-io";
    case kTrackProactive: return "proactive";
  }
  return "other";
}

struct PairDef {
  const char* name;
  EventKind open;
  EventKind close;
  bool abortable;  ///< kCkptAborted also closes this slot when in flight
  int tid;
};

// Slot order matters only for the abort cascade below.
constexpr std::array<PairDef, 9> kPairs{{
    {"checkpoint", EventKind::kCkptInitiated, EventKind::kCkptCommitted, true, kTrackProtocol},
    {"coordination", EventKind::kQuiesceStarted, EventKind::kCoordinationDone, true,
     kTrackProtocol},
    {"dump", EventKind::kDumpStarted, EventKind::kDumpDone, true, kTrackProtocol},
    {"recovery", EventKind::kRecoveryStage1, EventKind::kRecoveryDone, false, kTrackRecovery},
    {"reboot", EventKind::kRebootStarted, EventKind::kRebootDone, false, kTrackRecovery},
    {"prop_window", EventKind::kWindowOpened, EventKind::kWindowClosed, false,
     kTrackCorrelation},
    // Queued-vs-active PFS I/O of the interference workload: the span is
    // the *active* service window; kPfsRequestQueued stays an instant, so
    // queueing delay reads as the gap between the instant and its span.
    {"pfs_io", EventKind::kPfsServiceStarted, EventKind::kPfsServiceDone, false,
     kTrackPlatform},
    {"migration", EventKind::kMigrationStarted, EventKind::kMigrationDone, false,
     kTrackProactive},
    {"node_down", EventKind::kNodeShrink, EventKind::kNodeRepaired, false, kTrackProactive},
}};

constexpr int instant_tid(EventKind kind) {
  switch (kind) {
    case EventKind::kAppPhaseCompute:
    case EventKind::kAppPhaseIo:
      return kTrackApp;
    case EventKind::kComputeFailure:
    case EventKind::kIoFailure:
    case EventKind::kMasterFailure:
    case EventKind::kRollback:
      return kTrackFailures;
    case EventKind::kRecoveryStage2:
      return kTrackRecovery;
    case EventKind::kPfsRequestQueued:
      return kTrackPlatform;
    case EventKind::kFailurePredicted:
    case EventKind::kProactiveCkpt:
      return kTrackProactive;
    default:
      return kTrackProtocol;
  }
}

struct OpenSlot {
  bool active = false;
  double begin = 0.0;
};

constexpr double kMicro = 1e6;  // sim seconds -> trace microseconds

}  // namespace

std::vector<TraceSpan> derive_spans(const trace::EventLog& log) {
  std::vector<TraceSpan> spans;
  std::array<OpenSlot, kPairs.size()> open{};
  for (const Event& e : log.events()) {
    for (std::size_t s = 0; s < kPairs.size(); ++s) {
      const PairDef& def = kPairs[s];
      if (e.kind == def.open) {
        // A new open supersedes a stale in-flight one (cut short without its
        // normal close, e.g. a dump interrupted by a failure).
        open[s] = OpenSlot{true, e.time};
      } else if (e.kind == def.close) {
        if (open[s].active) {
          spans.push_back(TraceSpan{def.name, open[s].begin, e.time, false});
          open[s].active = false;
        }
        // else: the matching open was evicted from the bounded log — drop.
      }
    }
    if (e.kind == EventKind::kCkptAborted) {
      for (std::size_t s = 0; s < kPairs.size(); ++s) {
        if (kPairs[s].abortable && open[s].active) {
          spans.push_back(TraceSpan{kPairs[s].name, open[s].begin, e.time, true});
          open[s].active = false;
        }
      }
    }
  }
  // Spans still in flight at the end of the log are dropped.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) { return a.begin < b.begin; });
  return spans;
}

std::string to_chrome_trace_json(const trace::EventLog& log) {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();

  w.begin_object();
  w.kv("name", "process_name");
  w.kv("ph", "M");
  w.kv("pid", 1);
  w.kv("tid", 0);
  w.key("args");
  w.begin_object();
  w.kv("name", "ckptsim replication");
  w.end_object();
  w.end_object();
  for (const int tid : {kTrackProtocol, kTrackApp, kTrackFailures, kTrackRecovery,
                        kTrackCorrelation, kTrackPlatform, kTrackProactive}) {
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.kv("tid", tid);
    w.key("args");
    w.begin_object();
    w.kv("name", track_name(tid));
    w.end_object();
    w.end_object();
  }

  for (const TraceSpan& span : derive_spans(log)) {
    int tid = kTrackProtocol;
    for (const PairDef& def : kPairs) {
      if (def.name == span.name) tid = def.tid;
    }
    w.begin_object();
    w.kv("name", span.name);
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", tid);
    w.kv("ts", span.begin * kMicro);
    w.kv("dur", (span.end - span.begin) * kMicro);
    if (span.aborted) {
      w.key("args");
      w.begin_object();
      w.kv("aborted", true);
      w.end_object();
    }
    w.end_object();
  }

  // Events not consumed as span opens/closes become instants.
  for (const Event& e : log.events()) {
    bool paired = e.kind == EventKind::kCkptAborted;
    for (const PairDef& def : kPairs) {
      if (e.kind == def.open || e.kind == def.close) paired = true;
    }
    if (paired) continue;
    w.begin_object();
    w.kv("name", trace::to_string(e.kind));
    w.kv("ph", "i");
    w.kv("s", "t");
    w.kv("pid", 1);
    w.kv("tid", instant_tid(e.kind));
    w.kv("ts", e.time * kMicro);
    if (e.value != 0.0) {
      w.key("args");
      w.begin_object();
      w.kv("value", e.value);
      w.end_object();
    }
    w.end_object();
  }

  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return w.str();
}

void write_chrome_trace(const std::string& path, const trace::EventLog& log) {
  // Atomic publish: a crash mid-write never leaves a torn trace.
  durable::replace_file(path, to_chrome_trace_json(log) + '\n');
}

}  // namespace ckptsim::obs
