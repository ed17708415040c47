// ckptsimd — the ckptsim campaign daemon: a long-running service that
// accepts study/sweep requests as newline-delimited JSON, schedules them
// fairly across a shared worker pool, and memoizes every completed point in
// a crash-safe result cache (the same fsync'd JSONL journal the CLI's
// --journal writes, so the two interoperate).
//
//   $ ckptsimd --cache results.jsonl                # ephemeral port, printed
//   $ ckptsimd --port 7421 --jobs 8 --max-queue 4
//   $ echo '{"op":"sweep","id":"a","axis":"interval"}' | ckptsimd --once --cache c.jsonl
//
// Protocol: one JSON object per line in both directions; see
// src/svc/protocol.h for the grammar and DESIGN.md "Service layer" for the
// admission/backpressure and cache-key rules.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "src/core/fault.h"
#include "src/core/run_table.h"
#include "src/obs/metrics.h"
#include "src/report/cli.h"
#include "src/svc/daemon.h"
#include "src/svc/server.h"

namespace {

// SIGINT/SIGTERM request a clean shutdown: the accept loop notices the flag
// within its poll timeout, in-flight replications finish, the cache stays
// consistent (every completed point is already fsync'd), and the daemon
// exits 0.
std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

void print_help() {
  std::cout <<
      R"(ckptsimd — ckptsim campaign daemon (newline-delimited JSON over TCP)

  --port N        listen port on 127.0.0.1; 0 = ephemeral, printed [0]
  --cache FILE    result-cache journal (fsync'd JSONL, survives restarts,
                  interchangeable with ckptsim_cli --journal files) [none]
  --ledger FILE   campaign ledger (fsync'd JSONL beside the cache): admitted
                  campaigns are recorded before running and retired on
                  completion, so a restarted daemon re-admits whatever a
                  crash or drain left unfinished [none]
  --snapshot-every-events N  snapshot each in-flight replication's full
                  simulator state every N fired events into --snapshot-dir;
                  a restarted daemon resumes interrupted replications from
                  these snapshots, bit-identical to an uninterrupted run [0]
  --snapshot-dir DIR  directory for replication snapshots (created if
                  missing; required with --snapshot-every-events and an
                  error without it)
  --jobs N        simulation worker threads [auto: CKPTSIM_JOBS, hardware]
  --max-queue N   campaigns queued+running before requests are rejected [8]
  --metrics-out FILE  write the metrics JSON snapshot on shutdown
  --once          serve stdin -> stdout instead of TCP, exit at EOF
  --help          this text

SIGTERM/SIGINT drain gracefully: new sweeps get a "draining" response,
in-flight replications park at their next snapshot boundary, and pending
campaigns stay in the ledger for the next start.  kill -9 recovery relies
on the same files: everything admitted is re-admitted, completed points
come back from the cache, interrupted replications resume from snapshots.

Requests (one JSON object per line; see src/svc/protocol.h):
  {"op":"sweep","id":"c1","axis":"interval","values":[15,30],"priority":2,
   "params":{"processors":65536},"spec":{"reps":5,"seed":42}}
  {"op":"stats"}   {"op":"cancel","id":"c1"}   {"op":"ping"}   {"op":"shutdown"}
)";
}

constexpr ckptsim::report::FlagSpec kFlags[] = {
    {"--port", true},   {"--cache", true},       {"--jobs", true}, {"--max-queue", true},
    {"--ledger", true}, {"--snapshot-every-events", true},         {"--snapshot-dir", true},
    {"--metrics-out", true}, {"--once", false},  {"--help", false}, {"-h", false},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);
  if (const int rc = cli.check_flags({std::begin(kFlags), std::end(kFlags)}); rc != 0) return rc;
  if (cli.given("--help") || cli.given("-h")) {
    print_help();
    return 0;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    svc::ServerConfig config;
    config.workers = cli.count("--jobs", 0);
    config.max_queue_depth = cli.count("--max-queue", 8);
    config.cache_path = cli.value("--cache");
    config.ledger_path = cli.value("--ledger");
    config.snapshot_every_events = cli.count("--snapshot-every-events", 0);
    config.snapshot_dir = cli.value("--snapshot-dir");
    // The snapshot_dir row's rule; the server words the reverse one itself.
    if (config.snapshot_every_events == 0 && cli.given("--snapshot-dir")) {
      std::cerr << "error: " << find_run_key("snapshot_dir", kCliKnob)->cli_rule << "\n";
      return 1;
    }
    svc::CampaignServer server(config);
    if (server.cache().loaded() > 0) {
      std::cerr << "ckptsimd: cache '" << config.cache_path << "': " << server.cache().loaded()
                << " completed point(s) loaded\n";
    }
    // Crash/drain recovery: replay every campaign the ledger still holds.
    // The original clients are gone, so the recovered streams go to stderr;
    // every finalized point lands in the cache, where a re-submitted
    // campaign picks it up byte-identically.
    const std::size_t readmitted = server.readmit_pending([](const std::string& line) {
      std::string framed = "ckptsimd: recovered> " + line + "\n";
      std::fputs(framed.c_str(), stderr);
    });
    if (readmitted > 0) {
      // Machine-greppable banner (CI crash-recovery smoke test).
      std::cerr << "ckptsimd: re-admitted " << readmitted << " pending campaign(s)" << std::endl;
    }

    if (cli.given("--once")) {
      svc::serve_stream(server, stdin, stdout);
    } else {
      svc::TcpDaemon daemon(server, static_cast<std::uint16_t>(cli.count("--port", 0, 65535)));
      // Machine-greppable banner: the CI smoke test and the client script
      // read the resolved port from this line.
      std::cout << "ckptsimd listening on 127.0.0.1:" << daemon.port() << std::endl;
      daemon.run(g_stop);
    }
    server.stop();

    const std::string metrics_path = cli.value("--metrics-out");
    if (!metrics_path.empty()) {
      // Workers are joined, so reading the per-worker shards is safe.
      server.metrics().snapshot().write_json(metrics_path);
      std::cerr << "ckptsimd: wrote " << metrics_path << "\n";
    }
    return 0;
  } catch (const SimError& e) {
    std::cerr << "ckptsimd: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "ckptsimd: " << e.what() << "\n";
    return 1;
  }
}
