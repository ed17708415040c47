// Durable files (src/core/durable_file): the bytes every journal, ledger,
// snapshot, CSV and JSON writer puts on disk, the torn-tail rule the two
// JSON-lines logs (the sweep journal and the campaign ledger) share, and
// each durable write failing.  The byte pins hold the writers to the
// formats earlier builds wrote and read; the JsonLinesLog suite runs every
// damaged-file case against both logs.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/durable_file.h"
#include "src/core/fault.h"
#include "src/core/journal.h"
#include "src/core/results.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/metrics.h"
#include "src/report/csv.h"
#include "src/sim/rng.h"
#include "src/snapshot/file.h"
#include "src/snapshot/state_io.h"
#include "src/svc/ledger.h"
#include "src/trace/event_log.h"

namespace {

using ckptsim::ErrorCode;
using ckptsim::RunResult;
using ckptsim::SimError;
using ckptsim::SweepJournal;
using ckptsim::svc::CampaignLedger;

/// Scratch directory removed (recursively) at scope exit.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name)
      : path(std::string(::testing::TempDir()) + "ckptsim_durable_" + name + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const { return path + "/" + name; }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Lower-case hex of `bytes`, two digits a byte.
std::string hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out += kDigits[static_cast<unsigned char>(c) >> 4];
    out += kDigits[static_cast<unsigned char>(c) & 15];
  }
  return out;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// A fixed, non-trivial result: every section of the record carries data.
RunResult sample_result(int k, bool with_rounds) {
  RunResult r;
  r.useful_fraction.mean = 0.5 + 0.125 * k;
  r.useful_fraction.half_width = 0.01 / k;
  r.useful_fraction.level = 0.95;
  r.useful_fraction.samples = 4;
  for (int i = 1; i <= 4; ++i) {
    r.fraction_replicates.add(0.4 + 0.05 * i * k);
    r.gross_replicates.add(0.6 + 0.03 * i);
  }
  r.total_useful_work = 1024.0 * k + 1.0 / 3.0;
  r.mean_breakdown.executing = 0.7;
  r.mean_breakdown.checkpointing = 0.2;
  r.mean_breakdown.recovering = 0.075;
  r.mean_breakdown.rebooting = 0.025;
  r.totals.compute_failures = 11u * static_cast<unsigned>(k);
  r.totals.ckpt_committed = 97;
  r.totals.reboots = 2;
  r.replications = 4;
  if (with_rounds) r.rounds = {2, 1, 1};
  return r;
}

// --- Byte pins --------------------------------------------------------------

TEST(DurablePins, JournalBytesOfRecordAndRecordAll) {
  TempDir dir("journal_pin");
  const std::string path = dir.file("j.jsonl");
  {
    SweepJournal journal(path);
    journal.insert(0xABCDULL, 15.0, sample_result(1, false));
    journal.insert_all({SweepJournal::Entry{0x0123456789ABCDEFULL, 30.0, sample_result(2, true)},
                        SweepJournal::Entry{7, 45.5, RunResult{}}});
  }
  const std::string bytes = read_file(path);
  EXPECT_EQ(bytes.size(), 2901u) << bytes;
  EXPECT_EQ(ckptsim::sim::fnv1a64(bytes), 0xe27147fa4f6c8463ULL) << bytes;
}

TEST(DurablePins, LedgerBytesAfterAdmitAdmitRetire) {
  TempDir dir("ledger_pin");
  const std::string path = dir.file("l.jsonl");
  {
    CampaignLedger ledger(path);
    ledger.admit("a", R"({"op":"sweep","id":"a","values":[15,30]})");
    ledger.admit("b", R"({"op":"sweep","id":"b"})");
    ledger.retire("a");
  }
  EXPECT_EQ(read_file(path),
            R"({"schema": 1, "event": "admit", "id": "a", )"
            R"("request": "{\"op\":\"sweep\",\"id\":\"a\",\"values\":[15,30]}"})"
            "\n"
            R"({"schema": 1, "event": "admit", "id": "b", "request": "{\"op\":\"sweep\",\"id\":\"b\"}"})"
            "\n"
            R"({"schema": 1, "event": "retire", "id": "a"})"
            "\n");
}

TEST(DurablePins, SnapshotFileBytesOfAFixedPayload) {
  TempDir dir("snap_pin");
  const std::string path = dir.file("a.snap");
  ckptsim::snapshot::StateWriter w;
  w.str("run-context");
  w.u64(42);
  w.f64(1.0 / 3.0);
  w.b(true);
  ckptsim::snapshot::write_snapshot_file(path, ckptsim::snapshot::kKindDesModel, w.bytes());
  EXPECT_EQ(hex(read_file(path)),
            "636b7074736e6170"                                // "ckptsnap"
            "03000000"                                        // format version 3
            "01000000"                                        // kind: DES model
            "2400000000000000"                                // payload length 36
            "a8d5b5bc194494a1"                                // FNV-1a of the payload
            "0b0000000000000072756e2d636f6e74657874"          // "run-context"
            "2a00000000000000"                                // 42
            "555555555555d53f"                                // 1/3
            "01");                                            // true
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(DurablePins, CsvBytesWithQuotedCells) {
  TempDir dir("csv_pin");
  const std::string expected =
      "label,x,value\n"
      "plain,\"has,comma\",1.5\n"
      "\"quote\"\"inside\",\"multi\nline\",\"cr\rcell\"\n"
      ", spaced ,-0\n";
  const auto fill = [](ckptsim::report::CsvWriter& csv) {
    csv.add_row({"plain", "has,comma", "1.5"});
    csv.add_row({"quote\"inside", "multi\nline", "cr\rcell"});
    csv.add_row({"", " spaced ", "-0"});
  };
  {
    ckptsim::report::CsvWriter csv(dir.file("closed.csv"), {"label", "x", "value"});
    fill(csv);
    csv.close();
  }
  {
    // Destroyed without close(): the destructor publishes the same bytes.
    ckptsim::report::CsvWriter csv(dir.file("dropped.csv"), {"label", "x", "value"});
    fill(csv);
  }
  EXPECT_EQ(read_file(dir.file("closed.csv")), expected);
  EXPECT_EQ(read_file(dir.file("dropped.csv")), expected);
  EXPECT_FALSE(std::filesystem::exists(dir.file("closed.csv.tmp")));
  EXPECT_FALSE(std::filesystem::exists(dir.file("dropped.csv.tmp")));
}

TEST(DurablePins, MetricsAndChromeTraceFilesAreTheirJsonPlusNewline) {
  TempDir dir("json_pin");
  const ckptsim::obs::MetricsSnapshot snapshot;
  snapshot.write_json(dir.file("m.json"));
  EXPECT_EQ(read_file(dir.file("m.json")), snapshot.to_json() + "\n");
  const ckptsim::trace::EventLog log;
  ckptsim::obs::write_chrome_trace(dir.file("t.json"), log);
  EXPECT_EQ(read_file(dir.file("t.json")), ckptsim::obs::to_chrome_trace_json(log) + "\n");
  EXPECT_FALSE(std::filesystem::exists(dir.file("m.json.tmp")));
  EXPECT_FALSE(std::filesystem::exists(dir.file("t.json.tmp")));
}

// --- One suite for both JSON-lines logs -------------------------------------

/// One owner of a JSON-lines log, as the suite drives it.  Records are
/// numbered 1, 2, ...; `load` opens the file and returns the numbers of the
/// records it kept, in the owner's order.
struct LogOwner {
  std::string name;  ///< the word that starts the owner's messages
  std::string kept;  ///< what the torn-tail warning counts
  std::function<void(const std::string& path, int from, int to)> append;
  std::function<std::vector<int>(const std::string& path)> load;
};

std::string ledger_id(int k) {
  std::string id = "c";
  id += std::to_string(k);
  return id;
}

std::string ledger_request(int k) {
  std::string request = R"({"op":"sweep","id":")";
  request += ledger_id(k);
  request += R"(","values":[)";
  request += std::to_string(15 * k);
  request += "]}";
  return request;
}

LogOwner journal_owner() {
  return {"journal", "completed point(s)",
          [](const std::string& path, int from, int to) {
            SweepJournal journal(path);
            for (int k = from; k <= to; ++k) {
              journal.insert(static_cast<std::uint64_t>(k), 15.0 * k, sample_result(k, k == 2));
            }
          },
          [](const std::string& path) {
            const SweepJournal journal(path);
            std::vector<int> kept;
            for (int k = 1; k <= 9; ++k) {
              RunResult r;
              if (!journal.lookup(static_cast<std::uint64_t>(k), &r)) continue;
              EXPECT_EQ(r.total_useful_work, sample_result(k, k == 2).total_useful_work);
              kept.push_back(k);
            }
            EXPECT_EQ(journal.loaded(), kept.size());
            return kept;
          }};
}

LogOwner ledger_owner() {
  return {"ledger", "pending campaign(s)",
          [](const std::string& path, int from, int to) {
            CampaignLedger ledger(path);
            for (int k = from; k <= to; ++k) ledger.admit(ledger_id(k), ledger_request(k));
          },
          [](const std::string& path) {
            const CampaignLedger ledger(path);
            std::vector<int> kept;
            for (const auto& [id, request] : ledger.pending()) {
              const int k = std::stoi(id.substr(1));
              EXPECT_EQ(request, ledger_request(k));
              kept.push_back(k);
            }
            return kept;
          }};
}

void PrintTo(const LogOwner& owner, std::ostream* os) { *os << owner.name; }

class JsonLinesLog : public ::testing::TestWithParam<LogOwner> {
 protected:
  TempDir dir_{"log_" + GetParam().name};
  std::string path_ = dir_.file("log.jsonl");

  /// The owner's file holding records 1..n, as its own appends write it.
  [[nodiscard]] std::string records(int n) const {
    const std::string scratch = dir_.file("records_" + std::to_string(n) + ".jsonl");
    GetParam().append(scratch, 1, n);
    return read_file(scratch);
  }

  /// The warning an open prints when it drops line `line`, keeping `kept`.
  [[nodiscard]] std::string dropping(int line, int kept) const {
    return "ckptsim: " + GetParam().name + " '" + path_ + "': dropping corrupt trailing entry at line " +
           std::to_string(line) + " (crash artifact); " + std::to_string(kept) + " " +
           GetParam().kept + " kept\n";
  }

  /// Opens the log, which must throw SimError; returns it.
  [[nodiscard]] SimError open_error(const std::string& path) const {
    try {
      (void)GetParam().load(path);
    } catch (const SimError& e) {
      return e;
    }
    ADD_FAILURE() << "open of '" << path << "' did not throw";
    return SimError(ErrorCode::kModelError, "none");
  }
};

TEST_P(JsonLinesLog, TornLastRecordIsDroppedAndTruncatedAway) {
  const std::string two = records(2);
  const std::string three = records(3);
  // SIGKILL mid-append: the third record cut 10 bytes in, no newline.
  write_file(path_, three.substr(0, two.size() + 10));
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(GetParam().load(path_), (std::vector<int>{1, 2}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), dropping(3, 2));
  EXPECT_EQ(read_file(path_), two);
}

TEST_P(JsonLinesLog, MissingLastNewlineIsReTerminated) {
  const std::string three = records(3);
  write_file(path_, three.substr(0, three.size() - 1));
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(GetParam().load(path_), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(read_file(path_), three);
}

TEST_P(JsonLinesLog, CorruptInteriorLineIsFatal) {
  // Garbage *followed by* a valid record is real corruption, not a crash
  // artifact: an unparseable line is only droppable at the tail.
  const std::string two = records(2);
  const std::string damaged = two.substr(0, two.find('\n') + 1) + "this is not json\n" +
                              two.substr(two.find('\n') + 1);
  write_file(path_, damaged);
  const SimError e = open_error(path_);
  EXPECT_EQ(e.code(), ErrorCode::kJournalCorrupt);
  EXPECT_EQ(std::string(e.what()), "journal-corrupt: " + GetParam().name + " '" + path_ +
                                       "': unparseable entry at line 2");
  EXPECT_EQ(read_file(path_), damaged);
}

TEST_P(JsonLinesLog, CorruptNewlineTerminatedTailIsDropped) {
  // A crash can land the newline before the kill, so a terminated garbage
  // last line (trailing blank lines included) is still a crash artifact.
  const std::string two = records(2);
  write_file(path_, two + "this is not json\n\n");
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(GetParam().load(path_), (std::vector<int>{1, 2}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), dropping(3, 2));
  EXPECT_EQ(read_file(path_), two);
}

TEST_P(JsonLinesLog, SchemaBumpAnywhereIsAMismatch) {
  const std::string three = records(3);
  const std::size_t first_end = three.find('\n') + 1;
  const std::size_t second_end = three.find('\n', first_end) + 1;
  std::string bumped = three.substr(first_end, second_end - first_end);
  const std::size_t at = bumped.find("\"schema\": 1");
  ASSERT_NE(at, std::string::npos) << bumped;
  bumped.replace(at, 11, "\"schema\": 2");
  // As an interior line, and as the last line (truncation cannot turn a
  // schema-1 record into another version, so the tail gets no pass).
  for (const std::string& damaged : {three.substr(0, first_end) + bumped + three.substr(second_end),
                                     three.substr(0, first_end) + bumped}) {
    write_file(path_, damaged);
    const SimError e = open_error(path_);
    EXPECT_EQ(e.code(), ErrorCode::kJournalMismatch);
    EXPECT_EQ(std::string(e.what()), "journal-mismatch: " + GetParam().name + " '" + path_ +
                                         "': entry at line 2 has an unsupported schema version");
    EXPECT_EQ(read_file(path_), damaged);
  }
}

TEST_P(JsonLinesLog, UnopenablePathIsAnIoError) {
  const std::string path = "/nonexistent-dir/log.jsonl";
  const SimError e = open_error(path);
  EXPECT_EQ(e.code(), ErrorCode::kIoError);
  EXPECT_EQ(std::string(e.what()), "io-error: " + GetParam().name + " '" + path +
                                       "': open failed: No such file or directory");
}

TEST_P(JsonLinesLog, TruncationAtEveryByteOffsetOfLastRecordRecovers) {
  // Exhaustive crash simulation: a log killed mid-append can be cut at any
  // byte of its last record.  For every cut the open keeps every earlier
  // record, drops the torn tail (repairing the file), and leaves a log that
  // accepts a clean re-append.
  const std::string one = records(1);
  const std::string two = records(2);
  ASSERT_LT(one.size(), two.size());
  for (std::size_t cut = one.size(); cut < two.size(); ++cut) {
    write_file(path_, two.substr(0, cut));
    ::testing::internal::CaptureStderr();
    const std::vector<int> kept = GetParam().load(path_);
    const std::string warning = ::testing::internal::GetCapturedStderr();
    if (cut == two.size() - 1) {
      // Only the newline is missing: the record is complete and is kept,
      // and the open re-terminates its line.
      ASSERT_EQ(kept, (std::vector<int>{1, 2})) << "cut at byte " << cut;
      ASSERT_EQ(warning, "") << "cut at byte " << cut;
    } else {
      // A cut at the record's first byte leaves nothing to drop.
      ASSERT_EQ(kept, (std::vector<int>{1})) << "cut at byte " << cut;
      ASSERT_EQ(warning, cut == one.size() ? "" : dropping(2, 1)) << "cut at byte " << cut;
      ASSERT_EQ(read_file(path_), one) << "cut at byte " << cut;
      GetParam().append(path_, 2, 2);
    }
    // Either repair leaves a log a third open loads in full, cleanly.
    ASSERT_EQ(read_file(path_), two) << "cut at byte " << cut;
    ASSERT_EQ(GetParam().load(path_), (std::vector<int>{1, 2})) << "cut at byte " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Owners, JsonLinesLog, ::testing::Values(journal_owner(), ledger_owner()),
                         [](const ::testing::TestParamInfo<LogOwner>& info) {
                           return info.param.name;
                         });


// --- The durable-file operations --------------------------------------------

TEST(DurableFile, ReplaceWritesContentAndLeavesNoTemp) {
  TempDir dir("replace");
  const std::string path = dir.file("a.txt");
  ckptsim::durable::replace_file(path, "old");
  ckptsim::durable::replace_file(path, "hello\n");
  EXPECT_EQ(read_file(path), "hello\n");
  EXPECT_EQ(ckptsim::durable::read_file(path), "hello\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(DurableFile, UncommittedReplacementRemovesItsTempAndKeepsTheOldFile) {
  TempDir dir("uncommitted");
  const std::string path = dir.file("a.txt");
  ckptsim::durable::replace_file(path, "old");
  {
    ckptsim::durable::Replacement file(path);
    file.write("new");
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
  }
  EXPECT_EQ(read_file(path), "old");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(DurableFile, BadDirectoryFailsAtConstructionAndMissingFileFailsToRead) {
  EXPECT_THROW(ckptsim::durable::Replacement("/nonexistent-dir/x.txt"), std::runtime_error);
  EXPECT_THROW(ckptsim::durable::replace_file("/nonexistent-dir/x.txt", "data"),
               std::runtime_error);
  EXPECT_THROW((void)ckptsim::durable::read_file("/nonexistent-dir/x.txt"), std::runtime_error);
}

// --- Every durable write, failing -------------------------------------------
//
// Each case runs one write in a forked child whose files may not grow past
// a limit (RLIMIT_FSIZE, with SIGXFSZ ignored), so the write stops with
// EFBIG after a partial write.  The limit binds the child only.  The child
// exits 0 when the write threw its type and code and the owner kept what it
// held; other codes name the first check that failed.

int run_with_file_size_limit(rlim_t limit, const std::function<int()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const struct rlimit rl{limit, limit};
    int rc = 90;  // setrlimit failed
    if (::setrlimit(RLIMIT_FSIZE, &rl) == 0) {
      try {
        rc = body();
      } catch (...) {
        rc = 91;  // the write threw the wrong type
      }
    }
    ::_exit(rc);
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(DurableWriteFailure, JournalAppendThrowsIoErrorAndKeepsEveryEarlierEntry) {
  TempDir dir("journal_full");
  const std::string path = dir.file("j.jsonl");
  journal_owner().append(path, 1, 2);
  const std::string before = read_file(path);
  const int rc = run_with_file_size_limit(before.size() + 100, [&] {
    SweepJournal journal(path);
    try {
      journal.insert(3, 45.0, sample_result(3, false));
      return 1;
    } catch (const SimError& e) {
      if (e.code() != ErrorCode::kIoError) return 2;
    }
    RunResult r;
    if (!journal.lookup(1, &r) || !journal.lookup(2, &r) || journal.lookup(3, &r)) return 3;
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(read_file(path).size(), before.size() + 100);  // the partial line
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(journal_owner().load(path), (std::vector<int>{1, 2}));
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("dropping corrupt trailing entry at line 3"),
            std::string::npos);
  EXPECT_EQ(read_file(path), before);
}

TEST(DurableWriteFailure, LedgerAdmitThrowsIoErrorAndKeepsEveryEarlierCampaign) {
  TempDir dir("ledger_full");
  const std::string path = dir.file("l.jsonl");
  ledger_owner().append(path, 1, 2);
  const std::string before = read_file(path);
  const int rc = run_with_file_size_limit(before.size() + 20, [&] {
    CampaignLedger ledger(path);
    try {
      ledger.admit(ledger_id(3), ledger_request(3));
      return 1;
    } catch (const SimError& e) {
      if (e.code() != ErrorCode::kIoError) return 2;
    }
    const auto pending = ledger.pending();
    if (pending.size() != 2 || pending[0].first != "c1" || pending[1].first != "c2") return 3;
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(read_file(path).size(), before.size() + 20);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(ledger_owner().load(path), (std::vector<int>{1, 2}));
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("dropping corrupt trailing entry at line 3"),
            std::string::npos);
  EXPECT_EQ(read_file(path), before);
}

TEST(DurableWriteFailure, SnapshotWriteThrowsIoAndLeavesTheOldSnapshot) {
  TempDir dir("snap_full");
  const std::string path = dir.file("a.snap");
  ckptsim::snapshot::write_snapshot_file(path, ckptsim::snapshot::kKindDesModel, "old payload");
  const std::string before = read_file(path);
  const int rc = run_with_file_size_limit(before.size(), [&] {
    try {
      ckptsim::snapshot::write_snapshot_file(path, ckptsim::snapshot::kKindDesModel,
                                             std::string(4096, 'n'));
      return 1;
    } catch (const ckptsim::snapshot::SnapshotError& e) {
      return e.fault() == ckptsim::snapshot::SnapshotFault::kIo ? 0 : 2;
    }
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(read_file(path), before);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(DurableWriteFailure, CsvCloseThrowsAndLeavesTheOldFile) {
  TempDir dir("csv_full");
  const std::string path = dir.file("a.csv");
  {
    ckptsim::report::CsvWriter csv(path, {"a", "b"});
    csv.add_row({"1", "2"});
    csv.close();
  }
  const std::string before = read_file(path);
  const int rc = run_with_file_size_limit(64, [&] {
    ckptsim::report::CsvWriter csv(path, {"a", "b"});
    const std::string big(256, 'x');
    for (int i = 0; i < 16; ++i) csv.add_row({big, big});
    try {
      csv.close();
      return 1;
    } catch (const std::runtime_error&) {
      return 0;
    }
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(read_file(path), before);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
