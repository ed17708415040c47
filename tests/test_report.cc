#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/report/atomic_file.h"
#include "src/report/cli.h"
#include "src/report/csv.h"
#include "src/report/table.h"

namespace {

using ckptsim::report::bench_spec;
using ckptsim::report::Cli;
using ckptsim::report::CsvWriter;
using ckptsim::report::quick_mode;
using ckptsim::report::Table;

TEST(TableTest, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Each rendered line has the same prefix width before 'value' column data.
  std::istringstream lines(out);
  std::string header, sep, row1;
  std::getline(lines, header);
  std::getline(lines, sep);
  std::getline(lines, row1);
  EXPECT_EQ(header.find("value"), row1.find("1"));
}

TEST(TableTest, Validation) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_EQ(t.rows(), 0u);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(0.5, 4), "0.5000");
  EXPECT_EQ(Table::integer(65536.4), "65536");
  EXPECT_EQ(Table::integer(-2.7), "-3");
}

TEST(CsvTest, WritesQuotedContent) {
  const std::string path = ::testing::TempDir() + "/ckptsim_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.add_row({"plain", "has,comma"});
    csv.add_row({"quote\"inside", "multi\nline"});
    EXPECT_THROW(csv.add_row({"wrong-width"}), std::invalid_argument);
  }
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  EXPECT_NE(text.find("a,b\n"), std::string::npos);
  EXPECT_NE(text.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(text.find("\"quote\"\"inside\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvTest, QuotesCarriageReturnCells) {
  // A bare \r inside an unquoted cell corrupts the row for RFC 4180 readers
  // (it reads as a line ending on some parsers).
  const std::string path = ::testing::TempDir() + "/ckptsim_cr.csv";
  {
    CsvWriter csv(path, {"a"});
    csv.add_row({"with\rreturn"});
    csv.add_row({"with\r\ncrlf"});
    csv.close();
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  EXPECT_NE(text.find("\"with\rreturn\""), std::string::npos);
  EXPECT_NE(text.find("\"with\r\ncrlf\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvTest, RejectsBadTargets) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), std::runtime_error);
  const std::string path = ::testing::TempDir() + "/ckptsim_empty.csv";
  EXPECT_THROW(CsvWriter(path, {}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(CsvTest, CloseReportsWriteFailure) {
  // /dev/full accepts the open but fails every flush with ENOSPC — the
  // canonical disk-full simulation.  Skip where it does not exist.
  std::ofstream probe("/dev/full");
  if (!probe.is_open()) GTEST_SKIP() << "/dev/full not available";
  probe.close();

  CsvWriter csv("/dev/full", {"a", "b"});
  const std::string big(256, 'x');
  for (int i = 0; i < 1000; ++i) csv.add_row({big, big});  // exceed the stream buffer
  EXPECT_FALSE(csv.ok());
  EXPECT_THROW(csv.close(), std::runtime_error);
}

TEST(CsvTest, CloseSucceedsAndIsOkOnHealthyStream) {
  const std::string path = ::testing::TempDir() + "/ckptsim_ok.csv";
  CsvWriter csv(path, {"a"});
  csv.add_row({"1"});
  EXPECT_TRUE(csv.ok());
  EXPECT_NO_THROW(csv.close());
  EXPECT_TRUE(csv.ok());
  std::remove(path.c_str());
}

TEST(CsvTest, AtomicModeWritesViaTempAndRename) {
  const std::string path = ::testing::TempDir() + "/ckptsim_atomic.csv";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  {
    CsvWriter csv(path, {"a", "b"}, CsvWriter::WriteMode::kAtomic);
    csv.add_row({"1", "2"});
    // Before close() the target must not exist — only the temp file does,
    // so a kill here never leaves a torn artifact under the final name.
    EXPECT_FALSE(std::ifstream(path).good());
    EXPECT_TRUE(std::ifstream(tmp).good());
    csv.close();
  }
  EXPECT_FALSE(std::ifstream(tmp).good());  // temp renamed away
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "a,b\n1,2\n");
  std::remove(path.c_str());
}

TEST(CsvTest, AtomicModePublishesFromDestructorToo) {
  const std::string path = ::testing::TempDir() + "/ckptsim_atomic_dtor.csv";
  std::remove(path.c_str());
  {
    CsvWriter csv(path, {"a"}, CsvWriter::WriteMode::kAtomic);
    csv.add_row({"1"});
    // no close(): destructor best-effort publish
  }
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "a\n1\n");
  std::remove(path.c_str());
}

TEST(CsvTest, AtomicModeRejectsUnwritableDirectoryEagerly) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}, CsvWriter::WriteMode::kAtomic),
               std::runtime_error);
}

TEST(AtomicFileTest, WritesContentAndLeavesNoTemp) {
  const std::string path = ::testing::TempDir() + "/ckptsim_atomic.txt";
  std::remove(path.c_str());
  ckptsim::report::write_file_atomic(path, "hello\n");
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "hello\n");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(AtomicFileTest, ReplacesExistingFileAtomically) {
  const std::string path = ::testing::TempDir() + "/ckptsim_atomic_replace.txt";
  ckptsim::report::write_file_atomic(path, "old");
  ckptsim::report::write_file_atomic(path, "new");
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "new");
  std::remove(path.c_str());
}

TEST(AtomicFileTest, FailureThrowsAndCleansUpTemp) {
  EXPECT_THROW(ckptsim::report::write_file_atomic("/nonexistent-dir/x.txt", "data"),
               std::runtime_error);
}

TEST(CliTest, FlagsAndValues) {
  const char* argv[] = {"prog", "--quick", "--seed", "7", "--name=bench", "--reps", "2"};
  const Cli cli(7, argv);
  EXPECT_TRUE(cli.has("--quick"));
  EXPECT_FALSE(cli.has("--verbose"));
  EXPECT_EQ(cli.value("--seed"), "7");
  EXPECT_EQ(cli.value("--name"), "bench");
  EXPECT_EQ(cli.value("--missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(cli.number("--reps", 5.0), 2.0);
  EXPECT_DOUBLE_EQ(cli.number("--absent", 5.0), 5.0);
}

TEST(CliTest, RejectsNonNumeric) {
  const char* argv[] = {"prog", "--seed", "abc"};
  const Cli cli(3, argv);
  EXPECT_THROW((void)cli.number("--seed", 1.0), std::invalid_argument);
  // Trailing junk is an error, not a prefix to read.
  const char* junk_argv[] = {"prog", "--reps", "2x", "--mttf-years", "2yr"};
  const Cli junk(5, junk_argv);
  EXPECT_THROW((void)junk.number("--mttf-years", 1.0), std::invalid_argument);
  EXPECT_THROW((void)bench_spec(junk), std::invalid_argument);
  // Counts are whole numbers, read exactly: no truncation, no wrap-around.
  for (const char* bad : {"2.7", "-8", "1e30"}) {
    const char* count_argv[] = {"prog", "--reps", bad};
    EXPECT_THROW((void)bench_spec(Cli(3, count_argv)), std::invalid_argument) << bad;
  }
  const char* exact_argv[] = {"prog", "--reps", "2e1", "--seed", "18446744073709551615"};
  const auto exact = bench_spec(Cli(5, exact_argv));
  EXPECT_EQ(exact.replications, 20u);
  EXPECT_EQ(exact.seed, 18446744073709551615ULL);
}

TEST(CliTest, BenchSpecQuickFlag) {
  const char* quick_argv[] = {"prog", "--quick"};
  const Cli quick(2, quick_argv);
  EXPECT_TRUE(quick_mode(quick));
  const auto qs = bench_spec(quick);
  const char* full_argv[] = {"prog"};
  const Cli full(1, full_argv);
  // The environment may force quick mode in CI, so only assert the
  // relationship when it does not.
  if (!quick_mode(full)) {
    const auto fs = bench_spec(full);
    EXPECT_LT(qs.horizon, fs.horizon);
  }
}

TEST(CliTest, UnknownFlagsDetected) {
  const std::vector<ckptsim::report::FlagSpec> known = {
      {"--quick", false}, {"--seed", true}, {"--journal", true}};
  {
    // Known flags, value-taking both as "--key value" and "--key=value":
    // nothing unknown, and the *values* are never misreported as stray.
    const char* argv[] = {"prog", "--quick", "--seed", "7", "--journal=j.jsonl"};
    const Cli cli(5, argv);
    EXPECT_TRUE(cli.unknown_flags(known).empty());
  }
  {
    // A typo'd flag and a stray positional token are both surfaced.
    const char* argv[] = {"prog", "--sed", "7", "--quick", "extra"};
    const Cli cli(5, argv);
    const auto unknown = cli.unknown_flags(known);
    // "--sed" is unknown, so "7" is not consumed as its value.
    ASSERT_EQ(unknown.size(), 3u);
    EXPECT_EQ(unknown[0], "--sed");
    EXPECT_EQ(unknown[1], "7");
    EXPECT_EQ(unknown[2], "extra");
  }
  {
    // =-form of an unknown flag reports the flag part only.
    const char* argv[] = {"prog", "--sead=9"};
    const Cli cli(2, argv);
    const auto unknown = cli.unknown_flags(known);
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "--sead");
  }
}

TEST(CliTest, SwitchWithValueIsReported) {
  // has() needs the exact token, so "--quick=1" would silently read as
  // absent: valued_switches() names it for the tool to reject.  given()
  // sees every spelling.
  const std::vector<ckptsim::report::FlagSpec> known = {
      {"--quick", false}, {"--seed", true}, {"--resume", false}};
  const char* argv[] = {"prog", "--quick=1", "--seed=7", "--resume"};
  const Cli cli(4, argv);
  EXPECT_FALSE(cli.has("--quick"));
  EXPECT_EQ(cli.valued_switches(known), std::vector<std::string>{"--quick"});
  EXPECT_TRUE(cli.given("--quick"));
  EXPECT_TRUE(cli.given("--seed"));
  EXPECT_TRUE(cli.given("--resume"));
  EXPECT_FALSE(cli.given("--see"));
}

TEST(CliTest, SuggestsNearMisses) {
  const std::vector<ckptsim::report::FlagSpec> known = {
      {"--processors", true}, {"--seed", true}, {"--quick", false}};
  EXPECT_EQ(Cli::suggest("--procesors", known), "--processors");
  EXPECT_EQ(Cli::suggest("--sead", known), "--seed");
  EXPECT_EQ(Cli::suggest("--quik", known), "--quick");
  // Nothing plausibly close: no hint rather than a misleading one.
  EXPECT_EQ(Cli::suggest("--frobnicate", known), "");
  EXPECT_EQ(Cli::suggest("positional", known), "");
}

TEST(CliTest, BenchSpecRejectsRemovedScheduler) {
  // Every engine uses the binary heap; naming a scheduler in any spelling
  // is an error that says so, not a silently ignored knob.
  for (const char* arg : {"--scheduler=heap", "--scheduler=calendar", "--scheduler="}) {
    const char* argv[] = {"prog", arg};
    try {
      (void)bench_spec(Cli(2, argv));
      ADD_FAILURE() << arg << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'--scheduler' was removed"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("binary-heap"), std::string::npos) << e.what();
    }
  }
  const char* spaced[] = {"prog", "--scheduler", "calendar"};
  EXPECT_THROW((void)bench_spec(Cli(3, spaced)), std::invalid_argument);
}

TEST(CliTest, BenchSpecOverrides) {
  const char* argv[] = {"prog", "--seed", "99", "--reps", "2", "--horizon-hours", "100"};
  const Cli cli(7, argv);
  const auto spec = bench_spec(cli);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.replications, 2u);
  EXPECT_DOUBLE_EQ(spec.horizon, 100.0 * 3600.0);
}

}  // namespace
