#pragma once

#include <string>
#include <vector>

#include "src/core/durable_file.h"

namespace ckptsim::report {

/// Minimal CSV writer (RFC-4180 quoting) — each bench drops a CSV next to
/// its textual output so figures can be re-plotted externally.  The file is
/// published whole through a durable::Replacement: a crash mid-run never
/// leaves a torn CSV, and an existing file is only ever replaced by a
/// complete one.
class CsvWriter {
 public:
  /// Opens the temp file beside `path` and buffers the header row.  Throws
  /// std::runtime_error when the temp file cannot be created.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Rows must match the header width.
  void add_row(const std::vector<std::string>& cells);

  /// Publish: write the rows, fsync and rename over the target.  Throws
  /// std::runtime_error when a step fails (disk full, I/O error); the old
  /// file then stays.  The destructor publishes without throwing, so
  /// callers that care about the error call close() (the benches do).
  void close();

  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

 private:
  void write_row(const std::vector<std::string>& cells);
  static std::string escape(const std::string& cell);

  durable::Replacement file_;
  std::string text_;
  std::size_t columns_;
  bool closed_ = false;
};

}  // namespace ckptsim::report
