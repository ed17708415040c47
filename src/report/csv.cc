#include "src/report/csv.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

namespace ckptsim::report {

CsvWriter::CsvWriter(const std::string& path, const std::vector<std::string>& header)
    : file_(path), columns_(header.size()) {
  if (header.empty()) throw std::invalid_argument("CsvWriter: empty header");
  write_row(header);
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  if (cells.size() != columns_) {
    throw std::invalid_argument("CsvWriter::add_row: column count mismatch");
  }
  write_row(cells);
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) text_ += ',';
    text_ += escape(cells[i]);
  }
  text_ += '\n';
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (const char c : cell) {
    quoted += c;
    if (c == '"') quoted += '"';
  }
  quoted += '"';
  return quoted;
}

void CsvWriter::close() {
  if (std::exchange(closed_, true)) return;
  file_.write(text_);
  file_.commit();
}

CsvWriter::~CsvWriter() {
  // Publish without throwing, as destructors must not: callers that need
  // the error call close() themselves.
  try {
    close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ckptsim: CSV not published: %s\n", e.what());
  }
}

}  // namespace ckptsim::report
