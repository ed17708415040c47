#pragma once

// Shared harness for the figure-reproduction benches: each bench declares
// the paper figure's series (labels + parameter sets), the x-axis, and how
// x maps into Parameters; the harness simulates every point, prints the
// figure as a fixed-width table (one column per series, same rows/series as
// the paper), writes a CSV next to the binary, and echoes the paper's
// expected shape so the output is self-checking.

#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/fault.h"
#include "src/core/journal.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/parameters.h"
#include "src/report/cli.h"
#include "src/report/csv.h"
#include "src/report/table.h"

namespace figbench {

struct Series {
  std::string label;
  ckptsim::Parameters params;
};

enum class Metric { kTotalUsefulWork, kUsefulFraction };

struct FigureHarness {
  std::string figure_id;  ///< e.g. "fig4a" (also names the CSV)
  std::string title;      ///< the paper's figure caption
  std::string x_name;     ///< x-axis label
  Metric metric = Metric::kTotalUsefulWork;
  std::vector<double> xs;
  std::vector<Series> series;
  std::function<ckptsim::Parameters(ckptsim::Parameters, double)> apply;
  std::vector<std::string> paper_notes;  ///< the shape the paper reports

  /// Format the x value for display (override for e.g. minutes).
  std::function<std::string(double)> format_x =
      [](double x) { return ckptsim::report::Table::integer(x); };

  int run(int argc, const char* const* argv) const {
    try {
      return run_or_throw(argc, argv);
    } catch (const ckptsim::SimError& e) {
      if (e.code() == ckptsim::ErrorCode::kInterrupted) {
        std::cerr << e.what() << "\n";
        return 130;
      }
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  int run_or_throw(int argc, const char* const* argv) const {
    const ckptsim::report::Cli cli(argc, argv);
    // Only the flags read here and by bench_spec: a typo'd flag (--rep 3)
    // must not run the full-fidelity default it masked, and the figures
    // run the DES engine only, so --engine is unknown too.
    ckptsim::RunSpec spec = ckptsim::report::bench_spec(
        cli, {{"--journal", true}, {"--resume", false}, {"--progress", false},
              {"--metrics-out", true}});
    // Crash-safe sweeps (--journal FILE [--resume]): every completed point
    // is appended to an fsync'd JSONL journal; a killed run restarted with
    // --resume recomputes only the missing points and the final CSV is
    // bit-identical to an uninterrupted run.  One journal spans all series
    // of the figure (fingerprints disambiguate).
    std::optional<ckptsim::SweepJournal> journal;
    if (!ckptsim::report::open_journal(cli, "point", &journal)) return 2;
    // SIGINT, --progress and --metrics-out FILE: the metrics registry
    // accumulates across every series of the figure, so the JSON artifact
    // covers the whole sweep campaign, and a cancelled run exits 130.
    const ckptsim::report::RunObservers observers(cli, &spec);
    std::cout << "=== " << figure_id << ": " << title << " ===\n";
    std::cout << (ckptsim::report::quick_mode(cli) ? "[quick mode] " : "")
              << "replications=" << spec.replications << " horizon=" << spec.horizon / 3600.0
              << "h transient=" << spec.transient / 3600.0 << "h seed=" << spec.seed
              << " jobs=" << spec.exec.resolve() << "\n\n";

    std::vector<ckptsim::SweepSeries> results;
    results.reserve(series.size());
    for (const auto& s : series) {
      results.push_back(ckptsim::sweep(s.label, s.params, xs, apply, spec,
                                       ckptsim::EngineKind::kDes,
                                       journal.has_value() ? &*journal : nullptr));
    }

    std::vector<std::string> headers{x_name};
    for (const auto& s : series) headers.push_back(s.label);
    ckptsim::report::Table table(headers);
    const std::string csv_path = figure_id + ".csv";
    ckptsim::report::CsvWriter csv(csv_path,
                                   {"figure", "series", x_name, "useful_fraction",
                                    "ci_half_width", "total_useful_work"});
    for (std::size_t i = 0; i < xs.size(); ++i) {
      std::vector<std::string> row{format_x(xs[i])};
      for (const auto& r : results) {
        const auto& point = r.points[i];
        row.push_back(metric == Metric::kTotalUsefulWork
                          ? ckptsim::report::Table::integer(point.result.total_useful_work)
                          : ckptsim::report::Table::num(point.result.useful_fraction.mean, 4));
        csv.add_row({figure_id, r.label, format_x(xs[i]),
                     ckptsim::report::Table::num(point.result.useful_fraction.mean, 6),
                     ckptsim::report::Table::num(point.result.useful_fraction.half_width, 6),
                     ckptsim::report::Table::num(point.result.total_useful_work, 1)});
      }
      table.add_row(std::move(row));
    }
    std::cout << table.render();
    if (metric == Metric::kTotalUsefulWork) {
      std::cout << "\npeaks (argmax total useful work):\n";
      for (const auto& r : results) {
        const auto& best = r.argmax_total_useful_work();
        std::cout << "  " << r.label << ": " << x_name << " = " << format_x(best.x)
                  << "  (tuw = " << ckptsim::report::Table::integer(best.result.total_useful_work)
                  << ", fraction = "
                  << ckptsim::report::Table::num(best.result.useful_fraction.mean, 3) << ")\n";
      }
    }
    if (!paper_notes.empty()) {
      std::cout << "\npaper reports:\n";
      for (const auto& note : paper_notes) std::cout << "  - " << note << "\n";
    }
    csv.close();  // atomic publish (temp+rename); throws on write failure
    std::cout << "\nwrote " << csv_path << "\n";
    observers.write_metrics();
    std::cout << "\n";
    return 0;
  }
};

/// Minutes formatter for interval axes.
inline std::string minutes(double seconds) {
  return ckptsim::report::Table::integer(seconds / 60.0);
}

}  // namespace figbench
