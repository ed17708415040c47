#pragma once

// Plan-recording stand-in for the repository's bench/fig_common.h.
//
// The benchmark compiles the real bench_fig*.cc sources with their main()
// renamed and this directory ahead of the repository root on the include
// path.  Each figure's main() then fills in a FigureHarness exactly as the
// paper-figure binaries do, and run() hands the finished plan to the
// benchmark instead of simulating it.  The fields and helpers mirror the
// real header; the includes match it too, because the figure sources rely
// on them transitively.

#include <atomic>
#include <csignal>
#include <cstdio>
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
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/report/cli.h"
#include "src/report/csv.h"
#include "src/report/table.h"

namespace figbench {

struct Series {
  std::string label;
  ckptsim::Parameters params;
};

enum class Metric { kTotalUsefulWork, kUsefulFraction };

struct FigureHarness;

/// Receives each plan run() is called with; set by the benchmark around
/// its call of a renamed figure main().
inline std::function<void(const FigureHarness&)>& plan_sink() {
  static std::function<void(const FigureHarness&)> sink;
  return sink;
}

struct FigureHarness {
  std::string figure_id;
  std::string title;
  std::string x_name;
  Metric metric = Metric::kTotalUsefulWork;
  std::vector<double> xs;
  std::vector<Series> series;
  std::function<ckptsim::Parameters(ckptsim::Parameters, double)> apply;
  std::vector<std::string> paper_notes;
  std::function<std::string(double)> format_x =
      [](double x) { return ckptsim::report::Table::integer(x); };

  int run(int /*argc*/, const char* const* /*argv*/) const {
    plan_sink()(*this);
    return 0;
  }
};

inline std::string minutes(double seconds) {
  return ckptsim::report::Table::integer(seconds / 60.0);
}

}  // namespace figbench
