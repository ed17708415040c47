#pragma once

#include <vector>

#include "bench/fig_common.h"
#include "src/report/cli.h"

namespace perfbench {

struct FigurePlan {
  figbench::FigureHarness fig;
};

/// Every figure plan of Figures 4a-8, as the bench_fig* sources define
/// them, with every point's parameters validated.
[[nodiscard]] std::vector<FigurePlan> build_plans();

/// `plan`: build and validate the plans, print "ready", exit.
int cmd_plan();

/// `figures`: run the figure workload (and, with --trace-dir, its traced
/// pass and replay).
int cmd_figures(const ckptsim::report::Cli& cli);

}  // namespace perfbench
