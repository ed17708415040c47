// The `figures` workload: every series of the paper's Figures 4a-8 through
// ckptsim::sweep, checked point by point against the committed CSVs, and
// its traced variant with a single-threaded replay of every replication.

#include "figures.h"

#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench/fig_common.h"
#include "src/obs/metrics.h"
#include "replay.h"
#include "src/sim/rng.h"
#include "trace.h"

#define PERFBENCH_FIGURES(X) \
  X(fig4a) X(fig4b) X(fig4c) X(fig4d) X(fig4e) X(fig4f) X(fig4g) X(fig4h) X(fig5) X(fig6) \
  X(fig7) X(fig8)

#define PERFBENCH_DECLARE(fig) int perfbench_plan_##fig(int, char**);
PERFBENCH_FIGURES(PERFBENCH_DECLARE)
#undef PERFBENCH_DECLARE

namespace perfbench {
namespace {

using ckptsim::report::Table;

struct SeriesRef {
  std::size_t figure = 0;
  std::size_t series = 0;
};

/// Split one CSV record, honouring the writer's double-quote escaping.
std::vector<std::string> csv_fields(const std::string& line) {
  std::vector<std::string> out(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        out.back() += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        out.back() += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

/// The CSV fields bench_fig* writes for one point.
std::vector<std::string> point_fields(const figbench::FigureHarness& fig,
                                      const std::string& label, double x,
                                      const ckptsim::RunResult& r) {
  return {fig.figure_id, label, fig.format_x(x), Table::num(r.useful_fraction.mean, 6),
          Table::num(r.useful_fraction.half_width, 6), Table::num(r.total_useful_work, 1)};
}

std::string key_of(const std::vector<std::string>& f) { return f[0] + "\x1f" + f[1] + "\x1f" + f[2]; }

/// Committed reference points: (figure, series, x) -> all six fields.
std::map<std::string, std::vector<std::string>> load_reference(const std::string& root,
                                                                const std::vector<FigurePlan>& plans) {
  std::map<std::string, std::vector<std::string>> ref;
  for (const FigurePlan& plan : plans) {
    const std::vector<std::string> lines = read_lines(root + "/" + plan.fig.figure_id + ".csv");
    for (std::size_t i = 1; i < lines.size(); ++i) {
      std::vector<std::string> f = csv_fields(lines[i]);
      if (f.size() != 6) throw std::runtime_error("malformed reference row: " + lines[i]);
      ref[key_of(f)] = std::move(f);
    }
  }
  return ref;
}

/// Series visiting order of one pass: a Fisher-Yates shuffle driven by
/// splitmix64, so the same seed gives the same order on every platform.
std::vector<SeriesRef> series_order(const std::vector<FigurePlan>& plans, std::uint64_t seed,
                                    std::size_t pass) {
  std::vector<SeriesRef> order;
  for (std::size_t f = 0; f < plans.size(); ++f) {
    for (std::size_t s = 0; s < plans[f].fig.series.size(); ++s) order.push_back({f, s});
  }
  std::uint64_t state = ckptsim::sim::splitmix64(seed ^ (0x9E37ULL + pass));
  for (std::size_t i = order.size(); i > 1; --i) {
    state = ckptsim::sim::splitmix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

ckptsim::RunSpec figure_spec(std::size_t jobs) {
  // The paper settings bench_fig* runs with when given no flags.
  ckptsim::RunSpec spec;
  spec.exec.jobs = jobs;
  return spec;
}

struct PassResult {
  double seconds = 0.0;  ///< all passes
  std::vector<double> pass_seconds;
  std::vector<double> series_ms;
  std::vector<std::size_t> series_ids;  ///< figure * 100 + series, per series_ms entry
  std::size_t points = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
  std::uint64_t replications = 0;
  /// Swept points of the last pass, (figure, series) -> results by x.
  std::map<std::pair<std::size_t, std::size_t>, ckptsim::SweepSeries> last;
};

PassResult run_passes(const std::vector<FigurePlan>& plans,
                      const std::map<std::string, std::vector<std::string>>& ref,
                      std::size_t passes, std::uint64_t seed, ckptsim::RunSpec spec,
                      Tracer* tracer) {
  PassResult out;
  std::uint64_t request = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const std::int64_t p0 = now_ns();
    for (const SeriesRef& ref_idx : series_order(plans, seed, pass)) {
      const figbench::FigureHarness& fig = plans[ref_idx.figure].fig;
      const figbench::Series& series = fig.series[ref_idx.series];
      out.points += fig.xs.size();
      const std::int64_t s0 = now_ns();
      try {
        const Scope span(tracer, "core.sweep", ++request);
        ckptsim::SweepSeries result =
            ckptsim::sweep(series.label, series.params, fig.xs, fig.apply, spec);
        for (const ckptsim::SweepPoint& p : result.points) {
          out.replications += p.result.replications;
          const std::vector<std::string> got = point_fields(fig, series.label, p.x, p.result);
          const auto it = ref.find(key_of(got));
          if (it == ref.end() || it->second != got) {
            if (++out.mismatches <= 5) {
              std::cerr << "figures: point differs from " << fig.figure_id << ".csv: "
                        << got[1] << " x=" << got[2] << " fraction=" << got[3]
                        << " half_width=" << got[4] << " tuw=" << got[5] << "\n";
            }
          }
        }
        if (pass + 1 == passes) out.last[{ref_idx.figure, ref_idx.series}] = std::move(result);
      } catch (const std::exception& e) {
        std::cerr << "figures: " << fig.figure_id << " '" << series.label << "': " << e.what()
                  << "\n";
        out.failed += fig.xs.size();
      }
      out.series_ms.push_back(static_cast<double>(now_ns() - s0) * 1e-6);
      out.series_ids.push_back(ref_idx.figure * 100 + ref_idx.series);
    }
    out.pass_seconds.push_back(static_cast<double>(now_ns() - p0) * 1e-9);
  }
  out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One pass with every series at its median: the sum over series of the
/// median, over passes, of its sweep() time.  On a shared host a stall
/// lands on single series, and this drops it where the median pass keeps it.
double series_median_seconds(const PassResult& r) {
  std::map<std::size_t, std::vector<double>> by_series;
  for (std::size_t i = 0; i < r.series_ms.size(); ++i) {
    by_series[r.series_ids[i]].push_back(r.series_ms[i]);
  }
  double ms = 0.0;
  for (const auto& [id, times] : by_series) ms += median(times);
  return ms * 1e-3;
}

std::size_t series_count(const std::vector<FigurePlan>& plans) {
  std::size_t n = 0;
  for (const FigurePlan& p : plans) n += p.fig.series.size();
  return n;
}

void print_pass(const PassResult& r, std::size_t series) {
  std::ostringstream s;
  s.precision(17);
  s << "{\"time_to_solution_s\":" << series_median_seconds(r) << ",\"points\":" << r.points
    << ",\"failed\":" << r.failed << ",\"mismatches\":" << r.mismatches
    << ",\"replications\":" << r.replications << ",\"series\":" << series
    << ",\"peak_rss_kb\":" << peak_rss_kb() << ",\"series_ms\":[";
  for (std::size_t i = 0; i < r.series_ms.size(); ++i) s << (i ? "," : "") << r.series_ms[i];
  s << "],\"pass_seconds\":[";
  for (std::size_t i = 0; i < r.pass_seconds.size(); ++i) s << (i ? "," : "") << r.pass_seconds[i];
  s << "]}";
  std::cout << s.str() << std::endl;
}

}  // namespace

std::vector<FigurePlan> build_plans() {
  std::vector<FigurePlan> plans;
  figbench::plan_sink() = [&plans](const figbench::FigureHarness& fig) {
    plans.push_back(FigurePlan{fig});
  };
  // The figure mains print closed-form overlays after run(); keep them off
  // the benchmark's stdout.
  std::ostringstream discard;
  std::streambuf* saved = std::cout.rdbuf(discard.rdbuf());
  char name[] = "perfbench";
  char* argv[] = {name, nullptr};
#define PERFBENCH_CALL(fig) perfbench_plan_##fig(1, argv);
  PERFBENCH_FIGURES(PERFBENCH_CALL)
#undef PERFBENCH_CALL
  std::cout.rdbuf(saved);
  figbench::plan_sink() = nullptr;
  // Validate every point exactly as sweep() will.
  figure_spec(1).validate();
  for (const FigurePlan& plan : plans) {
    for (const figbench::Series& s : plan.fig.series) {
      for (const double x : plan.fig.xs) plan.fig.apply(s.params, x).validate();
    }
  }
  return plans;
}

int cmd_plan() {
  const std::vector<FigurePlan> plans = build_plans();
  std::cout << "ready " << plans.size() << " " << series_count(plans) << std::endl;
  return 0;
}

int cmd_figures(const ckptsim::report::Cli& cli) {
  const std::vector<FigurePlan> plans = build_plans();
  const auto ref = load_reference(cli.value("--root", "."), plans);
  const auto passes = static_cast<std::size_t>(cli.number("--passes", 1));
  const auto seed = static_cast<std::uint64_t>(cli.number("--seed", 1));
  const auto jobs = static_cast<std::size_t>(cli.number("--jobs", 0));
  const ckptsim::RunSpec spec = figure_spec(jobs);

  const PassResult untraced = run_passes(plans, ref, passes, seed, spec, nullptr);
  print_pass(untraced, series_count(plans));
  const std::string trace_dir = cli.value("--trace-dir");
  if (trace_dir.empty()) return 0;

  // Traced pass: a span per sweep() call and the library's own worker
  // busy-time accounting.
  Tracer tracer;
  const std::size_t workers = spec.exec.resolve();
  ckptsim::obs::Metrics metrics(workers);
  ckptsim::RunSpec traced_spec = spec;
  traced_spec.metrics = &metrics;
  const PassResult traced = run_passes(plans, ref, passes, seed, traced_spec, &tracer);
  const ckptsim::obs::MetricsSnapshot snap = metrics.snapshot();
  double busy = 0.0;
  for (const double b : snap.worker_busy_seconds) busy += b;

  // Single-threaded replay of every replication of one pass, in series
  // order, checked against the swept results.
  ReplayStats replay;
  std::size_t replay_mismatches = 0;
  for (const auto& [idx, swept] : traced.last) {
    const figbench::FigureHarness& fig = plans[idx.first].fig;
    for (const ckptsim::SweepPoint& p : swept.points) {
      const ckptsim::RunResult r = replay_point(p.params, spec, idx.first * 1000 + idx.second,
                                                &tracer, &replay);
      if (point_fields(fig, swept.label, p.x, r) != point_fields(fig, swept.label, p.x, p.result)) {
        ++replay_mismatches;
      }
    }
  }

  std::map<std::string, double> m = replay.metrics();
  m["core.worker_busy_ratio"] = busy / (static_cast<double>(workers) * traced.seconds);
  const double untraced_tts = series_median_seconds(untraced);
  m["core.parallel_efficiency"] = replay.seconds / (static_cast<double>(workers) * untraced_tts);
  m["traced_time_to_solution_s"] = series_median_seconds(traced);
  m["replay_mismatches"] = static_cast<double>(replay_mismatches + traced.mismatches);
  write_trace(tracer, trace_dir, m);
  std::cout << json_numbers(m) << std::endl;
  return 0;
}

}  // namespace perfbench
