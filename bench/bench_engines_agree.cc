// Cross-engine validation bench: the hand-coded DES engine vs the Table-1
// SAN build on representative configurations — fractions side by side with
// confidence intervals, plus wall-clock cost of each engine.
#include <exception>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/model/parameters.h"
#include "src/report/cli.h"
#include "src/report/table.h"

namespace {

struct Config {
  std::string label;
  ckptsim::Parameters params;
};

}  // namespace

int main(int argc, char** argv) try {
  using namespace ckptsim;
  const report::Cli cli(argc, argv);
  RunSpec spec = report::bench_spec(cli);
  // The SAN executor is the slow engine; trim the horizon for this bench.
  spec.horizon = std::min(spec.horizon, 600.0 * units::kHour);

  std::vector<Config> configs;
  {
    Parameters p;
    p.compute_failures_enabled = false;
    p.io_failures_enabled = false;
    p.master_failures_enabled = false;
    configs.push_back({"coordination only (64K)", p});
  }
  {
    Parameters p;
    p.num_processors = 131072;
    p.coordination = CoordinationMode::kFixedQuiesce;
    configs.push_back({"base model (128K, MTTF 1 yr)", p});
  }
  {
    Parameters p;
    configs.push_back({"full defaults (64K)", p});
  }
  {
    Parameters p;
    p.num_processors = 262144;
    p.mttf_node = 3.0 * units::kYear;
    p.generic_correlated_coefficient = 0.0025;
    configs.push_back({"generic correlated (256K, MTTF 3 yr)", p});
  }
  {
    Parameters p;
    p.mttf_node = 3.0 * units::kYear;
    p.timeout = 100.0;
    configs.push_back({"timeout 100 s (64K, MTTF 3 yr)", p});
  }

  std::cout << "=== Engine agreement: DES vs SAN ===\n\n";
  report::Table table({"configuration", "DES fraction", "SAN fraction", "|diff|",
                       "DES ms", "SAN ms"});
  for (const auto& config : configs) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto des = run_model(config.params, spec, EngineKind::kDes);
    const auto t1 = std::chrono::steady_clock::now();
    const auto san = run_model(config.params, spec, EngineKind::kSan);
    const auto t2 = std::chrono::steady_clock::now();
    const double des_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double san_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    table.add_row({config.label,
                   report::Table::num(des.useful_fraction.mean, 4) + " +/- " +
                       report::Table::num(des.useful_fraction.half_width, 4),
                   report::Table::num(san.useful_fraction.mean, 4) + " +/- " +
                       report::Table::num(san.useful_fraction.half_width, 4),
                   report::Table::num(
                       std::abs(des.useful_fraction.mean - san.useful_fraction.mean), 4),
                   report::Table::integer(des_ms), report::Table::integer(san_ms)});
  }
  std::cout << table.render();
  std::cout << "\nthe two engines implement the same documented semantics; differences\n"
               "should sit within the confidence intervals (they use different event\n"
               "orderings and RNG streams, so exact equality is not expected)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
