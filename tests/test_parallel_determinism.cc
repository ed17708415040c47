#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/model/parameters.h"
#include "src/san/model.h"
#include "src/san/study.h"
#include "src/sim/rng.h"

namespace {

using ckptsim::EngineKind;
using ckptsim::Parameters;
using ckptsim::RunResult;
using ckptsim::RunSpec;
using ckptsim::SweepSeries;

/// Thread counts the determinism guarantee is exercised at: serial, small
/// parallel, and whatever the hardware offers.
std::vector<std::size_t> job_counts() {
  const unsigned hw = std::thread::hardware_concurrency();
  return {1, 2, hw > 0 ? hw : 4};
}

Parameters small_machine() {
  Parameters p;
  p.num_processors = 4096;
  return p;
}

RunSpec small_spec() {
  RunSpec spec;
  spec.transient = 5.0 * 3600.0;
  spec.horizon = 80.0 * 3600.0;
  spec.replications = 6;
  spec.seed = 1234;
  return spec;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.replications, b.replications);
  // Bit-identical, not approximately equal: the parallel driver must
  // aggregate in replication-index order.
  EXPECT_EQ(a.useful_fraction.mean, b.useful_fraction.mean);
  EXPECT_EQ(a.useful_fraction.half_width, b.useful_fraction.half_width);
  EXPECT_EQ(a.total_useful_work, b.total_useful_work);
  EXPECT_EQ(a.fraction_replicates.count(), b.fraction_replicates.count());
  EXPECT_EQ(a.fraction_replicates.mean(), b.fraction_replicates.mean());
  EXPECT_EQ(a.gross_replicates.mean(), b.gross_replicates.mean());
  EXPECT_EQ(a.mean_breakdown.executing, b.mean_breakdown.executing);
  EXPECT_EQ(a.mean_breakdown.checkpointing, b.mean_breakdown.checkpointing);
  EXPECT_EQ(a.mean_breakdown.recovering, b.mean_breakdown.recovering);
  EXPECT_EQ(a.mean_breakdown.rebooting, b.mean_breakdown.rebooting);
  EXPECT_EQ(std::memcmp(&a.totals, &b.totals, sizeof(a.totals)), 0);
}

TEST(ParallelDeterminism, RunModelDesIsBitIdenticalAcrossJobCounts) {
  const Parameters p = small_machine();
  RunSpec spec = small_spec();
  spec.exec.jobs = 1;
  const RunResult serial = run_model(p, spec, EngineKind::kDes);
  for (const std::size_t jobs : job_counts()) {
    spec.exec.jobs = jobs;
    expect_identical(serial, run_model(p, spec, EngineKind::kDes));
  }
}

TEST(ParallelDeterminism, RunModelSanIsBitIdenticalAcrossJobCounts) {
  const Parameters p = small_machine();
  RunSpec spec = small_spec();
  spec.replications = 3;
  spec.horizon = 30.0 * 3600.0;
  spec.exec.jobs = 1;
  const RunResult serial = run_model(p, spec, EngineKind::kSan);
  for (const std::size_t jobs : job_counts()) {
    spec.exec.jobs = jobs;
    expect_identical(serial, run_model(p, spec, EngineKind::kSan));
  }
}

TEST(ParallelDeterminism, SweepIsBitIdenticalAcrossJobCounts) {
  const Parameters base = small_machine();
  RunSpec spec = small_spec();
  spec.replications = 3;
  spec.horizon = 40.0 * 3600.0;
  const std::vector<double> xs{2048, 4096, 8192};
  const auto apply = [](Parameters p, double x) {
    p.num_processors = static_cast<std::uint64_t>(x);
    return p;
  };
  spec.exec.jobs = 1;
  const SweepSeries serial = sweep("procs", base, xs, apply, spec);
  for (const std::size_t jobs : job_counts()) {
    spec.exec.jobs = jobs;
    const SweepSeries par = sweep("procs", base, xs, apply, spec);
    ASSERT_EQ(par.points.size(), serial.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      EXPECT_EQ(par.points[i].x, serial.points[i].x);
      expect_identical(serial.points[i].result, par.points[i].result);
    }
  }
}

TEST(ParallelDeterminism, SweepMatchesPerPointRunModel) {
  // The flattened point x replication dispatch must reproduce exactly what
  // running each point through run_model would give.
  const Parameters base = small_machine();
  RunSpec spec = small_spec();
  spec.replications = 2;
  spec.horizon = 20.0 * 3600.0;
  spec.exec.jobs = 2;
  const std::vector<double> xs{2048, 4096};
  const auto apply = [](Parameters p, double x) {
    p.num_processors = static_cast<std::uint64_t>(x);
    return p;
  };
  const SweepSeries series = sweep("procs", base, xs, apply, spec);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    expect_identical(run_model(apply(base, xs[i]), spec), series.points[i].result);
  }
}

/// Two-state on/off SAN: on -> off at rate 1, off -> on at rate 3.
ckptsim::san::Model on_off_model() {
  using namespace ckptsim::san;
  Model m;
  const PlaceId on = m.add_place("on", 1);
  const PlaceId off = m.add_place("off", 0);
  ActivitySpec to_off;
  to_off.name = "to_off";
  to_off.latency = [](const Marking&, ckptsim::sim::Rng& r) { return r.exponential_rate(1.0); };
  to_off.input_arcs = {InputArc{on, 1}};
  to_off.output_arcs = {OutputArc{off, 1}};
  m.add_activity(std::move(to_off));
  ActivitySpec to_on;
  to_on.name = "to_on";
  to_on.latency = [](const Marking&, ckptsim::sim::Rng& r) { return r.exponential_rate(3.0); };
  to_on.input_arcs = {InputArc{off, 1}};
  to_on.output_arcs = {OutputArc{on, 1}};
  m.add_activity(std::move(to_on));
  return m;
}

TEST(ParallelDeterminism, StudyRunIsBitIdenticalAcrossJobCounts) {
  using ckptsim::san::Marking;
  using ckptsim::san::RateRewardSpec;
  using ckptsim::san::Study;
  const auto m = on_off_model();
  const auto on = m.place("on");
  Study study(m, {RateRewardSpec{"on", [on](const Marking& mk) { return mk.has(on) ? 1.0 : 0.0; }}},
              {});
  RunSpec spec;
  spec.transient = 50.0;
  spec.horizon = 3000.0;
  spec.replications = 8;
  spec.seed = 99;
  spec.exec.jobs = 1;
  const auto serial = study.run(spec);
  for (const std::size_t jobs : job_counts()) {
    spec.exec.jobs = jobs;
    const auto par = study.run(spec);
    EXPECT_EQ(par.total_firings, serial.total_firings);
    const auto& sm = serial.reward("on");
    const auto& pm = par.reward("on");
    EXPECT_EQ(pm.replicate_means.count(), sm.replicate_means.count());
    EXPECT_EQ(pm.replicate_means.mean(), sm.replicate_means.mean());
    EXPECT_EQ(pm.interval.mean, sm.interval.mean);
    EXPECT_EQ(pm.interval.half_width, sm.interval.half_width);
  }
}

TEST(ParallelDeterminism, EnginesShareReplicationSeeding) {
  // Both engines derive replication r's stream from the same helper, so a
  // future change to either driver's mixing cannot silently diverge.
  EXPECT_EQ(ckptsim::sim::replication_seed(42, 0),
            ckptsim::sim::splitmix64(42 ^ ckptsim::sim::splitmix64(0xC4E1ULL)));
  EXPECT_NE(ckptsim::sim::replication_seed(42, 0), ckptsim::sim::replication_seed(42, 1));
  EXPECT_NE(ckptsim::sim::replication_seed(42, 0), ckptsim::sim::replication_seed(43, 0));
}

}  // namespace
