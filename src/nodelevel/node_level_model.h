#pragma once

#include <cstdint>
#include <vector>

#include "src/model/des_model.h"
#include "src/stats/summary.h"

namespace ckptsim {

/// Spatial-correlation extension (the paper's explicit future work: "We
/// consider temporal correlations in our model, but not spatial").
///
/// Zhang et al. [18] report that failures in large clusters cluster in
/// space as well as time — typically within one locally-federated group
/// (a rack / I/O group).  Model: when an independent failure hits node v,
/// with probability `probability` the *other* nodes of v's I/O group enter
/// an elevated-rate window: each experiences `factor` times its normal
/// failure rate for `window` seconds.
struct SpatialCorrelation {
  double probability = 0.0;  ///< chance a failure ignites its group
  double factor = 0.0;       ///< per-node rate multiplier inside the group
  double window = 180.0;     ///< burst duration (seconds)

  [[nodiscard]] bool enabled() const noexcept { return probability > 0.0 && factor > 0.0; }
};

/// Per-node (disaggregated) build of the model.
///
/// The paper aggregates all compute nodes into a single unit "to scale to a
/// large number of nodes without requiring a large simulation time"
/// (Sec. 4).  This engine removes that aggregation where it has modelling
/// content:
///
///  * the coordination latency is the *explicit* maximum over every node's
///    quiesce time (each node's time being the max over its processors'
///    i.i.d. exponential quiesce times) instead of the closed-form
///    inverse-CDF sample — validating the paper's Section 5 derivation;
///  * every failure strikes a concrete victim node, enabling per-node /
///    per-I/O-group failure statistics;
///  * spatially correlated failures (above) cluster extra failures inside
///    the victim's I/O group.
///
/// With spatial correlation disabled, this model is *distributionally
/// identical* to DesModel — the aggregation-validity tests
/// (tests/test_node_level.cc) and `bench_ablation_aggregation` check that.
class NodeLevelModel final : public DesModel {
 public:
  NodeLevelModel(const Parameters& params, const SpatialCorrelation& spatial,
                 std::uint64_t seed);

  /// Convenience: no spatial correlation.
  NodeLevelModel(const Parameters& params, std::uint64_t seed)
      : NodeLevelModel(params, SpatialCorrelation{}, seed) {}

  // --- node-level diagnostics (valid after run()/run_until_work()) ---

  /// Independent-failure count per node.
  [[nodiscard]] const std::vector<std::uint32_t>& failures_per_node() const noexcept {
    return node_failures_;
  }
  /// Spatial-burst failure count per node.
  [[nodiscard]] const std::vector<std::uint32_t>& spatial_failures_per_node() const noexcept {
    return spatial_failures_;
  }
  /// Sampled coordination latencies (one per completed coordination).
  [[nodiscard]] const stats::Summary& coordination_latency() const noexcept {
    return coordination_latency_;
  }
  /// How often each node was the coordination straggler.
  [[nodiscard]] const std::vector<std::uint32_t>& straggler_counts() const noexcept {
    return straggler_counts_;
  }
  /// Number of spatial windows opened.
  [[nodiscard]] std::uint64_t spatial_windows() const noexcept { return spatial_windows_; }
  /// Fraction of consecutive-failure pairs that hit the same I/O group —
  /// the spatial-clustering signal (baseline = 1 / io_nodes for uniform).
  [[nodiscard]] double same_group_fraction() const noexcept;

 protected:
  double sample_coordination_time() override;
  void on_independent_failure() override;
  void on_extension_event(std::size_t k) override;

 private:
  enum : std::size_t { kSpatialEnd, kSpatialFail };  ///< extension slots

  [[nodiscard]] std::uint64_t group_of(std::uint64_t node) const noexcept;
  void record_victim(std::uint64_t node, bool spatial);
  void open_spatial_window(std::uint64_t group);
  void on_spatial_window_end();
  void on_spatial_failure();

  SpatialCorrelation spatial_;
  sim::Rng rng_victim_;
  sim::Rng rng_quiesce_;
  sim::Rng rng_spatial_;

  std::vector<std::uint32_t> node_failures_;
  std::vector<std::uint32_t> spatial_failures_;
  std::vector<std::uint32_t> straggler_counts_;
  stats::Summary coordination_latency_;

  bool spatial_window_active_ = false;
  std::uint64_t spatial_group_ = 0;
  std::uint64_t spatial_windows_ = 0;

  // clustering statistic
  std::uint64_t last_failure_group_ = UINT64_MAX;
  std::uint64_t pair_count_ = 0;
  std::uint64_t same_group_pairs_ = 0;
};

}  // namespace ckptsim
