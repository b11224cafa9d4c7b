// End-to-end experiment drivers reproducing the paper's Section 7
// methodology:
//
//   1. run the workload under Max (largest container) — the gold standard;
//   2. derive the latency goal as a multiple of Max's latency (the paper
//      uses 1.25x and 5x);
//   3. profile the Max run to configure the offline baselines
//      (Peak / Avg / Trace);
//   4. run every technique against the *same* workload (same seed) and
//      compare 95th-percentile latency and average cost per billing
//      interval.

#ifndef DBSCALE_SIM_EXPERIMENT_H_
#define DBSCALE_SIM_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/scaler/autoscaler.h"
#include "src/sim/simulation.h"

namespace dbscale::sim {

/// One technique's outcome.
struct TechniqueResult {
  std::string name;
  RunResult run;
};

/// The full six-technique comparison for one workload/trace/goal.
struct ComparisonResult {
  scaler::LatencyGoal goal;
  std::vector<TechniqueResult> techniques;

  const TechniqueResult* Find(const std::string& name) const;
  /// Formats the paper-style table (latency row, cost row).
  std::string ToTable() const;
};

struct ComparisonOptions {
  /// goal = goal_factor * latency(Max).
  double goal_factor = 1.25;
  telemetry::LatencyAggregate goal_aggregate =
      telemetry::LatencyAggregate::kP95;
  scaler::Sensitivity sensitivity = scaler::Sensitivity::kMedium;
  /// Initial rung for the online policies (Util, Auto).
  int online_initial_rung = 3;
  /// Run these subsets only (empty = all six).
  std::vector<std::string> techniques;
  /// Threads for the post-Max technique fan-out (Peak/Avg/Trace/Util/Auto
  /// are independent given the Max profiling run). 0 = process default
  /// (DBSCALE_NUM_THREADS env var, else hardware concurrency); 1 = serial.
  /// The result is identical at any thread count: every technique runs the
  /// same seeded simulation and results are assembled in canonical order.
  int num_threads = 0;
};

/// Names accepted by MakeRegisteredPolicy, in canonical order.
const std::vector<std::string>& RegisteredPolicyNames();

/// Creates a named online policy over `catalog` with the given knobs:
/// "Auto" (the paper's autoscaler), "Util" (utilization baseline; requires
/// knobs.latency_goal), or "Diagonal" (per-dimension demand vectors +
/// budgeted multi-dimensional optimizer). Errors on unknown names, so
/// drill-down benches can take a --policy flag without hand-rolled
/// factories.
[[nodiscard]] Result<std::unique_ptr<scaler::ScalingPolicy>>
MakeRegisteredPolicy(const std::string& name,
                     const container::Catalog& catalog,
                     const scaler::TenantKnobs& knobs);

/// Runs one policy over `base` with the given starting rung.
[[nodiscard]] Result<RunResult> RunWithPolicy(const SimulationOptions& base,
                                              scaler::ScalingPolicy* policy,
                                              int initial_rung);

/// Runs the Max gold standard.
[[nodiscard]] Result<RunResult> RunMax(const SimulationOptions& base);

/// Runs the complete comparison (Max, Peak, Avg, Trace, Util, Auto).
[[nodiscard]] Result<ComparisonResult> RunComparison(
    const SimulationOptions& base, const ComparisonOptions& options);

}  // namespace dbscale::sim

#endif  // DBSCALE_SIM_EXPERIMENT_H_
