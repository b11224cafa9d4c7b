// Fleet simulator: service-wide telemetry over thousands of tenants.
//
// Produces (a) hourly-aggregated wait/utilization records (the paper
// aggregates 5-minute wait samples to hourly medians for Figures 4 and 6
// and for threshold calibration), and (b) container-change statistics
// (Figure 2 and the step-size analysis of Section 4).
//
// This is the exact path: the scale runner's block loop (fleet_scale.h)
// over one hour-aligned epoch, with a target per block that materializes
// every emission. Blocks are concatenated in block order, so records come
// out tenant-major. FleetAggregate::FromTelemetry folds the result back
// into an aggregate, the oracle the streaming runs are checked against.

#ifndef DBSCALE_FLEET_FLEET_SIM_H_
#define DBSCALE_FLEET_FLEET_SIM_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/fault/fault_plan.h"
#include "src/fleet/tenant_model.h"
#include "src/obs/pipeline.h"

namespace dbscale::fleet {

/// Fleet billing intervals are five minutes long: twelve to the hour.
inline constexpr int kIntervalsPerHour = 12;
inline constexpr double kIntervalMinutes = 5.0;

/// Fraction of change events that moved at most `k` rungs, from counts
/// indexed by |rung step| (index 0 unused); 0 when there were none.
template <typename Count>
double StepFractionAtOrBelow(const std::vector<Count>& counts, size_t k) {
  Count total = 0, small = 0;
  for (size_t s = 1; s < counts.size(); ++s) {
    total += counts[s];
    if (s <= k) small += counts[s];
  }
  return total > 0
             ? static_cast<double>(small) / static_cast<double>(total)
             : 0.0;
}

/// Hourly-median telemetry for one tenant-hour.
struct HourlyRecord {
  int tenant_id = 0;
  int hour = 0;
  /// Median of the hour's 5-minute samples.
  std::array<double, container::kNumResources> utilization_pct{};
  std::array<double, container::kNumResources> wait_ms{};
  std::array<double, container::kNumResources> wait_pct{};
  /// Median wait per completed request (ms/request).
  std::array<double, container::kNumResources> wait_ms_per_request{};
};

/// Per-tenant container-change statistics.
struct TenantChangeStats {
  int tenant_id = 0;
  int num_changes = 0;
  double changes_per_day = 0.0;
};

/// Aggregated fleet output.
struct FleetTelemetry {
  std::vector<HourlyRecord> hourly;
  /// Minutes between successive container-change events, pooled across
  /// tenants (Figure 2(a)).
  std::vector<double> inter_event_minutes;
  std::vector<TenantChangeStats> tenant_changes;
  /// Distribution of |rung step| per change event (index 1..; index 0
  /// unused).
  std::vector<int64_t> step_size_counts;
  int num_tenants = 0;
  int num_intervals = 0;
  /// Resize-fault totals (zero with a null fault plan). Failures include
  /// permanent rejections; retries are repeat attempts toward one target.
  uint64_t resize_failures = 0;
  uint64_t resize_retries = 0;

  /// Fraction of change events with |step| == 1 / <= 2 (Section 4: ~90% /
  /// ~98%).
  double OneStepFraction() const;
  double AtMostTwoStepFraction() const;
};

struct FleetOptions {
  int num_tenants = 2000;
  /// 5-minute intervals to simulate (default one week).
  int num_intervals = 7 * 288;
  uint64_t seed = 7;
  /// Worker threads for the tenant fan-out. 0 = the process default
  /// (DBSCALE_NUM_THREADS env var, else hardware concurrency); 1 = serial.
  int num_threads = 0;
  TenantModelOptions tenant;
  /// Deterministic fault injection. Each tenant's fault stream forks off
  /// its pre-forked tenant RNG, so faulty runs stay bit-identical at any
  /// thread count; the default (disabled) plan draws nothing and leaves
  /// the run bit-identical to a build without the fault layer.
  fault::FaultPlanOptions fault;
  /// Observability bundle (not owned; nullptr = off). Tenants record into
  /// a pooled MetricShard per scheduling block (obs::ShardPool) rather
  /// than one shard each; shards are merged into the primary in block
  /// order. Fleet metrics are integer-valued counter/histogram adds, so
  /// block pooling is bitwise identical to the historical per-tenant
  /// shards at any thread count. The fleet records metrics only (no
  /// per-interval traces).
  obs::Observability* obs = nullptr;
  /// Tenants per scheduling block (also the metric-shard granularity).
  int block_size = 256;
};

/// \brief Runs the closed-form fleet model.
class FleetSimulator {
 public:
  FleetSimulator(const container::Catalog& catalog, FleetOptions options);

  /// Simulates all tenants, fanning out across threads. Deterministic for
  /// a given seed and bit-identical at any thread count: every tenant's RNG
  /// is pre-forked from the root RNG before dispatch and block outputs are
  /// merged in block order.
  Result<FleetTelemetry> Run() const;

 private:
  container::Catalog catalog_;
  FleetOptions options_;
};

}  // namespace dbscale::fleet

#endif  // DBSCALE_FLEET_FLEET_SIM_H_
