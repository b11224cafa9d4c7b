// The experiment harness: wires engine + workload generator + telemetry +
// a scaling policy into the paper's closed billing-interval loop
// (Section 7.1 methodology).
//
// One trace step = one billing interval (the paper compresses time the same
// way). Each interval:
//   1. the engine runs under the interval's container, sampled every
//      `sample_period` into the telemetry store;
//   2. at the interval end, the telemetry manager computes signals and the
//      policy decides the next interval's container;
//   3. resizes are applied online; the interval is billed at its
//      container's price.

#ifndef DBSCALE_SIM_SIMULATION_H_
#define DBSCALE_SIM_SIMULATION_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/container/catalog.h"
#include "src/engine/engine.h"
#include "src/fault/fault_plan.h"
#include "src/host/host_map.h"
#include "src/scaler/policy.h"
#include "src/telemetry/manager.h"
#include "src/workload/generator.h"
#include "src/workload/mix.h"
#include "src/workload/trace.h"

namespace dbscale::sim {

/// Per-interval outcome record.
struct IntervalRecord {
  int index = 0;
  /// Container in effect during the interval (billed).
  container::ContainerSpec container;
  double cost = 0.0;
  /// Latency over requests completed within the interval (ms).
  double latency_avg_ms = 0.0;
  double latency_p95_ms = 0.0;
  int64_t completed = 0;
  int64_t errors = 0;
  /// Mean absolute resource usage (cores, active MB, IOPS, log MB/s).
  container::ResourceVector usage;
  /// Mean percent utilization per resource.
  std::array<double, container::kNumResources> utilization_pct{};
  /// Total wait ms per class over the interval.
  std::array<double, telemetry::kNumWaitClasses> wait_ms{};
  double memory_used_mb = 0.0;
  /// Decision taken at the *end* of this interval: its stable code and the
  /// rendered Explanation::ToString() text.
  scaler::ExplanationCode decision_code = scaler::ExplanationCode::kUnset;
  std::string decision_explanation;
  bool resized = false;
  /// Host-plane state during the interval (1.0 / false without hosts).
  double throttle_factor = 1.0;
  bool in_migration_downtime = false;
};

/// \brief Complete result of one simulated run.
struct RunResult {
  std::string policy_name;
  std::vector<IntervalRecord> intervals;
  /// Raw 5-second telemetry samples (kept when options.keep_samples).
  std::vector<telemetry::TelemetrySample> samples;

  /// Whole-run latency aggregates over every completed request (ms).
  double latency_avg_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;

  double total_cost = 0.0;
  double avg_cost_per_interval = 0.0;
  int container_changes = 0;
  double change_fraction = 0.0;
  uint64_t total_completed = 0;
  uint64_t total_errors = 0;
  uint64_t events_processed = 0;

  /// Resize-lifecycle counters (src/fault/). With a null fault plan every
  /// request applies immediately, so resize_attempts == container_changes
  /// and the failure counters stay zero.
  uint64_t resize_attempts = 0;
  uint64_t resize_failures = 0;
  uint64_t resize_rejections = 0;
  /// Telemetry-fault counters (zero with a null fault plan).
  uint64_t telemetry_dropped_samples = 0;
  uint64_t telemetry_rejected_samples = 0;
  uint64_t telemetry_stale_samples = 0;
  uint64_t telemetry_outlier_samples = 0;
  /// Intervals whose signal window was below the confidence floor.
  uint64_t degraded_windows = 0;

  /// Host-plane counters (all zero without hosts; see SimulationOptions::
  /// host). Migration failures also count toward resize_failures.
  uint64_t migrations_begun = 0;
  uint64_t migrations_completed = 0;
  uint64_t migration_failures = 0;
  uint64_t migration_downtime_intervals = 0;
  /// Scale-ups held because no host (current or other) had capacity.
  uint64_t host_saturated_holds = 0;
  /// Final HostMap::Digest() (0 without hosts).
  uint64_t host_digest = 0;

  /// FNV-1a over every field above, in declaration order: each interval
  /// record (its decision code and explanation text included), each kept
  /// sample, and every run-level aggregate and counter. Doubles hash by
  /// bit pattern, so two runs match only when they are bit-identical.
  uint64_t Digest() const;

  /// Per-interval absolute usage (input for OfflineProfiler).
  std::vector<container::ResourceVector> UsageSeries() const;
  /// Latency in the given aggregate.
  double LatencyMs(telemetry::LatencyAggregate aggregate) const;
};

struct SimulationOptions {
  container::Catalog catalog = container::Catalog::MakeLockStep();
  workload::WorkloadSpec workload;
  workload::Trace trace;
  /// Simulated seconds per trace step == billing interval length.
  Duration interval_duration = Duration::Seconds(20);
  Duration sample_period = Duration::Seconds(5);
  /// Multiplier on trace rates.
  double rate_scale = 1.0;
  /// Client connection-pool cap forwarded to the generator: requests beyond
  /// this many in flight are dropped, bounding queue blow-up under deep
  /// under-provisioning. 0 = unlimited. Open-loop only.
  uint64_t max_in_flight = 400;
  /// Client model: open loop (trace = offered rps) or closed loop (trace =
  /// concurrent sessions, the paper's literal Figure 8 axis).
  workload::ArrivalMode arrival_mode = workload::ArrivalMode::kOpenLoop;
  telemetry::TelemetryManagerOptions telemetry;
  /// Engine options; when unset, derived from the workload.
  std::optional<engine::EngineOptions> engine;
  /// Rung index of the container for interval 0.
  int initial_rung = 3;
  uint64_t seed = 42;
  /// Deterministic fault injection (resize + telemetry faults). The default
  /// (disabled) plan draws nothing and leaves the run bit-identical to a
  /// build without the fault layer.
  fault::FaultPlanOptions fault;
  /// Host placement & interference plane. Disabled by default
  /// (num_hosts == 0): no map is built, the engine throttle is never
  /// touched, and the run stays bit-identical to a build without the host
  /// layer. When enabled, the single tenant is seed-placed next to
  /// `host.background` load, scale-ups that exceed the host's headroom
  /// become migrations (copy latency + billed downtime), and saturated
  /// hosts inflate observed waits.
  host::HostOptions host;
  bool prewarm_buffer_pool = true;
  /// Retain every telemetry sample in the result (drill-down experiments).
  bool keep_samples = false;
  /// Observability bundle (not owned; nullptr = off). When set, the run
  /// records pipeline/engine metrics into the primary shard and captures
  /// one span tree per billing interval. Single-threaded use only: parallel
  /// harnesses (RunComparison) must leave this unset on their copies.
  obs::Observability* obs = nullptr;
};

/// \brief Runs one policy against one workload/trace.
class Simulation {
 public:
  explicit Simulation(SimulationOptions options);

  /// Validates options and executes the full trace. The policy is driven
  /// closed-loop; its decisions are applied online.
  Result<RunResult> Run(scaler::ScalingPolicy* policy);

  const SimulationOptions& options() const { return options_; }

 private:
  SimulationOptions options_;
};

}  // namespace dbscale::sim

#endif  // DBSCALE_SIM_SIMULATION_H_
