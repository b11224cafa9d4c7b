// A telemetry sample: the engine's counters aggregated over one sampling
// period (default 5 simulated seconds, mirroring the fine-grained collection
// the paper describes).

#ifndef DBSCALE_TELEMETRY_SAMPLE_H_
#define DBSCALE_TELEMETRY_SAMPLE_H_

#include <array>
#include <string>

#include "src/common/sim_time.h"
#include "src/container/container.h"
#include "src/telemetry/wait_class.h"

namespace dbscale::telemetry {

/// \brief Production telemetry for one sampling period of one tenant.
struct TelemetrySample {
  SimTime period_start;
  SimTime period_end;

  /// Percent utilization (0..100) per resource dimension, relative to the
  /// container's allocation during the period.
  std::array<double, container::kNumResources> utilization_pct{};

  /// Total milliseconds tenant requests spent waiting, per wait class,
  /// summed across concurrent requests (so it can exceed wall time).
  std::array<double, kNumWaitClasses> wait_ms{};

  int64_t requests_started = 0;
  int64_t requests_completed = 0;

  /// Latency aggregates over requests *completed* in this period (ms).
  double latency_avg_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_max_ms = 0.0;

  /// Memory the engine actually holds (buffer pool fill + grants), MB.
  double memory_used_mb = 0.0;

  /// Memory the workload *actively needs* (cached working-set pages scaled
  /// to a container allocation, plus outstanding grants), MB. Caches hold
  /// whatever they are given, so memory_used_mb overstates demand; offline
  /// profiling (Peak/Avg/Trace baselines) and fleet container assignment
  /// use this active-set estimate instead.
  double memory_active_mb = 0.0;

  /// Data-page reads issued to disk in the period (buffer pool misses).
  int64_t physical_reads = 0;

  /// Container allocation in effect at the end of the period.
  container::ResourceVector allocation;
  int container_id = 0;

  std::string ToString() const;
};

}  // namespace dbscale::telemetry

#endif  // DBSCALE_TELEMETRY_SAMPLE_H_
