// The well-known instrument schema of the scaling pipeline, plus the
// Observability bundle the harnesses hand around.
//
// Every instrument of the closed loop (simulation intervals, telemetry
// computes, budget, balloon, fleet aggregation) is pre-registered here at
// construction — the engine additionally registers its own block via
// engine::EngineMetrics::Register, and the scaler registers one decision
// counter per ExplanationCode via scaler::RegisterDecisionCounters. After
// any late registration, AttachPrimary() re-sizes the primary shard; all
// of that is setup-time, before the first recorded value.

#ifndef DBSCALE_OBS_PIPELINE_H_
#define DBSCALE_OBS_PIPELINE_H_

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace dbscale::obs {

/// Instrument ids shared across the pipeline layers (all names carry the
/// dbscale_ prefix; see pipeline.cc for the exact set).
struct PipelineMetrics {
  // Simulation interval loop.
  MetricId sim_intervals_total;
  MetricId sim_resizes_total;
  MetricId sim_scale_ups_total;
  MetricId sim_scale_downs_total;
  MetricId sim_cost_total;
  MetricId sim_requests_total;
  MetricId sim_errors_total;
  MetricId sim_memory_limit_applies_total;
  MetricId sim_interval_latency_p95_ms;  // histogram

  // Resize actuation lifecycle (fault layer).
  MetricId resize_requests_total;
  MetricId resize_applies_total;
  MetricId resize_failures_total;
  MetricId resize_rejections_total;
  MetricId resize_retries_total;
  MetricId resize_pending_intervals_total;

  // Telemetry manager.
  MetricId telemetry_computes_total;
  MetricId telemetry_invalid_snapshots_total;
  MetricId telemetry_degraded_windows_total;
  // Telemetry fault injection (recorded at the ingestion site).
  MetricId telemetry_dropped_samples_total;
  MetricId telemetry_rejected_samples_total;
  MetricId telemetry_stale_samples_total;
  MetricId telemetry_outlier_samples_total;

  // Budget manager (recorded by the autoscaler each decision).
  MetricId budget_available;  // gauge
  MetricId budget_spent;      // gauge
  MetricId budget_clamps_total;

  // Balloon controller.
  MetricId balloon_ticks_total;
  MetricId balloon_aborts_total;
  MetricId balloon_completions_total;

  // Host placement & interference plane.
  MetricId host_migrations_begun_total;
  MetricId host_migrations_total;
  MetricId host_migration_failures_total;
  MetricId host_migration_downtime_intervals_total;
  MetricId host_placement_holds_total;
  MetricId host_saturated_host_intervals_total;

  // Fleet simulator.
  MetricId fleet_tenants_total;
  MetricId fleet_tenant_intervals_total;
  MetricId fleet_container_changes_total;
  MetricId fleet_hourly_records_total;
  MetricId fleet_change_step_rungs;    // histogram
  MetricId fleet_inter_event_minutes;  // histogram
  MetricId fleet_resize_failures_total;
  MetricId fleet_resize_retries_total;

  /// Registers (idempotently) every pipeline instrument on `registry`.
  static PipelineMetrics Register(MetricRegistry* registry);
};

/// \brief The nullable observability handle threaded through the decision
/// cycle (PolicyInput, TelemetryManager::Compute, the fleet fan-out).
/// Copy-cheap; everything no-ops when the pointers are null.
struct Sink {
  const PipelineMetrics* pipeline = nullptr;
  MetricSink metrics;
  TraceSink trace;

  bool enabled() const { return metrics.enabled() || trace.enabled(); }
  /// This sink with new trace spans nesting under `span`.
  Sink Under(SpanId span) const {
    Sink s = *this;
    s.trace = trace.Under(span);
    return s;
  }
};

/// \brief Owns the registry, the primary (merged) shard, and the trace
/// ring: everything a run needs to observe itself. Construct one, point
/// SimulationOptions/FleetOptions at it, export afterwards.
class Observability {
 public:
  struct Options {
    TraceRecorder::Options trace;
  };

  Observability();
  explicit Observability(Options options);

  MetricRegistry& registry() { return registry_; }
  const MetricRegistry& registry() const { return registry_; }
  const PipelineMetrics& pipeline() const { return pipeline_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  /// (Re)sizes the primary shard to the registry; idempotent, call after
  /// late registrations and before recording (setup-time allocation).
  void AttachPrimary();
  MetricShard& primary() { return primary_; }
  const MetricShard& primary() const { return primary_; }

  /// Sink recording into the primary shard (and tracing when `trace` is
  /// true). Single-threaded use only — parallel callers use per-worker
  /// shards merged deterministically instead.
  Sink PrimarySink(bool with_trace = true);

  /// Clears recorded values and retained traces (instruments stay).
  void Reset();

 private:
  MetricRegistry registry_;
  PipelineMetrics pipeline_;
  MetricShard primary_;
  TraceRecorder trace_;
};

}  // namespace dbscale::obs

#endif  // DBSCALE_OBS_PIPELINE_H_
