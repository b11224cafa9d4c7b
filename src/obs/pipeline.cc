#include "src/obs/pipeline.h"

namespace dbscale::obs {

PipelineMetrics PipelineMetrics::Register(MetricRegistry* registry) {
  PipelineMetrics m;
  MetricRegistry& r = *registry;

  m.sim_intervals_total = r.Counter(
      "dbscale_sim_intervals_total", "Billing intervals simulated");
  m.sim_resizes_total = r.Counter(
      "dbscale_sim_resizes_total", "Container changes applied");
  m.sim_scale_ups_total = r.Counter(
      "dbscale_sim_scale_ups_total", "Resizes to a higher rung");
  m.sim_scale_downs_total = r.Counter(
      "dbscale_sim_scale_downs_total", "Resizes to a lower rung");
  m.sim_cost_total = r.Counter(
      "dbscale_sim_cost_total", "Total billed cost across intervals");
  m.sim_requests_total = r.Counter(
      "dbscale_sim_requests_total", "Requests completed within intervals");
  m.sim_errors_total = r.Counter(
      "dbscale_sim_errors_total", "Requests completed with an error");
  m.sim_memory_limit_applies_total = r.Counter(
      "dbscale_sim_memory_limit_applies_total",
      "Balloon memory-limit overrides forwarded to the engine");
  m.sim_interval_latency_p95_ms = r.Histogram(
      "dbscale_sim_interval_latency_p95_ms",
      "Per-interval p95 latency (ms)",
      HistogramSpec::Exponential(1.0, 2.0, 16));

  m.resize_requests_total = r.Counter(
      "dbscale_resize_requests_total",
      "Resize attempts issued to the actuation channel");
  m.resize_applies_total = r.Counter(
      "dbscale_resize_applies_total",
      "Resizes successfully applied (immediate or after latency)");
  m.resize_failures_total = r.Counter(
      "dbscale_resize_failures_total",
      "Resize attempts that failed transiently");
  m.resize_rejections_total = r.Counter(
      "dbscale_resize_rejections_total",
      "Resize attempts permanently rejected");
  m.resize_retries_total = r.Counter(
      "dbscale_resize_retries_total",
      "Resize attempts re-issued after a transient failure");
  m.resize_pending_intervals_total = r.Counter(
      "dbscale_resize_pending_intervals_total",
      "Billing intervals spent with a resize in flight");

  m.telemetry_computes_total = r.Counter(
      "dbscale_telemetry_computes_total", "Signal snapshots computed");
  m.telemetry_invalid_snapshots_total = r.Counter(
      "dbscale_telemetry_invalid_snapshots_total",
      "Snapshots returned with valid == false (warm-up)");
  m.telemetry_degraded_windows_total = r.Counter(
      "dbscale_telemetry_degraded_windows_total",
      "Snapshots whose window coverage fell below min_confidence");
  m.telemetry_dropped_samples_total = r.Counter(
      "dbscale_telemetry_dropped_samples_total",
      "Samples dropped by the fault plan before ingestion");
  m.telemetry_rejected_samples_total = r.Counter(
      "dbscale_telemetry_rejected_samples_total",
      "Corrupted samples rejected by the ingestion validity guard");
  m.telemetry_stale_samples_total = r.Counter(
      "dbscale_telemetry_stale_samples_total",
      "Stale reads replayed in place of fresh samples");
  m.telemetry_outlier_samples_total = r.Counter(
      "dbscale_telemetry_outlier_samples_total",
      "Samples ingested with outlier-inflated latency/waits");

  m.budget_available = r.Gauge(
      "dbscale_budget_available",
      "Token-bucket budget available at the last decision");
  m.budget_spent = r.Gauge(
      "dbscale_budget_spent", "Cumulative budget charged");
  m.budget_clamps_total = r.Counter(
      "dbscale_budget_clamps_total",
      "Decisions forcibly downsized by the budget");

  m.balloon_ticks_total = r.Counter(
      "dbscale_balloon_ticks_total", "Balloon shrink ticks taken");
  m.balloon_aborts_total = r.Counter(
      "dbscale_balloon_aborts_total",
      "Balloon passes aborted on an I/O increase");
  m.balloon_completions_total = r.Counter(
      "dbscale_balloon_completions_total",
      "Balloon passes confirming low memory demand");

  m.host_migrations_begun_total = r.Counter(
      "dbscale_host_migrations_begun_total",
      "Migrations issued by the placement-aware actuation path");
  m.host_migrations_total = r.Counter(
      "dbscale_host_migrations_total", "Migrations completed (cutover)");
  m.host_migration_failures_total = r.Counter(
      "dbscale_host_migration_failures_total",
      "Migrations that failed at cutover");
  m.host_migration_downtime_intervals_total = r.Counter(
      "dbscale_host_migration_downtime_intervals_total",
      "Migration blackout intervals billed against tenants");
  m.host_placement_holds_total = r.Counter(
      "dbscale_host_placement_holds_total",
      "Scale-ups held because no host had capacity");
  m.host_saturated_host_intervals_total = r.Counter(
      "dbscale_host_saturated_host_intervals_total",
      "Host-intervals with CPU demand pressure above capacity");

  m.fleet_tenants_total = r.Counter(
      "dbscale_fleet_tenants_total", "Tenants simulated by the fleet");
  m.fleet_tenant_intervals_total = r.Counter(
      "dbscale_fleet_tenant_intervals_total",
      "Tenant 5-minute intervals simulated");
  m.fleet_container_changes_total = r.Counter(
      "dbscale_fleet_container_changes_total",
      "Container-change events across the fleet");
  m.fleet_hourly_records_total = r.Counter(
      "dbscale_fleet_hourly_records_total",
      "Hourly-median telemetry records produced");
  m.fleet_change_step_rungs = r.Histogram(
      "dbscale_fleet_change_step_rungs",
      "|rung step| per container-change event",
      HistogramSpec::Linear(1.0, 1.0, 8));
  m.fleet_inter_event_minutes = r.Histogram(
      "dbscale_fleet_inter_event_minutes",
      "Minutes between successive change events",
      HistogramSpec::Exponential(5.0, 2.0, 12));
  m.fleet_resize_failures_total = r.Counter(
      "dbscale_fleet_resize_failures_total",
      "Fleet resize attempts that failed or were rejected");
  m.fleet_resize_retries_total = r.Counter(
      "dbscale_fleet_resize_retries_total",
      "Fleet resize attempts re-issued after a failure");

  return m;
}

Observability::Observability() : Observability(Options()) {}

Observability::Observability(Options options)
    : pipeline_(PipelineMetrics::Register(&registry_)),
      trace_(options.trace) {
  primary_.Attach(&registry_);
}

void Observability::AttachPrimary() { primary_.Attach(&registry_); }

Sink Observability::PrimarySink(bool with_trace) {
  AttachPrimary();
  Sink sink;
  sink.pipeline = &pipeline_;
  sink.metrics = MetricSink{&primary_};
  if (with_trace) sink.trace = TraceSink{&trace_, kNoSpan};
  return sink;
}

void Observability::Reset() {
  primary_.ResetValues();
  trace_.Clear();
}

}  // namespace dbscale::obs
