#include "src/sim/simulation.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/fnv.h"
#include "src/common/logging.h"
#include "src/fault/actuator.h"
#include "src/host/host_map.h"
#include "src/host/placement.h"
#include "src/stats/cdf.h"

namespace dbscale::sim {

using container::ResourceKind;

namespace {

void HashString(Fnv64Stream* h, const std::string& s) {
  h->U64(s.size());
  h->Bytes(s.data(), s.size());
}

template <size_t N>
void HashArray(Fnv64Stream* h, const std::array<double, N>& values) {
  for (double v : values) h->Dbl(v);
}

}  // namespace

uint64_t RunResult::Digest() const {
  Fnv64Stream h;
  HashString(&h, policy_name);
  h.U64(intervals.size());
  for (const IntervalRecord& r : intervals) {
    h.I32(r.index);
    h.I32(r.container.id);
    HashString(&h, r.container.name);
    r.container.resources.Fold(&h);
    h.Dbl(r.container.price_per_interval);
    h.I32(r.container.base_rung);
    h.Dbl(r.cost);
    h.Dbl(r.latency_avg_ms);
    h.Dbl(r.latency_p95_ms);
    h.U64(static_cast<uint64_t>(r.completed));
    h.U64(static_cast<uint64_t>(r.errors));
    r.usage.Fold(&h);
    HashArray(&h, r.utilization_pct);
    HashArray(&h, r.wait_ms);
    h.Dbl(r.memory_used_mb);
    h.I32(static_cast<int32_t>(r.decision_code));
    HashString(&h, r.decision_explanation);
    h.I32(r.resized ? 1 : 0);
    h.Dbl(r.throttle_factor);
    h.I32(r.in_migration_downtime ? 1 : 0);
  }
  h.U64(samples.size());
  for (const telemetry::TelemetrySample& s : samples) {
    h.U64(static_cast<uint64_t>(s.period_start.ToMicros()));
    h.U64(static_cast<uint64_t>(s.period_end.ToMicros()));
    HashArray(&h, s.utilization_pct);
    HashArray(&h, s.wait_ms);
    h.U64(static_cast<uint64_t>(s.requests_started));
    h.U64(static_cast<uint64_t>(s.requests_completed));
    h.Dbl(s.latency_avg_ms);
    h.Dbl(s.latency_p95_ms);
    h.Dbl(s.latency_max_ms);
    h.Dbl(s.memory_used_mb);
    h.Dbl(s.memory_active_mb);
    h.U64(static_cast<uint64_t>(s.physical_reads));
    s.allocation.Fold(&h);
    h.I32(s.container_id);
  }
  for (double v : {latency_avg_ms, latency_p95_ms, latency_p99_ms,
                   latency_max_ms, total_cost, avg_cost_per_interval}) {
    h.Dbl(v);
  }
  h.I32(container_changes);
  h.Dbl(change_fraction);
  for (uint64_t v :
       {total_completed, total_errors, events_processed, resize_attempts,
        resize_failures, resize_rejections, telemetry_dropped_samples,
        telemetry_rejected_samples, telemetry_stale_samples,
        telemetry_outlier_samples, degraded_windows, migrations_begun,
        migrations_completed, migration_failures,
        migration_downtime_intervals, host_saturated_holds, host_digest}) {
    h.U64(v);
  }
  return h.value;
}

std::vector<container::ResourceVector> RunResult::UsageSeries() const {
  std::vector<container::ResourceVector> out;
  out.reserve(intervals.size());
  for (const IntervalRecord& r : intervals) out.push_back(r.usage);
  return out;
}

double RunResult::LatencyMs(telemetry::LatencyAggregate aggregate) const {
  return aggregate == telemetry::LatencyAggregate::kAverage
             ? latency_avg_ms
             : latency_p95_ms;
}

Simulation::Simulation(SimulationOptions options)
    : options_(std::move(options)) {}

Result<RunResult> Simulation::Run(scaler::ScalingPolicy* policy) {
  if (policy == nullptr) {
    return Status::InvalidArgument("policy must not be null");
  }
  DBSCALE_RETURN_IF_ERROR(options_.workload.Validate());
  if (options_.trace.empty()) {
    return Status::InvalidArgument("trace is empty");
  }
  if (options_.interval_duration < options_.sample_period) {
    return Status::InvalidArgument(
        "interval_duration must be >= sample_period");
  }
  if (options_.initial_rung < 0 ||
      options_.initial_rung >= options_.catalog.num_rungs()) {
    return Status::OutOfRange("initial_rung outside the catalog");
  }
  {
    telemetry::TelemetryManager probe(options_.telemetry);
    DBSCALE_RETURN_IF_ERROR(probe.Validate());
  }
  DBSCALE_RETURN_IF_ERROR(options_.fault.Validate());
  DBSCALE_RETURN_IF_ERROR(options_.host.Validate());

  Rng rng(options_.seed);
  engine::EventQueue events;

  engine::EngineOptions engine_options =
      options_.engine.has_value() ? *options_.engine
                                  : options_.workload.MakeEngineOptions();
  container::ContainerSpec current =
      options_.catalog.rung(options_.initial_rung);

  engine::DatabaseEngine engine(&events, engine_options, current,
                                rng.Fork());
  if (options_.prewarm_buffer_pool) engine.PrewarmBufferPool();

  workload::GeneratorOptions gen_options;
  gen_options.step_duration = options_.interval_duration;
  gen_options.rate_scale = options_.rate_scale;
  gen_options.max_in_flight = options_.max_in_flight;
  gen_options.mode = options_.arrival_mode;
  workload::RequestGenerator generator(&engine, options_.workload,
                                       options_.trace, gen_options,
                                       rng.Fork());

  // Fault stream forked last and ONLY when enabled: a null plan leaves the
  // engine/generator streams — and therefore the whole run — bit-identical
  // to a build without the fault layer.
  fault::FaultPlan fault_plan;
  if (options_.fault.enabled()) {
    fault_plan = fault::FaultPlan(options_.fault, rng.Fork());
  }
  const bool faulty = fault_plan.enabled();
  // The placement-aware actuation channel: migrations add copy latency +
  // blackout on top of the plan's draws.
  fault::ResizeActuator actuator(&fault_plan,
                                 options_.host.migration_latency_intervals,
                                 options_.host.migration_downtime_intervals);
  scaler::ActuationFeedback feedback;

  // Host plane (optional): the single tenant seed-placed next to the
  // configured background load. Disabled, none of this state exists and
  // the run is bit-identical to a build without the host layer.
  const bool host_enabled = options_.host.enabled();
  std::optional<host::HostMap> host_map;
  std::unique_ptr<host::PlacementPolicy> placement;
  int tenant_host = -1;
  int migration_dest = -1;  // destination of the in-flight migration
  std::vector<double> host_demand;
  double prev_cpu_demand = 0.0;
  if (host_enabled) {
    host_map.emplace(options_.host);
    placement = host::MakePlacementPolicy(options_.host.placement);
    Result<std::vector<int>> placed = host_map->SeedPlace({current});
    if (!placed.ok()) return placed.status();
    tenant_host = placed.value()[0];
    host_demand.assign(static_cast<size_t>(host_map->num_hosts()), 0.0);
  }
  fault::TelemetryFaultEdge telemetry_edge;

  telemetry::TelemetryStore store;
  telemetry::TelemetryManager manager(options_.telemetry);
  // Reused across intervals so Compute stays allocation-free on the hot
  // per-interval path.
  telemetry::SignalScratch signal_scratch;

  // Run- and interval-level latency tracking via the completion listener.
  stats::LatencyHistogram run_latency(0.01, 1e8, 48);
  stats::LatencyHistogram interval_latency(0.01, 1e8, 48);
  uint64_t interval_errors = 0;
  engine.SetCompletionListener(
      [&run_latency, &interval_latency,
       &interval_errors](const engine::RequestResult& r) {
        const double ms = r.latency().ToMillis();
        run_latency.Add(ms);
        interval_latency.Add(ms);
        if (r.error) ++interval_errors;
      });

  RunResult result;
  result.policy_name = policy->name();

  const size_t num_intervals = options_.trace.num_steps();
  result.intervals.reserve(num_intervals);

  // Observability: register the decision-counter block, size the primary
  // shard (setup-time), and build the sink the loop records through.
  obs::Observability* ob = options_.obs;
  obs::Sink sink;
  obs::MetricId decision_base = 0;
  if (ob != nullptr) {
    decision_base = scaler::RegisterDecisionCounters(&ob->registry());
    engine.EnableObservability(ob);
    sink = ob->PrimarySink();
  }

  generator.Start();
  const double samples_per_interval =
      options_.interval_duration / options_.sample_period;
  const int whole_samples =
      std::max(1, static_cast<int>(samples_per_interval));

  // A resolved request: the host plane books it, and the policy hears of
  // it before its next decision.
  auto settle = [&](const scaler::ActuationFeedback& ev) {
    if (host_enabled) {
      tenant_host =
          host_map->Settle(ev, tenant_host, migration_dest, current.resources);
      if (ev.kind == scaler::ActuationKind::kMigration &&
          sink.pipeline != nullptr) {
        sink.metrics.Add(ev.phase == scaler::ActuationPhase::kApplied
                             ? sink.pipeline->host_migrations_total
                             : sink.pipeline->host_migration_failures_total,
                         1.0);
      }
    }
    feedback = ev;
  };
  // An applied resize or migration: the engine and the counters follow the
  // new container.
  auto apply = [&](const scaler::ActuationFeedback& ev) {
    DBSCALE_CHECK(engine.CompleteResize().ok());
    ++result.container_changes;
    settle(ev);
    if (sink.pipeline != nullptr) {
      sink.metrics.Add(sink.pipeline->sim_resizes_total, 1.0);
      sink.metrics.Add(ev.target.base_rung > current.base_rung
                           ? sink.pipeline->sim_scale_ups_total
                           : sink.pipeline->sim_scale_downs_total,
                       1.0);
      sink.metrics.Add(sink.pipeline->resize_applies_total, 1.0);
    }
    current = ev.target;
  };
  // A transient failure (revealed at cutover for a migration, whose
  // blackout the tenant already suffered).
  auto fail = [&](const scaler::ActuationFeedback& ev) {
    ++result.resize_failures;
    settle(ev);
    if (sink.pipeline != nullptr) {
      sink.metrics.Add(sink.pipeline->resize_failures_total, 1.0);
    }
  };

  // One telemetry-fault tally: the run's counter and its pipeline metric.
  auto tally = [&](uint64_t* counter,
                   obs::MetricId obs::PipelineMetrics::*metric) {
    ++*counter;
    if (sink.pipeline != nullptr) sink.metrics.Add(sink.pipeline->*metric, 1.0);
  };

  SimTime interval_start = SimTime::Zero();
  for (size_t i = 0; i < num_intervals; ++i) {
    const SimTime interval_end =
        interval_start + options_.interval_duration;
    if (ob != nullptr) {
      ob->trace().BeginInterval(static_cast<int>(i), interval_start);
    }

    // Asynchronous actuation lifecycle: an in-flight resize or migration
    // resolves at the START of an interval — the new container (if the
    // actuation succeeded) is in effect, and therefore billed, for the
    // whole interval.
    if (actuator.pending()) {
      const scaler::ActuationFeedback ev = actuator.Tick();
      switch (ev.phase) {
        case scaler::ActuationPhase::kApplied:
          apply(ev);
          break;
        case scaler::ActuationPhase::kFailed:
          DBSCALE_CHECK(engine.AbortResize().ok());
          fail(ev);
          break;
        case scaler::ActuationPhase::kPending:
          if (sink.pipeline != nullptr) {
            sink.metrics.Add(sink.pipeline->resize_pending_intervals_total,
                             1.0);
          }
          feedback = ev;
          break;
        default:
          break;
      }
    }

    IntervalRecord record;
    record.index = static_cast<int>(i);
    record.container = current;
    record.cost = current.price_per_interval;

    if (host_enabled) {
      // Noisy neighbors: fold the previous interval's CPU demand (clamped
      // to the container) into per-host pressure, then throttle this
      // interval's observed waits accordingly. A tenant inside its own
      // migration blackout is additionally degraded by the downtime
      // factor.
      host_demand.assign(host_demand.size(), 0.0);
      host_demand[static_cast<size_t>(tenant_host)] =
          std::min(prev_cpu_demand, current.resources.cpu_cores);
      host_map->UpdateInterference(host_demand);
      const bool in_downtime = actuator.in_downtime();
      if (in_downtime) {
        host_map->AddDowntimeInterval();
        if (sink.pipeline != nullptr) {
          sink.metrics.Add(
              sink.pipeline->host_migration_downtime_intervals_total, 1.0);
        }
      }
      double throttle = host_map->throttle(tenant_host);
      if (in_downtime) throttle *= options_.host.migration_downtime_wait_factor;
      engine.SetHostThrottle(throttle);
      record.throttle_factor = throttle;
      record.in_migration_downtime = in_downtime;
    }

    // Advance sample by sample, collecting telemetry.
    container::ResourceVector usage_sum;
    double memory_used_sum = 0.0;
    for (int s = 0; s < whole_samples; ++s) {
      const SimTime sample_end =
          (s == whole_samples - 1)
              ? interval_end
              : interval_start + options_.sample_period * (s + 1);
      events.RunUntil(sample_end);
      telemetry::TelemetrySample sample = engine.CollectSample();
      for (ResourceKind kind : container::kAllResources) {
        const size_t ri = static_cast<size_t>(kind);
        record.utilization_pct[ri] += sample.utilization_pct[ri];
        if (kind == ResourceKind::kMemory) {
          usage_sum.Set(kind,
                        usage_sum.Get(kind) + sample.memory_active_mb);
        } else {
          usage_sum.Set(kind, usage_sum.Get(kind) +
                                  sample.utilization_pct[ri] / 100.0 *
                                      sample.allocation.Get(kind));
        }
      }
      for (size_t w = 0; w < telemetry::kNumWaitClasses; ++w) {
        record.wait_ms[w] += sample.wait_ms[w];
      }
      record.completed += sample.requests_completed;
      memory_used_sum += sample.memory_used_mb;
      if (options_.keep_samples) result.samples.push_back(sample);
      // Telemetry-fault ingestion: the engine always collects (the record's
      // ground truth above stays exact); what reaches the store may be
      // dropped, corrupted, or stale. Dropped and rejected samples leave
      // time gaps the signal window's coverage check later detects.
      if (faulty) {
        const fault::SampleFault sample_fault =
            telemetry_edge.Apply(&fault_plan, &sample);
        if (sample_fault == fault::SampleFault::kDrop) {
          tally(&result.telemetry_dropped_samples,
                &obs::PipelineMetrics::telemetry_dropped_samples_total);
          continue;
        }
        if (sample_fault == fault::SampleFault::kNan &&
            !fault::SampleLooksValid(sample)) {
          // Ingestion guard: non-finite samples never reach the store.
          tally(&result.telemetry_rejected_samples,
                &obs::PipelineMetrics::telemetry_rejected_samples_total);
          continue;
        }
        if (sample_fault == fault::SampleFault::kOutlier) {
          tally(&result.telemetry_outlier_samples,
                &obs::PipelineMetrics::telemetry_outlier_samples_total);
        } else if (sample_fault == fault::SampleFault::kStale) {
          tally(&result.telemetry_stale_samples,
                &obs::PipelineMetrics::telemetry_stale_samples_total);
        }
      }
      store.Append(sample);
    }
    const double inv = 1.0 / whole_samples;
    for (ResourceKind kind : container::kAllResources) {
      const size_t ri = static_cast<size_t>(kind);
      record.utilization_pct[ri] *= inv;
      record.usage.Set(kind, usage_sum.Get(kind) * inv);
    }
    record.memory_used_mb = memory_used_sum * inv;
    if (host_enabled) {
      prev_cpu_demand = record.usage.Get(ResourceKind::kCpu);
    }
    if (interval_latency.count() > 0) {
      record.latency_avg_ms = interval_latency.mean();
      record.latency_p95_ms = interval_latency.ValueAtPercentile(95.0);
    }
    record.errors = static_cast<int64_t>(interval_errors);
    interval_latency.Reset();
    interval_errors = 0;

    // Decision for the next interval. Spans nest under this interval's
    // root; the whole block no-ops when observability is off.
    const SimTime now = events.Now();
    const obs::Sink isink =
        ob != nullptr ? sink.Under(ob->trace().root()) : sink;

    const obs::SpanId tele_span = isink.trace.Start("telemetry.compute", now);
    scaler::PolicyInput input;
    input.now = now;
    input.signals = manager.Compute(store, now, &signal_scratch, isink);
    input.current = current;
    input.interval_index = static_cast<int>(i);
    // Engine-truth mean usage of the ended interval (service harnesses
    // that only see signals leave this zero).
    input.usage = record.usage;
    // The decision cycle carries the billing of the interval that just
    // ended (there is no separate charge callback). Billing follows the
    // container actually in effect, so budget tokens are only charged for
    // successfully applied resizes.
    input.charged_cost = current.price_per_interval;
    input.actuation = feedback;
    feedback = scaler::ActuationFeedback{};
    if (host_enabled) {
      input.placement.present = true;
      input.placement.host_id = tenant_host;
      input.placement.free = host_map->FreeOn(tenant_host);
      input.placement.throttle_factor = host_map->throttle(tenant_host);
      input.placement.saturated = host_map->saturated(tenant_host);
    }
    if (input.signals.degraded) ++result.degraded_windows;
    isink.trace.Attr(tele_span, "valid", input.signals.valid ? 1.0 : 0.0);
    isink.trace.Attr(tele_span, "latency_ms", input.signals.latency_ms);
    isink.trace.End(tele_span, now);

    const obs::SpanId decide_span = isink.trace.Start("decide", now);
    input.obs = isink.Under(decide_span);
    scaler::ScalingDecision decision = policy->Decide(input);
    isink.trace.AttrStr(
        decide_span, "code",
        scaler::ExplanationCodeToken(decision.explanation.code));
    isink.trace.Attr(decide_span, "target_rung", decision.target.base_rung);
    isink.trace.End(decide_span, now);

    // Every policy must state why it decided (acceptance contract of the
    // structured explanation API).
    DBSCALE_CHECK(decision.explanation.set());
    record.decision_code = decision.explanation.code;
    record.decision_explanation = decision.explanation.ToString();

    if (decision.target.id != current.id && !actuator.pending()) {
      record.resized = true;
      ++result.resize_attempts;
      const obs::SpanId resize_span = isink.trace.Start("resize", now);
      isink.trace.Attr(resize_span, "from_rung", current.base_rung);
      isink.trace.Attr(resize_span, "to_rung", decision.target.base_rung);
      if (isink.pipeline != nullptr) {
        isink.metrics.Add(isink.pipeline->resize_requests_total, 1.0);
      }
      // Placement-aware actuation: classify the decision as a local
      // resize (delta fits next to the host's other commitments) or a
      // migration to the policy's chosen destination. Without a fault
      // plan or host plane every request resolves at Begin as kApplied,
      // attempt 1, with no draw from any RNG stream.
      scaler::ActuationKind kind = scaler::ActuationKind::kLocalResize;
      container::ResourceVector up_delta;
      bool held_by_placement = false;
      if (host_enabled) {
        up_delta = host::UpDelta(current.resources, decision.target.resources);
        if (!host_map->FitsOn(tenant_host, up_delta)) {
          kind = scaler::ActuationKind::kMigration;
          migration_dest = placement->ChooseHost(
              *host_map, decision.target.resources, tenant_host);
          if (migration_dest < 0) {
            // No host in the fleet has capacity: held before actuation
            // (nothing is drawn from the fault plan), reported to the
            // policy as a rejected migration so its cooldown applies.
            host_map->AddPlacementHold();
            feedback = scaler::ActuationFeedback{
                scaler::ActuationPhase::kRejected, kind, decision.target,
                /*attempt=*/1};
            held_by_placement = true;
            if (isink.pipeline != nullptr) {
              isink.metrics.Add(isink.pipeline->host_placement_holds_total,
                                1.0);
            }
          }
        }
      }
      if (!held_by_placement) {
        const scaler::ActuationFeedback ev =
            actuator.Begin(decision.target, kind);
        // The sim reserves a local resize's up-delta before it commits or
        // aborts, zero-latency ones included.
        if (host_enabled && ev.phase != scaler::ActuationPhase::kRejected) {
          if (kind == scaler::ActuationKind::kMigration) {
            host_map->BeginMigration(migration_dest,
                                     decision.target.resources);
            if (isink.pipeline != nullptr) {
              isink.metrics.Add(isink.pipeline->host_migrations_begun_total,
                                1.0);
            }
          } else {
            host_map->ReserveLocal(tenant_host, up_delta);
          }
        }
        switch (ev.phase) {
          case scaler::ActuationPhase::kApplied:
            // Zero actuation latency (local resizes only — a migration
            // always spends its copy + blackout intervals pending): in
            // effect from the next interval.
            DBSCALE_CHECK(engine.BeginResize(ev.target).ok());
            apply(ev);
            break;
          case scaler::ActuationPhase::kPending:
            // Stage the change in the engine; it completes (or aborts)
            // when the actuation latency elapses.
            DBSCALE_CHECK(engine.BeginResize(ev.target).ok());
            feedback = ev;
            break;
          case scaler::ActuationPhase::kFailed:
            fail(ev);
            break;
          case scaler::ActuationPhase::kRejected:
            ++result.resize_rejections;
            if (isink.pipeline != nullptr) {
              isink.metrics.Add(isink.pipeline->resize_rejections_total, 1.0);
            }
            feedback = ev;
            break;
          default:
            break;
        }
      }
      isink.trace.End(resize_span, now);
    }
    if (decision.memory_limit_mb.has_value()) {
      engine.SetMemoryLimitMb(*decision.memory_limit_mb);
      if (isink.pipeline != nullptr) {
        isink.metrics.Add(isink.pipeline->sim_memory_limit_applies_total,
                          1.0);
      }
    }
    if (isink.pipeline != nullptr) {
      isink.metrics.Add(
          decision_base +
              static_cast<obs::MetricId>(decision.explanation.code),
          1.0);
      isink.metrics.Add(isink.pipeline->sim_intervals_total, 1.0);
      isink.metrics.Add(isink.pipeline->sim_cost_total, record.cost);
      isink.metrics.Add(isink.pipeline->sim_requests_total,
                        static_cast<double>(record.completed));
      isink.metrics.Add(isink.pipeline->sim_errors_total,
                        static_cast<double>(record.errors));
      isink.metrics.Observe(isink.pipeline->sim_interval_latency_p95_ms,
                            record.latency_p95_ms);
    }
    if (ob != nullptr) ob->trace().EndInterval(interval_end);

    result.intervals.push_back(std::move(record));
    interval_start = interval_end;
  }

  // Aggregate run-level results.
  for (const IntervalRecord& r : result.intervals) {
    result.total_cost += r.cost;
    result.total_errors += static_cast<uint64_t>(r.errors);
  }
  result.avg_cost_per_interval =
      result.total_cost / static_cast<double>(num_intervals);
  result.change_fraction =
      static_cast<double>(result.container_changes) /
      static_cast<double>(num_intervals);
  result.total_completed = static_cast<uint64_t>(run_latency.count());
  if (run_latency.count() > 0) {
    result.latency_avg_ms = run_latency.mean();
    result.latency_p95_ms = run_latency.ValueAtPercentile(95.0);
    result.latency_p99_ms = run_latency.ValueAtPercentile(99.0);
    result.latency_max_ms = run_latency.max_seen();
  }
  result.events_processed = events.events_processed();
  if (host_enabled) {
    const host::HostMap::Counters& hc = host_map->counters();
    result.migrations_begun = hc.migrations_begun;
    result.migrations_completed = hc.migrations_completed;
    result.migration_failures = hc.migrations_failed;
    result.migration_downtime_intervals = hc.downtime_intervals;
    result.host_saturated_holds = hc.placement_holds;
    result.host_digest = host_map->Digest();
  }
  return result;
}

}  // namespace dbscale::sim
