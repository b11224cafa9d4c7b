#include "src/fleet/fleet_scale.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "src/common/thread_pool.h"
#include "src/fault/actuator.h"
#include "src/fleet/checkpoint.h"
#include "src/host/placement.h"
#include "src/stats/robust.h"

namespace dbscale::fleet {

namespace {
/// Hour slot buffer of one tenant: per resource, four series (utilization,
/// wait ms, wait share, wait per request) of one slot per interval.
constexpr size_t kHourSeries = 4;
constexpr size_t kHourSlots = static_cast<size_t>(container::kNumResources) *
                              kHourSeries * kIntervalsPerHour;
/// Claim granularity for the per-tenant init fan-out (the body is a few
/// microseconds, so claiming one tenant per fetch_add would serialize on
/// the atomic).
constexpr int64_t kInitGrain = 1024;
}  // namespace

// ---------------------------------------------------------------------------
// FleetSoaState

void FleetSoaState::Resize(int num_tenants, bool act_enabled,
                           bool host_enabled) {
  const size_t n = static_cast<size_t>(num_tenants);
  rng_state.assign(n, 0);
  rng_inc.assign(n, 0);
  rng_cached_normal.assign(n, 0.0);
  rng_has_cached.assign(n, 0);
  ar_state.assign(n, 0.0);
  burst_active.assign(n, 0);
  prev_rung.assign(n, -1);
  last_change_interval.assign(n, -1);
  changes.assign(n, 0);
  tenant_digest.assign(n, Fnv64Stream{}.value);
  const size_t nf = act_enabled ? n : 0;
  applied_rung.assign(nf, -1);
  plan_rng_state.assign(nf, 0);
  plan_rng_inc.assign(nf, 0);
  plan_rng_cached_normal.assign(nf, 0.0);
  plan_rng_has_cached.assign(nf, 0);
  act_pending.assign(nf, 0);
  act_target_rung.assign(nf, -1);
  act_fate.assign(nf, 0);
  act_remaining.assign(nf, 0);
  act_attempt.assign(nf, 0);
  act_last_target.assign(nf, -1);
  const size_t nh = host_enabled ? n : 0;
  host_of.assign(nh, -1);
  act_kind.assign(nh, 0);
  act_dest.assign(nh, -1);
  prev_demand_cpu.assign(nh, 0.0);
  params.assign(n, TenantParams{});
}

Rng::State FleetSoaState::ModelRngAt(size_t i) const {
  Rng::State s;
  s.state = rng_state[i];
  s.inc = rng_inc[i];
  s.has_cached_normal = rng_has_cached[i] != 0;
  s.cached_normal = rng_cached_normal[i];
  return s;
}

void FleetSoaState::SetModelRngAt(size_t i, const Rng::State& s) {
  rng_state[i] = s.state;
  rng_inc[i] = s.inc;
  rng_has_cached[i] = s.has_cached_normal ? 1 : 0;
  rng_cached_normal[i] = s.cached_normal;
}

Rng::State FleetSoaState::PlanRngAt(size_t i) const {
  Rng::State s;
  s.state = plan_rng_state[i];
  s.inc = plan_rng_inc[i];
  s.has_cached_normal = plan_rng_has_cached[i] != 0;
  s.cached_normal = plan_rng_cached_normal[i];
  return s;
}

void FleetSoaState::SetPlanRngAt(size_t i, const Rng::State& s) {
  plan_rng_state[i] = s.state;
  plan_rng_inc[i] = s.inc;
  plan_rng_has_cached[i] = s.has_cached_normal ? 1 : 0;
  plan_rng_cached_normal[i] = s.cached_normal;
}

fault::ResizeActuator::State FleetSoaState::ActuatorAt(size_t i) const {
  fault::ResizeActuator::State s;
  s.pending = act_pending[i] != 0;
  s.target_rung = act_target_rung[i];
  s.fate = static_cast<fault::ResizeFate>(act_fate[i]);
  s.remaining_intervals = act_remaining[i];
  s.attempt = act_attempt[i];
  s.last_target_id = act_last_target[i];
  if (host_sized()) s.kind = static_cast<fault::ActuationKind>(act_kind[i]);
  return s;
}

void FleetSoaState::SetActuatorAt(size_t i,
                                  const fault::ResizeActuator::State& s) {
  act_pending[i] = s.pending ? 1 : 0;
  act_target_rung[i] = s.target_rung;
  act_fate[i] = static_cast<uint8_t>(s.fate);
  act_remaining[i] = s.remaining_intervals;
  act_attempt[i] = s.attempt;
  act_last_target[i] = s.last_target_id;
  if (host_sized()) act_kind[i] = static_cast<uint8_t>(s.kind);
}

namespace {
template <typename T>
uint64_t VecBytes(const std::vector<T>& v) {
  return static_cast<uint64_t>(v.capacity()) * sizeof(T);
}
}  // namespace

uint64_t FleetSoaState::HotBytes() const {
  uint64_t bytes = 0;
  ForEachArray(*this, true, true,
               [&bytes](const auto& v) { bytes += VecBytes(v); });
  return bytes;
}

uint64_t FleetSoaState::TotalBytes() const {
  return HotBytes() + VecBytes(params);
}

// ---------------------------------------------------------------------------
// Options

Status FlashCrowdOptions::Validate() const {
  if (!enabled()) return Status::OK();
  if (duration_intervals <= 0) {
    return Status::InvalidArgument(
        "flash_crowd.duration_intervals must be positive");
  }
  if (demand_multiplier <= 0.0) {
    return Status::InvalidArgument(
        "flash_crowd.demand_multiplier must be positive");
  }
  if (num_hosts_hit <= 0) {
    return Status::InvalidArgument("flash_crowd.num_hosts_hit must be >= 1");
  }
  return Status::OK();
}

Status FleetScaleOptions::Validate() const {
  if (num_tenants <= 0 || num_intervals <= 0) {
    return Status::InvalidArgument(
        "num_tenants and num_intervals must be positive");
  }
  if (block_size <= 0) {
    return Status::InvalidArgument("block_size must be positive");
  }
  if (epoch_intervals <= 0 || epoch_intervals % kIntervalsPerHour != 0) {
    return Status::InvalidArgument(
        "epoch_intervals must be a positive multiple of 12 (hour-aligned)");
  }
  if (stop_after_intervals < 0) {
    return Status::InvalidArgument("stop_after_intervals must be >= 0");
  }
  if (checkpoint_every_epochs <= 0) {
    return Status::InvalidArgument("checkpoint_every_epochs must be >= 1");
  }
  DBSCALE_RETURN_IF_ERROR(host.Validate());
  DBSCALE_RETURN_IF_ERROR(flash_crowd.Validate());
  if (flash_crowd.enabled()) {
    if (!host.enabled()) {
      return Status::InvalidArgument(
          "flash_crowd requires the host plane (host.num_hosts > 0)");
    }
    if (flash_crowd.num_hosts_hit > host.num_hosts) {
      return Status::InvalidArgument(
          "flash_crowd.num_hosts_hit exceeds host.num_hosts");
    }
  }
  return fault.Validate();
}

int FleetScaleOptions::NumBlocks() const {
  return (num_tenants + block_size - 1) / block_size;
}

uint64_t FleetScaleFingerprint(const container::Catalog& catalog,
                               const FleetScaleOptions& options) {
  Fnv64Stream h;
  h.Bytes("dbscale.fleet_scale.v1", 22);
  h.I32(catalog.size());
  h.I32(catalog.num_rungs());
  for (const container::ContainerSpec& spec : catalog.specs()) {
    h.Dbl(spec.price_per_interval);
  }
  h.I32(options.num_tenants);
  h.I32(options.num_intervals);
  h.U64(options.seed);
  h.I32(options.block_size);
  h.I32(options.epoch_intervals);
  const TenantModelOptions& t = options.tenant;
  h.Dbl(t.p_steady);
  h.Dbl(t.p_diurnal);
  h.Dbl(t.p_bursty);
  h.Dbl(t.p_spiky);
  h.Dbl(t.p_growth);
  h.Dbl(t.ar_rho);
  h.Dbl(t.ar_sigma);
  h.Dbl(t.ar_sigma_spread);
  h.Dbl(t.wait_noise_sigma);
  h.Dbl(t.storm_probability);
  h.Dbl(t.smooth_fraction);
  h.I32(t.intervals_per_day);
  const fault::FaultPlanOptions& f = options.fault;
  h.U64(f.enabled() ? 1 : 0);
  h.Dbl(f.resize.failure_probability);
  h.Dbl(f.resize.rejection_probability);
  h.I32(f.resize.min_latency_intervals);
  h.I32(f.resize.max_latency_intervals);
  h.Dbl(f.telemetry.drop_probability);
  h.Dbl(f.telemetry.nan_probability);
  h.Dbl(f.telemetry.outlier_probability);
  h.Dbl(f.telemetry.outlier_factor);
  h.Dbl(f.telemetry.stale_probability);
  const host::HostOptions& hst = options.host;
  h.U64(hst.enabled() ? 1 : 0);
  h.I32(hst.num_hosts);
  for (const auto kind : container::kAllResources) {
    h.Dbl(hst.capacity.Get(kind));
  }
  h.Dbl(hst.overcommit_factor);
  h.I32(hst.migration_latency_intervals);
  h.I32(hst.migration_downtime_intervals);
  h.Dbl(hst.migration_downtime_wait_factor);
  h.Dbl(hst.interference_start_ratio);
  h.Dbl(hst.interference_slope);
  h.U64(static_cast<uint64_t>(hst.placement));
  for (const auto kind : container::kAllResources) {
    h.Dbl(hst.background.Get(kind));
  }
  h.I32(hst.hot_hosts);
  for (const auto kind : container::kAllResources) {
    h.Dbl(hst.hot_extra.Get(kind));
  }
  const FlashCrowdOptions& fc = options.flash_crowd;
  h.U64(fc.enabled() ? 1 : 0);
  h.I32(fc.start_interval);
  h.I32(fc.duration_intervals);
  h.Dbl(fc.demand_multiplier);
  h.I32(fc.num_hosts_hit);
  return h.value;
}

// ---------------------------------------------------------------------------
// The per-tenant interval step, shared by every fleet path

namespace {

/// What one tenant carries from interval to interval: the model's generator
/// position and recurrence, change tracking, and its digest stream. Loaded
/// from and stored to the tenant's SoA slots around each visit.
struct TenantCursor {
  Rng rng;
  TenantDynamics dyn;
  int prev_rung = -1;
  int last_change_interval = -1;
  int changes = 0;
  Fnv64Stream hash;
};

TenantCursor LoadCursor(const FleetSoaState& state, size_t i) {
  return TenantCursor{Rng::FromState(state.ModelRngAt(i)),
                      TenantDynamics{state.ar_state[i],
                                     state.burst_active[i] != 0},
                      state.prev_rung[i], state.last_change_interval[i],
                      state.changes[i], Fnv64Stream{state.tenant_digest[i]}};
}

void StoreCursor(FleetSoaState& state, size_t i, const TenantCursor& c) {
  state.SetModelRngAt(i, c.rng.SaveState());
  state.ar_state[i] = c.dyn.ar_state;
  state.burst_active[i] = c.dyn.burst_active ? 1 : 0;
  state.prev_rung[i] = c.prev_rung;
  state.last_change_interval[i] = c.last_change_interval;
  state.changes[i] = c.changes;
  state.tenant_digest[i] = c.hash.value;
}

/// Where a claimed block's emissions go: its aggregate and metric shard,
/// plus its materializing target on the exact path.
struct BlockSink {
  BlockSink(FleetAggregate& block_agg, obs::MetricShard* shard,
            const obs::Observability* obs, FleetBlockRecords* block_records,
            int run_intervals)
      : agg(block_agg),
        metrics{shard},
        pm(shard != nullptr ? &obs->pipeline() : nullptr),
        records(block_records),
        num_intervals(run_intervals) {}

  FleetAggregate& agg;
  obs::MetricSink metrics;
  const obs::PipelineMetrics* pm;  ///< null when observability is off
  FleetBlockRecords* records;      ///< null unless materializing
  int num_intervals;
};

/// Median of one 12-slot hour series, selected from the hour buffer itself:
/// every slot is rewritten before the next flush.
double HourMedian(double* series) {
  return stats::MedianInPlace(std::span<double>(series, kIntervalsPerHour))
      .value_or(0.0);
}

// dbscale-hot: once per tenant-interval on every fleet path. Allocation-free
// except the exact path's materialized records, which grow amortized.
//
// Everything after StepTenant: change-event tracking (Figure 2) on the rung
// the tenant ran on, the hour fold into slot t % 12 of `hour`, the
// hourly-median flush, the end-of-run change total, and the tenant's digest
// stream (steps and gaps, hourly medians, final change count, always in
// ascending interval order). Both callers start on an hour boundary, so a
// flush reads exactly this hour's 12 samples; a trailing partial hour is
// never flushed.
void StepEmissions(int tenant, int t, const TenantInterval& interval,
                   int observed_rung, double* hour, TenantCursor& cur,
                   BlockSink& out) {
  if (t == 0 && out.pm != nullptr) {
    out.metrics.Add(out.pm->fleet_tenants_total, 1.0);
  }
  if (cur.prev_rung >= 0 && observed_rung != cur.prev_rung) {
    ++cur.changes;
    const int step = std::abs(observed_rung - cur.prev_rung);
    const int gap =
        cur.last_change_interval >= 0 ? t - cur.last_change_interval : 0;
    const double minutes = static_cast<double>(gap) * kIntervalMinutes;
    out.agg.AddChangeEvent(step, gap);
    cur.hash.I32(step);
    cur.hash.I32(gap);
    if (gap > 0 && out.records != nullptr) {
      out.records->inter_event_minutes.push_back(minutes);
    }
    if (out.pm != nullptr) {
      out.metrics.Add(out.pm->fleet_container_changes_total, 1.0);
      out.metrics.Observe(out.pm->fleet_change_step_rungs,
                          static_cast<double>(step));
      if (gap > 0) {
        out.metrics.Observe(out.pm->fleet_inter_event_minutes, minutes);
      }
    }
    cur.last_change_interval = t;
  }
  cur.prev_rung = observed_rung;
  if (out.pm != nullptr) {
    out.metrics.Add(out.pm->fleet_tenant_intervals_total, 1.0);
  }

  const size_t slot = static_cast<size_t>(t % kIntervalsPerHour);
  const double completed =
      static_cast<double>(std::max<int64_t>(1, interval.completed));
  for (size_t r = 0; r < container::kNumResources; ++r) {
    double* series = hour + r * kHourSeries * kIntervalsPerHour;
    series[0 * kIntervalsPerHour + slot] = interval.utilization_pct[r];
    series[1 * kIntervalsPerHour + slot] = interval.wait_ms[r];
    series[2 * kIntervalsPerHour + slot] = interval.wait_pct[r];
    series[3 * kIntervalsPerHour + slot] = interval.wait_ms[r] / completed;
  }
  if ((t + 1) % kIntervalsPerHour == 0) {
    HourlyRecord record;
    record.tenant_id = tenant;
    record.hour = t / kIntervalsPerHour;
    for (size_t r = 0; r < container::kNumResources; ++r) {
      double* series = hour + r * kHourSeries * kIntervalsPerHour;
      record.utilization_pct[r] = HourMedian(series);
      record.wait_ms[r] = HourMedian(series + kIntervalsPerHour);
      record.wait_pct[r] = HourMedian(series + 2 * kIntervalsPerHour);
      record.wait_ms_per_request[r] = HourMedian(series + 3 * kIntervalsPerHour);
      cur.hash.Dbl(record.utilization_pct[r]);
      cur.hash.Dbl(record.wait_ms[r]);
      cur.hash.Dbl(record.wait_pct[r]);
      cur.hash.Dbl(record.wait_ms_per_request[r]);
    }
    out.agg.AddHourlyRecord(record);
    if (out.records != nullptr) out.records->hourly.push_back(record);
    if (out.pm != nullptr) {
      out.metrics.Add(out.pm->fleet_hourly_records_total, 1.0);
    }
  }

  if (t + 1 == out.num_intervals) {
    out.agg.AddTenantChanges(cur.changes);
    cur.hash.I32(cur.changes);
    out.agg.ChainDigest(cur.hash.value);
    if (out.records != nullptr) {
      const double days = static_cast<double>(out.num_intervals) *
                          kIntervalMinutes / (60.0 * 24.0);
      out.records->tenant_changes.push_back(TenantChangeStats{
          tenant, cur.changes, days > 0.0 ? cur.changes / days : 0.0});
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Runner

// Construction only stores the options; RunFrom() validates them before the
// first interval so Resume() can share the same checked path.
// dbscale-lint: allow(options-validate)
FleetScaleRunner::FleetScaleRunner(const container::Catalog& catalog,
                                   FleetScaleOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      fault_enabled_(options_.fault.enabled()),
      host_enabled_(options_.host.enabled()) {}

ThreadPool& FleetScaleRunner::Pool() {
  if (options_.num_threads == 0) return ThreadPool::Global();
  if (own_pool_ == nullptr) {
    own_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  return *own_pool_;
}

obs::MetricShard* FleetScaleRunner::BlockShard(size_t block) {
  return shard_pool_.attached() ? &shard_pool_.shard(block) : nullptr;
}

Status FleetScaleRunner::InitTenants() {
  state_.Resize(options_.num_tenants, fault_enabled_ || host_enabled_,
                host_enabled_);

  // Phase 1, serial: pre-fork every tenant's generator from the root. The
  // fork order defines each tenant's stream, so it must not depend on
  // scheduling.
  Rng root(options_.seed);
  for (int i = 0; i < options_.num_tenants; ++i) {
    Rng forked = root.Fork();
    state_.SetModelRngAt(static_cast<size_t>(i), forked.SaveState());
  }

  // Phase 2, parallel: per-tenant derivations. Each tenant touches only
  // its own slots, so this is order-free. The fault stream forks off the
  // tenant generator BEFORE the model draws its constants, and only when
  // the plan is enabled: a null plan leaves the model's stream (and every
  // fleet digest) as it was before the fault layer existed.
  auto init_tenant = [&](int64_t i) {
    const size_t idx = static_cast<size_t>(i);
    Rng rng = Rng::FromState(state_.ModelRngAt(idx));
    if (fault_enabled_) {
      Rng plan_rng = rng.Fork();
      state_.SetPlanRngAt(idx, plan_rng.SaveState());
    }
    state_.params[idx] = DrawTenantParams(catalog_, options_.tenant, rng);
    state_.SetModelRngAt(idx, rng.SaveState());
  };
  Pool().ParallelFor(0, options_.num_tenants, init_tenant, kInitGrain);

  // Host plane: seed-place every tenant's initial container (the cheapest
  // rung dominating its base demand) with first-fit-decreasing, remember
  // which tenants sit on the flash-crowd hosts, and size the per-interval
  // scratch. All serial and derived purely from the seed, so Resume()
  // reproduces it exactly.
  if (host_enabled_) {
    const size_t n = static_cast<size_t>(options_.num_tenants);
    host_map_.emplace(options_.host);
    placement_ = host::MakePlacementPolicy(options_.host.placement);
    std::vector<container::ContainerSpec> initial(n);
    for (size_t i = 0; i < n; ++i) {
      initial[i] = catalog_.CheapestDominating(state_.params[i].base_demand);
    }
    DBSCALE_ASSIGN_OR_RETURN(std::vector<int> placed,
                             host_map_->SeedPlace(initial));
    flash_affected_.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      state_.host_of[i] = placed[i];
      state_.applied_rung[i] = initial[i].base_rung;
      if (options_.flash_crowd.enabled() &&
          placed[i] < options_.flash_crowd.num_hosts_hit) {
        flash_affected_[i] = 1;
      }
    }
    host_demand_.assign(static_cast<size_t>(options_.host.num_hosts), 0.0);
    tenant_throttle_.assign(n, 1.0);
    assigned_scratch_.assign(n, -1);
    hour_scratch_.assign(n * kHourSlots, 0.0);
  }

  block_aggs_.assign(static_cast<size_t>(options_.NumBlocks()),
                     FleetAggregate{});
  for (FleetAggregate& agg : block_aggs_) {
    agg.Init(catalog_.num_rungs(), options_.num_intervals);
  }
  completed_intervals_ = 0;
  return Status::OK();
}

void FleetScaleRunner::RunBlockEpoch(int block, int t0, int t1) {
  const int begin = block * options_.block_size;
  const int end = std::min(begin + options_.block_size, options_.num_tenants);
  BlockSink out(block_aggs_[static_cast<size_t>(block)],
                BlockShard(static_cast<size_t>(block)), options_.obs,
                records_ != nullptr
                    ? &(*records_)[static_cast<size_t>(block)]
                    : nullptr,
                options_.num_intervals);
  // One hour buffer serves the whole block: epochs are hour-aligned, so
  // each tenant refills every slot before its first flush.
  std::array<double, kHourSlots> hour{};

  for (int tenant = begin; tenant < end; ++tenant) {
    const size_t idx = static_cast<size_t>(tenant);
    TenantCursor cur = LoadCursor(state_, idx);
    fault::FaultPlan plan;
    if (fault_enabled_) {
      plan = fault::FaultPlan(options_.fault,
                              Rng::FromState(state_.PlanRngAt(idx)));
    }
    fault::ResizeActuator actuator(&plan);
    int applied_rung = -1;
    if (fault_enabled_) {
      actuator.RestoreState(state_.ActuatorAt(idx), catalog_);
      applied_rung = state_.applied_rung[idx];
    }
    const TenantParams& params = state_.params[idx];

    for (int t = t0; t < t1; ++t) {
      // An in-flight resize resolves at the START of the interval: on
      // success the new container serves this interval's demand.
      if (fault_enabled_ && actuator.pending()) {
        const fault::ActuationOutcome ev = actuator.Tick();
        if (ev.phase == fault::ActuationPhase::kApplied) {
          applied_rung = ev.target.base_rung;
        } else if (ev.phase == fault::ActuationPhase::kFailed) {
          ++out.agg.resize_failures;
          if (out.pm != nullptr) {
            out.metrics.Add(out.pm->fleet_resize_failures_total, 1.0);
          }
        }
      }

      const TenantInterval interval =
          StepTenant(catalog_, options_.tenant, params, cur.dyn, cur.rng, t,
                     fault_enabled_ ? applied_rung : -1);

      if (fault_enabled_) {
        if (applied_rung < 0) {
          // First interval: the tenant starts on its assigned container.
          applied_rung = interval.assigned_rung;
        } else if (!actuator.pending() &&
                   interval.assigned_rung != applied_rung) {
          const fault::ActuationOutcome ev =
              actuator.Begin(catalog_.rung(interval.assigned_rung));
          if (ev.attempt > 1) {
            ++out.agg.resize_retries;
            if (out.pm != nullptr) {
              out.metrics.Add(out.pm->fleet_resize_retries_total, 1.0);
            }
          }
          if (ev.phase == fault::ActuationPhase::kApplied) {
            applied_rung = ev.target.base_rung;
          } else if (ev.phase == fault::ActuationPhase::kFailed ||
                     ev.phase == fault::ActuationPhase::kRejected) {
            ++out.agg.resize_failures;
            if (out.pm != nullptr) {
              out.metrics.Add(out.pm->fleet_resize_failures_total, 1.0);
            }
          }
        }
      }

      // Under fault injection the tenant's changes are the containers it
      // actually LANDED on, not the ones it wanted.
      StepEmissions(tenant, t, interval,
                    fault_enabled_ ? applied_rung : interval.assigned_rung,
                    hour.data(), cur, out);
    }

    StoreCursor(state_, idx, cur);
    if (fault_enabled_) {
      state_.applied_rung[idx] = applied_rung;
      state_.SetPlanRngAt(idx, plan.SaveRngState());
      state_.SetActuatorAt(idx, actuator.SaveState());
    }
  }
}

// ---------------------------------------------------------------------------
// Host-mode interval-major phases. Hosts couple co-located tenants (the
// interference throttle at interval t depends on every resident's demand at
// t-1, and a migration moves capacity between hosts mid-run), so host mode
// cannot run blocks whole epochs apart. Instead each interval runs three
// phases: A (serial, tenant order) tick in-flight actuations and refresh
// throttles; B (parallel over blocks) step tenants; C (serial, tenant
// order) begin new actuations. Everything order-sensitive happens in the
// serial phases, so the digest is bit-identical at any thread count.

void FleetScaleRunner::HostTickActuations() {
  const int n = options_.num_tenants;
  const double downtime_factor = options_.host.migration_downtime_wait_factor;
  // Tick never draws from the fault plan (fates are drawn at Begin), so a
  // shared null plan suffices for restoring the actuator per tenant.
  fault::FaultPlan null_plan;
  fault::ResizeActuator actuator(&null_plan,
                                 options_.host.migration_latency_intervals,
                                 options_.host.migration_downtime_intervals);
  const obs::PipelineMetrics* pm =
      options_.obs != nullptr ? &options_.obs->pipeline() : nullptr;

  for (int i = 0; i < n; ++i) {
    const size_t idx = static_cast<size_t>(i);
    tenant_throttle_[idx] = 1.0;
    if (state_.act_pending[idx] == 0) continue;

    actuator.RestoreState(state_.ActuatorAt(idx), catalog_);
    const fault::ActuationOutcome ev = actuator.Tick();
    obs::MetricShard* shard =
        BlockShard(static_cast<size_t>(i / options_.block_size));
    obs::MetricSink sink{shard};
    const bool observed = pm != nullptr && shard != nullptr;

    if (ev.phase == fault::ActuationPhase::kApplied ||
        ev.phase == fault::ActuationPhase::kFailed) {
      // A failed migration is revealed at cutover: the tenant stays where
      // it was, having already suffered the blackout.
      state_.host_of[idx] = host_map_->Settle(
          ev, state_.host_of[idx], state_.act_dest[idx],
          catalog_.rung(state_.applied_rung[idx]).resources);
      state_.act_dest[idx] = -1;
      const bool migration = ev.kind == fault::ActuationKind::kMigration;
      if (ev.phase == fault::ActuationPhase::kApplied) {
        state_.applied_rung[idx] = ev.target.base_rung;
        if (migration && observed) sink.Add(pm->host_migrations_total, 1.0);
      } else {
        if (migration && observed) {
          sink.Add(pm->host_migration_failures_total, 1.0);
        }
        ++block_aggs_[static_cast<size_t>(i / options_.block_size)]
              .resize_failures;
        if (observed) sink.Add(pm->fleet_resize_failures_total, 1.0);
      }
    }
    state_.SetActuatorAt(idx, actuator.SaveState());

    // Migration blackout: the tenant's own waits are inflated and the
    // downtime is billed.
    if (actuator.in_downtime()) {
      host_map_->AddDowntimeInterval();
      tenant_throttle_[idx] *= downtime_factor;
      if (observed) sink.Add(pm->host_migration_downtime_intervals_total, 1.0);
    }
  }

  // Interference: fold the previous interval's resident CPU demand
  // (clamped per tenant to its applied container — a tenant cannot burn
  // more CPU than its container grants) into per-host pressure, then give
  // every tenant its host's throttle.
  std::fill(host_demand_.begin(), host_demand_.end(), 0.0);
  for (int i = 0; i < n; ++i) {
    const size_t idx = static_cast<size_t>(i);
    const double cap =
        catalog_.rung(state_.applied_rung[idx]).resources.cpu_cores;
    host_demand_[static_cast<size_t>(state_.host_of[idx])] +=
        std::min(state_.prev_demand_cpu[idx], cap);
  }
  host_map_->UpdateInterference(host_demand_);
  for (int i = 0; i < n; ++i) {
    const size_t idx = static_cast<size_t>(i);
    tenant_throttle_[idx] *=
        host_map_->throttle(state_.host_of[idx]);
  }
}

void FleetScaleRunner::HostStepBlock(int block, int t) {
  const int begin = block * options_.block_size;
  const int end = std::min(begin + options_.block_size, options_.num_tenants);
  BlockSink out(block_aggs_[static_cast<size_t>(block)],
                BlockShard(static_cast<size_t>(block)), options_.obs,
                records_ != nullptr
                    ? &(*records_)[static_cast<size_t>(block)]
                    : nullptr,
                options_.num_intervals);
  const FlashCrowdOptions& fc = options_.flash_crowd;
  const bool crowd_now = fc.enabled() && t >= fc.start_interval &&
                         t < fc.start_interval + fc.duration_intervals;

  for (int tenant = begin; tenant < end; ++tenant) {
    const size_t idx = static_cast<size_t>(tenant);
    TenantCursor cur = LoadCursor(state_, idx);
    const double demand_scale =
        (crowd_now && flash_affected_[idx] != 0) ? fc.demand_multiplier : 1.0;
    TenantInterval interval =
        StepTenant(catalog_, options_.tenant, state_.params[idx], cur.dyn,
                   cur.rng, t, state_.applied_rung[idx], demand_scale);
    assigned_scratch_[idx] = interval.assigned_rung;
    state_.prev_demand_cpu[idx] = interval.demand.cpu_cores;

    // Noisy-neighbor + blackout inflation. A uniform factor across
    // dimensions leaves the wait shares (wait_pct) untouched.
    const double throttle = tenant_throttle_[idx];
    // Exact-1.0 guard (not an epsilon test): skipping the multiply when no
    // inflation applies keeps unthrottled streams bit-identical.
    if (throttle != 1.0) {  // dbscale-lint: allow(float-equality)
      for (int ri = 0; ri < container::kNumResources; ++ri) {
        interval.wait_ms[static_cast<size_t>(ri)] *= throttle;
      }
    }

    // Interval-major execution visits a tenant once per interval, so its
    // hour slots persist in hour_scratch_ between visits.
    StepEmissions(tenant, t, interval, state_.applied_rung[idx],
                  hour_scratch_.data() + idx * kHourSlots, cur, out);
    StoreCursor(state_, idx, cur);
  }
}

void FleetScaleRunner::HostBeginActuations() {
  const int n = options_.num_tenants;
  const obs::PipelineMetrics* pm =
      options_.obs != nullptr ? &options_.obs->pipeline() : nullptr;

  for (int i = 0; i < n; ++i) {
    const size_t idx = static_cast<size_t>(i);
    if (state_.act_pending[idx] != 0) continue;
    const int assigned = assigned_scratch_[idx];
    if (assigned < 0 || assigned == state_.applied_rung[idx]) continue;

    const container::ContainerSpec& target = catalog_.rung(assigned);
    const container::ResourceVector old_bundle =
        catalog_.rung(state_.applied_rung[idx]).resources;
    const container::ResourceVector up_delta =
        host::UpDelta(old_bundle, target.resources);

    FleetAggregate& agg =
        block_aggs_[static_cast<size_t>(i / options_.block_size)];
    obs::MetricShard* shard =
        BlockShard(static_cast<size_t>(i / options_.block_size));
    obs::MetricSink sink{shard};
    const bool observed = pm != nullptr && shard != nullptr;

    // Placement decision: a scale-up that does not fit next to the host's
    // current allocation + reservations must migrate; scale-downs always
    // fit (their up-delta is zero).
    const bool migrate = !host_map_->FitsOn(state_.host_of[idx], up_delta);
    int dest = -1;
    if (migrate) {
      dest = placement_->ChooseHost(*host_map_, target.resources,
                                    state_.host_of[idx]);
      if (dest < 0) {
        // No host in the fleet has room: hold the scale-up without
        // consuming a fault draw, so the tenant retries next interval with
        // an unchanged fault stream.
        host_map_->AddPlacementHold();
        if (observed) sink.Add(pm->host_placement_holds_total, 1.0);
        continue;
      }
    }

    fault::FaultPlan plan;
    if (fault_enabled_) {
      plan = fault::FaultPlan(options_.fault,
                              Rng::FromState(state_.PlanRngAt(idx)));
    }
    fault::ResizeActuator actuator(&plan,
                                   options_.host.migration_latency_intervals,
                                   options_.host.migration_downtime_intervals);
    actuator.RestoreState(state_.ActuatorAt(idx), catalog_);

    const fault::ActuationOutcome ev = actuator.Begin(
        target, migrate ? fault::ActuationKind::kMigration
                        : fault::ActuationKind::kLocalResize);
    if (ev.attempt > 1) {
      ++agg.resize_retries;
      if (observed) sink.Add(pm->fleet_resize_retries_total, 1.0);
    }
    switch (ev.phase) {
      case fault::ActuationPhase::kPending:
        // A migration always starts here: latency + downtime >= 1.
        if (migrate) {
          host_map_->BeginMigration(dest, target.resources);
          state_.act_dest[idx] = dest;
          if (observed) sink.Add(pm->host_migrations_begun_total, 1.0);
        } else {
          host_map_->ReserveLocal(state_.host_of[idx], up_delta);
        }
        break;
      case fault::ActuationPhase::kApplied:
        // Committed unreserved, unlike the sim: reserving first would move
        // every host-mode fleet pin.
        host_map_->Settle(ev, state_.host_of[idx], dest, old_bundle);
        state_.applied_rung[idx] = target.base_rung;
        break;
      default:
        // A rejection (before any host accounting) or an immediate local
        // failure, which has no reservation to release.
        ++agg.resize_failures;
        if (observed) sink.Add(pm->fleet_resize_failures_total, 1.0);
        break;
    }

    state_.SetActuatorAt(idx, actuator.SaveState());
    if (fault_enabled_) state_.SetPlanRngAt(idx, plan.SaveRngState());
  }
}

Result<FleetScaleOutcome> FleetScaleRunner::RunFrom(int start_interval) {
  const int total = options_.num_intervals;
  const int num_blocks = options_.NumBlocks();

  // Observability setup: register + size the primary before the fan-out,
  // one pooled shard per block.
  if (options_.obs != nullptr) {
    options_.obs->AttachPrimary();
    shard_pool_.Attach(&options_.obs->registry(),
                       static_cast<size_t>(num_blocks));
  }

  // The stop point: the first epoch boundary at or past the request.
  int stop = total;
  if (options_.stop_after_intervals > 0 &&
      options_.stop_after_intervals < total) {
    const int epochs = (options_.stop_after_intervals +
                        options_.epoch_intervals - 1) /
                       options_.epoch_intervals;
    stop = std::min(total, epochs * options_.epoch_intervals);
  }

  const uint64_t fingerprint = FleetScaleFingerprint(catalog_, options_);
  ThreadPool& pool = Pool();

  completed_intervals_ = start_interval;
  int epochs_done = 0;
  while (completed_intervals_ < stop) {
    const int t0 = completed_intervals_;
    const int t1 = std::min(t0 + options_.epoch_intervals, total);
    if (host_enabled_) {
      // Interval-major: serial tick, parallel step, serial begin. Hour
      // buffers live in hour_scratch_ and are empty at every epoch
      // boundary (epochs are hour-aligned), so they need no checkpointing.
      for (int t = t0; t < t1; ++t) {
        HostTickActuations();
        pool.ParallelFor(0, num_blocks, [&](int64_t block) {
          HostStepBlock(static_cast<int>(block), t);
        });
        HostBeginActuations();
      }
    } else {
      pool.ParallelFor(0, num_blocks, [&](int64_t block) {
        RunBlockEpoch(static_cast<int>(block), t0, t1);
      });
    }
    completed_intervals_ = t1;
    ++epochs_done;

    const bool at_stop = completed_intervals_ >= stop;
    if (!options_.checkpoint_path.empty() &&
        (at_stop || epochs_done % options_.checkpoint_every_epochs == 0)) {
      DBSCALE_RETURN_IF_ERROR(SaveFleetCheckpoint(
          options_.checkpoint_path, fingerprint, completed_intervals_,
          state_, block_aggs_, host_map_ ? &*host_map_ : nullptr));
    }
  }

  // Merge per-block results in block order: bit-identical at any thread
  // count and across checkpoint/resume. The host digest (when the plane
  // ran) chains in before any block: host-then-tenant order.
  FleetScaleOutcome outcome;
  outcome.completed_intervals = completed_intervals_;
  outcome.complete = completed_intervals_ == total;
  outcome.aggregate.Init(catalog_.num_rungs(), total);
  if (host_enabled_) {
    outcome.host = host_map_->counters();
    outcome.host_digest = host_map_->Digest();
    outcome.aggregate.ChainDigest(outcome.host_digest);
  }
  for (const FleetAggregate& agg : block_aggs_) {
    outcome.aggregate.MergeFrom(agg);
  }
  if (options_.obs != nullptr) {
    if (host_enabled_) {
      // Fleet-level host counters that have no per-interval recording
      // site: saturated-host intervals accumulate inside the map.
      obs::MetricSink primary{&options_.obs->primary()};
      primary.Add(options_.obs->pipeline().host_saturated_host_intervals_total,
                  static_cast<double>(
                      host_map_->counters().saturated_host_intervals));
    }
    shard_pool_.MergeInto(&options_.obs->primary());
  }
  return outcome;
}

Result<FleetScaleOutcome> FleetScaleRunner::Run(
    std::vector<FleetBlockRecords>* records) {
  DBSCALE_RETURN_IF_ERROR(options_.Validate());
  DBSCALE_RETURN_IF_ERROR(InitTenants());
  records_ = records;
  if (records_ != nullptr) {
    records_->assign(static_cast<size_t>(options_.NumBlocks()),
                     FleetBlockRecords{});
  }
  return RunFrom(0);
}

Result<FleetScaleOutcome> FleetScaleRunner::Resume(
    const container::Catalog& catalog, FleetScaleOptions options,
    const std::string& checkpoint_path) {
  FleetScaleRunner runner(catalog, std::move(options));
  DBSCALE_RETURN_IF_ERROR(runner.options_.Validate());

  const uint64_t fingerprint =
      FleetScaleFingerprint(catalog, runner.options_);
  DBSCALE_ASSIGN_OR_RETURN(
      FleetCheckpointData data,
      LoadFleetCheckpoint(checkpoint_path, fingerprint));

  if (data.state.num_tenants() != runner.options_.num_tenants ||
      data.state.fault_sized() !=
          (runner.fault_enabled_ || runner.host_enabled_) ||
      data.state.host_sized() != runner.host_enabled_ ||
      static_cast<int>(data.block_aggs.size()) !=
          runner.options_.NumBlocks() ||
      data.completed_intervals > runner.options_.num_intervals) {
    return Status::FailedPrecondition(
        "checkpoint shape does not match the run options");
  }
  if (runner.host_enabled_ &&
      static_cast<int>(data.hosts.size()) != runner.options_.host.num_hosts) {
    return Status::FailedPrecondition(
        "checkpoint host count does not match the run options");
  }
  if (data.completed_intervals % runner.options_.epoch_intervals != 0 &&
      data.completed_intervals != runner.options_.num_intervals) {
    return Status::FailedPrecondition(
        "checkpoint interval count is not epoch-aligned");
  }

  // Rebuild the derived per-tenant constants from the seed, then lay the
  // checkpointed hot state over them. InitTenants also re-runs the seed
  // placement (deterministic from the seed), which rebuilds the host map
  // and the flash-crowd membership; the checkpointed per-host accounting
  // then overwrites the seed-time accounting.
  DBSCALE_RETURN_IF_ERROR(runner.InitTenants());
  std::vector<TenantParams> params = std::move(runner.state_.params);
  runner.state_ = std::move(data.state);
  runner.state_.params = std::move(params);
  runner.block_aggs_ = std::move(data.block_aggs);
  if (runner.host_enabled_) {
    for (int id = 0; id < runner.options_.host.num_hosts; ++id) {
      runner.host_map_->RestoreHost(id, data.hosts[static_cast<size_t>(id)]);
    }
    runner.host_map_->RestoreCounters(data.host_counters);
  }
  return runner.RunFrom(data.completed_intervals);
}

}  // namespace dbscale::fleet
