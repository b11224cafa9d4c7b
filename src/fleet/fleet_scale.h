// Million-tenant fleet runner: structure-of-arrays tenant state,
// block-sharded streaming aggregation, checkpoint/resume.
//
// Every fleet path runs the same per-tenant interval step: the tenant
// model (StepTenant), then change tracking, the hour fold and median flush,
// the end-of-run change total and the tenant's digest stream, written once
// in fleet_scale.cc. This runner holds every tenant's hot state in flat
// parallel arrays (~60 bytes/tenant checkpointed + ~90 bytes of derived
// constants), partitions tenants into contiguous blocks, and folds each
// emission into a per-block FleetAggregate the moment it is produced.
// 10^6 tenants over a day of 5-minute intervals fit in a few hundred MB and
// minutes of wall clock. The exact path (fleet_sim.h) is this runner over
// one epoch with a materializing target per block (FleetBlockRecords).
//
// Determinism contract:
//   * every tenant's generator is pre-forked serially from the root seed,
//     so streams are fixed before any dispatch;
//   * blocks are the unit of scheduling; each block's aggregate and metric
//     shard are written only while that block is claimed, and the final
//     merge walks blocks in index order — so the run digest is
//     bit-identical at any DBSCALE_NUM_THREADS;
//   * time advances in epochs (hour-aligned slices). Per-block aggregates
//     persist across epochs and are merged once at the end, so the digest
//     is also independent of epoch boundaries — and a run resumed from a
//     checkpoint is bit-identical to one that never stopped.
//
// Checkpoints (checkpoint.h) are written at epoch boundaries: hot SoA
// state + RNG positions + per-block aggregates. Tenant constants
// (TenantParams) are NOT checkpointed — Resume() re-runs the deterministic
// init from the seed and then overwrites the hot state, trading a cheap
// re-draw for a ~60% smaller checkpoint. Observability metrics are a
// side-channel, not part of the checkpoint: a resumed run's metrics cover
// only the intervals it executed.

#ifndef DBSCALE_FLEET_FLEET_SCALE_H_
#define DBSCALE_FLEET_FLEET_SCALE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/fault/actuator.h"
#include "src/fault/fault_plan.h"
#include "src/fleet/fleet_aggregate.h"
#include "src/fleet/tenant_model.h"
#include "src/host/host_map.h"
#include "src/host/placement.h"
#include "src/obs/pipeline.h"

namespace dbscale::fleet {

/// \brief Hot per-tenant state as structure-of-arrays: one flat vector per
/// field, indexed by tenant. The per-interval loop touches only these
/// (plus the read-only params array); everything is trivially serializable
/// as raw bytes for the checkpoint format.
struct FleetSoaState {
  // Model generator position.
  std::vector<uint64_t> rng_state;
  std::vector<uint64_t> rng_inc;
  std::vector<double> rng_cached_normal;
  std::vector<uint8_t> rng_has_cached;
  // Step recurrence.
  std::vector<double> ar_state;
  std::vector<uint8_t> burst_active;
  // Change tracking.
  std::vector<int32_t> prev_rung;
  std::vector<int32_t> last_change_interval;
  std::vector<int32_t> changes;
  /// Running FNV-1a over this tenant's emission stream, folded in
  /// ascending interval order — the unit the run digest is chained from
  /// (tenant order within a block, block order at the merge), which is
  /// what makes the digest independent of threads and epoch slicing.
  std::vector<uint64_t> tenant_digest;
  // Actuation channel: the applied rung, the fault stream's generator
  // position and the in-flight resize. Sized when the fault plan OR the
  // host plane is enabled (the host plane routes every resize through the
  // actuator so migrations can be slow) — a null run does not pay for them.
  std::vector<int32_t> applied_rung;
  std::vector<uint64_t> plan_rng_state;
  std::vector<uint64_t> plan_rng_inc;
  std::vector<double> plan_rng_cached_normal;
  std::vector<uint8_t> plan_rng_has_cached;
  std::vector<uint8_t> act_pending;
  std::vector<int32_t> act_target_rung;
  std::vector<uint8_t> act_fate;
  std::vector<int32_t> act_remaining;
  std::vector<int32_t> act_attempt;
  std::vector<int32_t> act_last_target;
  // Host plane (sized only when it is enabled): tenant residency plus the
  // in-flight actuation's shape (kind + migration destination) and the
  // previous interval's CPU demand, which drives next interval's
  // interference pressure.
  std::vector<int32_t> host_of;
  std::vector<uint8_t> act_kind;   ///< fault::ActuationKind of the pending act
  std::vector<int32_t> act_dest;   ///< migration destination host (-1 = none)
  std::vector<double> prev_demand_cpu;
  /// Per-tenant constants: rebuilt deterministically from the seed on
  /// resume, never checkpointed.
  std::vector<TenantParams> params;

  void Resize(int num_tenants, bool act_enabled, bool host_enabled);
  int num_tenants() const { return static_cast<int>(rng_state.size()); }
  bool fault_sized() const { return !applied_rung.empty(); }
  bool host_sized() const { return !host_of.empty(); }

  Rng::State ModelRngAt(size_t i) const;
  void SetModelRngAt(size_t i, const Rng::State& s);
  Rng::State PlanRngAt(size_t i) const;
  void SetPlanRngAt(size_t i, const Rng::State& s);
  fault::ResizeActuator::State ActuatorAt(size_t i) const;
  void SetActuatorAt(size_t i, const fault::ResizeActuator::State& s);

  /// Bytes in the checkpointed (hot) arrays / in everything incl. params.
  uint64_t HotBytes() const;
  uint64_t TotalBytes() const;

  /// Calls `f` on every hot array of `s` (a FleetSoaState, const or not)
  /// in checkpoint order: the always-present arrays, then the actuation
  /// arrays when `act`, then the host arrays when `host`.
  template <typename State, typename F>
  static void ForEachArray(State& s, bool act, bool host, F&& f) {
    f(s.rng_state);
    f(s.rng_inc);
    f(s.rng_cached_normal);
    f(s.rng_has_cached);
    f(s.ar_state);
    f(s.burst_active);
    f(s.prev_rung);
    f(s.last_change_interval);
    f(s.changes);
    f(s.tenant_digest);
    if (act) {
      f(s.applied_rung);
      f(s.plan_rng_state);
      f(s.plan_rng_inc);
      f(s.plan_rng_cached_normal);
      f(s.plan_rng_has_cached);
      f(s.act_pending);
      f(s.act_target_rung);
      f(s.act_fate);
      f(s.act_remaining);
      f(s.act_attempt);
      f(s.act_last_target);
    }
    if (host) {
      f(s.host_of);
      f(s.act_kind);
      f(s.act_dest);
      f(s.prev_demand_cpu);
    }
  }
};

/// Correlated-demand injection: every tenant seed-placed on hosts
/// [0, num_hosts_hit) has its demand multiplied during the window, so a
/// handful of machines saturate together — the "flash crowd" that turns
/// scale-ups into migrations. Requires the host plane.
struct FlashCrowdOptions {
  /// First interval of the crowd; -1 disables it.
  int start_interval = -1;
  int duration_intervals = 12;
  double demand_multiplier = 2.5;
  /// Number of seed hosts whose residents are affected.
  int num_hosts_hit = 1;

  bool enabled() const { return start_interval >= 0; }
  Status Validate() const;
};

struct FleetScaleOptions {
  int num_tenants = 10000;
  /// 5-minute intervals (default one day; the exact path defaults to a
  /// week, which at 10^6 tenants is a deliberate choice, not a default).
  int num_intervals = 288;
  uint64_t seed = 7;
  /// 0 = process default (DBSCALE_NUM_THREADS, else hardware); 1 = serial.
  int num_threads = 0;
  /// Tenants per scheduling block. Also the metric-shard and aggregate
  /// granularity, so it is part of the digest contract and the checkpoint
  /// fingerprint.
  int block_size = 2048;
  /// Time-slice length in intervals; must be a positive multiple of 12
  /// (hour-aligned, so hour buffers are empty at slice boundaries and need
  /// not be checkpointed). Part of the checkpoint fingerprint; the digest
  /// itself is epoch-invariant.
  int epoch_intervals = 288;
  /// Stop after the first epoch boundary >= this many intervals, returning
  /// a partial outcome (and writing a checkpoint when a path is set).
  /// 0 = run to completion. For interruption tests and staged runs.
  int stop_after_intervals = 0;
  TenantModelOptions tenant;
  fault::FaultPlanOptions fault;
  /// Host placement & interference plane. Disabled (num_hosts == 0) keeps
  /// the block-major fast path and pre-host digests bit-identical; enabled
  /// switches the runner to the interval-major loop (hosts couple tenants
  /// within an interval, so blocks can no longer run whole epochs apart).
  host::HostOptions host;
  FlashCrowdOptions flash_crowd;
  /// Not owned; nullptr = off. One metric shard per BLOCK (not per
  /// tenant), merged in block order: bit-identical at any thread count.
  obs::Observability* obs = nullptr;
  /// When non-empty, a checkpoint is written here (atomically, via a .tmp
  /// sibling) every `checkpoint_every_epochs` epochs and at a
  /// stop_after_intervals stop.
  std::string checkpoint_path;
  int checkpoint_every_epochs = 1;

  Status Validate() const;
  int NumBlocks() const;
};

struct FleetScaleOutcome {
  /// False when the run stopped at stop_after_intervals.
  bool complete = false;
  int completed_intervals = 0;
  /// Block aggregates merged in block order. Partial (and without the
  /// per-tenant change totals) when !complete. When the host plane ran,
  /// the host digest is chained in FIRST (host-then-tenant order), so the
  /// digest covers placement state as well as telemetry.
  FleetAggregate aggregate;
  /// Host-plane totals (all zero when the plane is disabled).
  host::HostMap::Counters host;
  /// HostMap::Digest() at the end of the run (0 when disabled).
  uint64_t host_digest = 0;
};

/// One block's materialized emissions, in emission order: hourly records,
/// pooled inter-event minutes and per-tenant change stats. Over one epoch
/// with the host plane off a block emits tenant by tenant, so
/// concatenating blocks in block order gives FleetTelemetry's tenant-major
/// layout.
struct FleetBlockRecords {
  std::vector<HourlyRecord> hourly;
  std::vector<double> inter_event_minutes;
  std::vector<TenantChangeStats> tenant_changes;
};

/// Hash of everything that defines a run's bit stream: catalog shape,
/// tenant/fault options, seed, sizes, block/epoch geometry. Checkpoints
/// embed it; Resume refuses a checkpoint whose fingerprint differs.
uint64_t FleetScaleFingerprint(const container::Catalog& catalog,
                               const FleetScaleOptions& options);

/// \brief The scale runner. One instance per run; Run() (or Resume())
/// executes to completion or to the configured stop.
class FleetScaleRunner {
 public:
  FleetScaleRunner(const container::Catalog& catalog,
                   FleetScaleOptions options);

  /// Initializes tenant state from the seed and executes the run. When
  /// `records` is non-null it is sized to one entry per block and every
  /// emission is also materialized there (the exact path's target).
  Result<FleetScaleOutcome> Run(std::vector<FleetBlockRecords>* records =
                                    nullptr);

  /// Loads `checkpoint_path` (validating magic/version/fingerprint/
  /// footer), rebuilds tenant constants from the seed, and continues the
  /// run. The outcome is bit-identical to an uninterrupted Run() with the
  /// same options.
  static Result<FleetScaleOutcome> Resume(const container::Catalog& catalog,
                                          FleetScaleOptions options,
                                          const std::string& checkpoint_path);

  /// Resident per-tenant state (SoA arrays + params), for the memory math
  /// in benchmarks and DESIGN.md.
  uint64_t StateBytes() const { return state_.TotalBytes(); }

 private:
  Status InitTenants();
  Result<FleetScaleOutcome> RunFrom(int start_interval);
  /// Host-off block loop: one block's tenants, each through [t0, t1) in
  /// turn.
  void RunBlockEpoch(int block, int t0, int t1);
  /// The run's fork-join pool: ThreadPool::Global() at num_threads == 0,
  /// else one pool of that size, built on first use and kept for the run.
  ThreadPool& Pool();
  /// Block `block`'s metric shard; null when observability is off.
  obs::MetricShard* BlockShard(size_t block);

  // -- Host-mode (interval-major) machinery --------------------------------
  /// Serial pre-step: ticks every pending actuation in tenant order
  /// (migration cutover / abort with host accounting), then refreshes
  /// interference throttles from the previous interval's demand.
  void HostTickActuations();
  /// Parallel step: one block's tenants for interval `t` (demand, wait
  /// inflation, then the shared per-tenant step).
  void HostStepBlock(int block, int t);
  /// Serial post-step: begins local resizes / migrations in tenant order.
  void HostBeginActuations();

  container::Catalog catalog_;
  FleetScaleOptions options_;
  bool fault_enabled_ = false;
  bool host_enabled_ = false;
  FleetSoaState state_;
  std::vector<FleetAggregate> block_aggs_;
  obs::ShardPool shard_pool_;
  int completed_intervals_ = 0;
  std::unique_ptr<ThreadPool> own_pool_;
  /// Materializing targets, one per block (null = streaming only).
  std::vector<FleetBlockRecords>* records_ = nullptr;

  // Host-mode runtime state. The map is rebuilt on Resume from the
  // checkpointed per-host states; everything below except the map is
  // derived per interval (or at init) and never checkpointed.
  std::optional<host::HostMap> host_map_;
  std::unique_ptr<host::PlacementPolicy> placement_;
  std::vector<uint8_t> flash_affected_;   ///< seed-placement derived
  std::vector<double> host_demand_;       ///< per-host CPU demand scratch
  std::vector<double> tenant_throttle_;   ///< per-tenant wait inflation
  std::vector<int32_t> assigned_scratch_; ///< this interval's assigned rung
  std::vector<double> hour_scratch_;      ///< per-tenant hour slot buffers
};

}  // namespace dbscale::fleet

#endif  // DBSCALE_FLEET_FLEET_SCALE_H_
