// Host plane: accounting round trips, placement policies, interference
// math, and the determinism contracts the layer ships with — a disabled
// host plane (num_hosts == 0) must leave sim and fleet digests bit-
// identical to the pinned pre-host baselines, and an enabled one must be
// bit-identical across thread counts and checkpoint/resume.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/container/catalog.h"
#include "src/fault/fault_plan.h"
#include "src/fleet/fleet_scale.h"
#include "src/host/host_map.h"
#include "src/host/placement.h"
#include "src/scaler/autoscaler.h"
#include "src/sim/sim_config.h"
#include "src/workload/mix.h"
#include "src/workload/paper_traces.h"

namespace dbscale {
namespace {

using container::ResourceVector;

host::HostOptions TwoHosts() {
  host::HostOptions options;
  options.num_hosts = 2;
  options.capacity = ResourceVector{16.0, 65536.0, 20000.0, 400.0};
  return options;
}

TEST(HostOptionsTest, ValidatesFields) {
  host::HostOptions options;  // disabled
  EXPECT_TRUE(options.Validate().ok());
  options.num_hosts = -1;
  EXPECT_FALSE(options.Validate().ok());

  options = TwoHosts();
  EXPECT_TRUE(options.Validate().ok());

  options = TwoHosts();
  options.capacity.cpu_cores = 0.0;
  EXPECT_FALSE(options.Validate().ok());

  options = TwoHosts();
  options.overcommit_factor = 0.5;
  EXPECT_FALSE(options.Validate().ok());

  options = TwoHosts();
  options.migration_latency_intervals = 0;
  options.migration_downtime_intervals = 0;
  EXPECT_FALSE(options.Validate().ok());

  options = TwoHosts();
  options.background.memory_mb = -1.0;
  EXPECT_FALSE(options.Validate().ok());

  options = TwoHosts();
  options.hot_hosts = 3;  // > num_hosts
  EXPECT_FALSE(options.Validate().ok());

  options = TwoHosts();
  options.hot_hosts = 1;
  options.hot_extra.cpu_cores = -2.0;
  EXPECT_FALSE(options.Validate().ok());
}

// A migration bills downtime in the intervals after the one it begins in,
// so a zero copy latency would bill D - 1 blackout intervals, not D.
TEST(HostOptionsTest, ZeroMigrationLatencyRejected) {
  host::HostOptions options = TwoHosts();
  options.migration_latency_intervals = 0;
  options.migration_downtime_intervals = 1;
  EXPECT_FALSE(options.Validate().ok());
  options.migration_latency_intervals = 1;
  EXPECT_TRUE(options.Validate().ok());
  options.migration_downtime_intervals = 0;  // a downtime-free live copy
  EXPECT_TRUE(options.Validate().ok());
}

TEST(HostMapTest, UpDeltaClampsShrinkingDimensionsAtZero) {
  const ResourceVector old_bundle{2.0, 4096.0, 300.0, 12.0};
  const ResourceVector new_bundle{4.0, 2048.0, 500.0, 12.0};
  const ResourceVector delta = host::UpDelta(old_bundle, new_bundle);
  EXPECT_DOUBLE_EQ(delta.cpu_cores, 2.0);
  EXPECT_DOUBLE_EQ(delta.memory_mb, 0.0);
  EXPECT_DOUBLE_EQ(delta.disk_iops, 200.0);
  EXPECT_DOUBLE_EQ(delta.log_mbps, 0.0);
}

container::ContainerSpec Spec(const char* name, double cpu, double price) {
  container::ContainerSpec spec;
  spec.name = name;
  spec.resources = ResourceVector{cpu, 1024.0, 100.0, 4.0};
  spec.price_per_interval = price;
  return spec;
}

TEST(HostMapTest, SeedPlaceIsFirstFitDecreasing) {
  host::HostMap map(TwoHosts());
  // Price order: A (10 cores), B (8), C (6). A -> host 0, B no longer fits
  // on 0 (18 > 16) -> host 1, C tops host 0 off exactly (10 + 6 = 16).
  const std::vector<container::ContainerSpec> containers = {
      Spec("C", 6.0, 10.0), Spec("A", 10.0, 100.0), Spec("B", 8.0, 50.0)};
  auto host_of = map.SeedPlace(containers);
  ASSERT_TRUE(host_of.ok()) << host_of.status().message();
  EXPECT_EQ(*host_of, (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(map.host(0).num_tenants, 2);
  EXPECT_EQ(map.host(1).num_tenants, 1);
  EXPECT_DOUBLE_EQ(map.host(0).alloc.cpu_cores, 16.0);
  EXPECT_DOUBLE_EQ(map.host(1).alloc.cpu_cores, 8.0);

  // A fourth tenant that fits nowhere is a clean error, not UB.
  host::HostMap fresh(TwoHosts());
  std::vector<container::ContainerSpec> too_big = containers;
  too_big.push_back(Spec("D", 12.0, 80.0));
  auto placed = fresh.SeedPlace(too_big);
  ASSERT_FALSE(placed.ok());
  EXPECT_NE(placed.status().message().find("fits on no host"),
            std::string::npos);
}

TEST(HostMapTest, LocalResizeReserveCommitAbortRoundTrip) {
  host::HostMap map(TwoHosts());
  const ResourceVector old_bundle{3.0, 4096.0, 300.0, 12.0};
  const ResourceVector new_bundle{4.0, 8192.0, 500.0, 20.0};
  const ResourceVector delta = host::UpDelta(old_bundle, new_bundle);
  map.Place(0, old_bundle);
  const uint64_t resident_digest = map.Digest();

  // Reserve blocks the capacity; FitsOn sees alloc + reserved.
  map.ReserveLocal(0, delta);
  EXPECT_NE(map.Digest(), resident_digest);
  EXPECT_FALSE(map.FitsOn(0, ResourceVector{13.0, 0.0, 0.0, 0.0}));
  EXPECT_TRUE(map.FitsOn(0, ResourceVector{12.0, 0.0, 0.0, 0.0}));

  // Abort restores the pre-reserve accounting bit for bit.
  map.AbortLocal(0, delta);
  EXPECT_EQ(map.Digest(), resident_digest);

  // Commit releases the reservation and swaps old -> new.
  map.ReserveLocal(0, delta);
  map.CommitLocal(0, delta, old_bundle, new_bundle);
  EXPECT_DOUBLE_EQ(map.host(0).alloc.cpu_cores, 4.0);
  EXPECT_DOUBLE_EQ(map.host(0).alloc.memory_mb, 8192.0);
  EXPECT_DOUBLE_EQ(map.host(0).reserved.cpu_cores, 0.0);
  EXPECT_EQ(map.host(0).num_tenants, 1);
}

TEST(HostMapTest, MigrationMovesResidencyAndAbortReleasesDest) {
  host::HostMap map(TwoHosts());
  const ResourceVector old_bundle{3.0, 4096.0, 300.0, 12.0};
  const ResourceVector new_bundle{6.0, 16384.0, 800.0, 32.0};
  map.Place(0, old_bundle);

  map.BeginMigration(1, new_bundle);
  EXPECT_DOUBLE_EQ(map.host(1).reserved.cpu_cores, 6.0);
  EXPECT_EQ(map.counters().migrations_begun, 1u);

  map.CompleteMigration(0, 1, old_bundle, new_bundle);
  EXPECT_EQ(map.host(0).num_tenants, 0);
  EXPECT_DOUBLE_EQ(map.host(0).alloc.cpu_cores, 0.0);
  EXPECT_EQ(map.host(1).num_tenants, 1);
  EXPECT_DOUBLE_EQ(map.host(1).alloc.cpu_cores, 6.0);
  EXPECT_DOUBLE_EQ(map.host(1).reserved.cpu_cores, 0.0);
  EXPECT_EQ(map.counters().migrations_completed, 1u);

  // A failed migration never touched the source: only the destination
  // reservation is released.
  map.BeginMigration(0, new_bundle);
  map.AbortMigration(0, new_bundle);
  EXPECT_DOUBLE_EQ(map.host(0).reserved.cpu_cores, 0.0);
  EXPECT_EQ(map.host(1).num_tenants, 1);
  EXPECT_EQ(map.counters().migrations_failed, 1u);
}

TEST(HostMapTest, InterferenceThrottleFollowsDemandPressure) {
  host::HostOptions options = TwoHosts();
  options.background.cpu_cores = 4.0;
  options.interference_start_ratio = 0.75;
  options.interference_slope = 4.0;
  host::HostMap map(options);

  map.UpdateInterference({6.0, 10.0});
  EXPECT_DOUBLE_EQ(map.cpu_pressure(0), 10.0 / 16.0);
  EXPECT_DOUBLE_EQ(map.throttle(0), 1.0);  // below the knee
  EXPECT_FALSE(map.saturated(0));
  EXPECT_DOUBLE_EQ(map.cpu_pressure(1), 14.0 / 16.0);
  EXPECT_DOUBLE_EQ(map.throttle(1), 1.0 + 4.0 * (14.0 / 16.0 - 0.75));
  EXPECT_TRUE(map.saturated(1));
  EXPECT_EQ(map.counters().saturated_host_intervals, 0u);

  // Pressure beyond 1.0 counts a saturated host interval.
  map.UpdateInterference({6.0, 14.0});
  EXPECT_DOUBLE_EQ(map.cpu_pressure(1), 18.0 / 16.0);
  EXPECT_EQ(map.counters().saturated_host_intervals, 1u);
}

TEST(HostMapTest, HotHostsCarryExtraBackgroundAndPressure) {
  host::HostOptions options = TwoHosts();
  options.hot_hosts = 1;
  options.hot_extra.cpu_cores = 12.0;
  host::HostMap map(options);

  // The skew counts against placement capacity on host 0 only...
  EXPECT_FALSE(map.FitsOn(0, ResourceVector{5.0, 0.0, 0.0, 0.0}));
  EXPECT_TRUE(map.FitsOn(0, ResourceVector{4.0, 0.0, 0.0, 0.0}));
  EXPECT_TRUE(map.FitsOn(1, ResourceVector{16.0, 0.0, 0.0, 0.0}));

  // ...and into host 0's demand pressure.
  map.UpdateInterference({2.0, 2.0});
  EXPECT_DOUBLE_EQ(map.cpu_pressure(0), 14.0 / 16.0);
  EXPECT_DOUBLE_EQ(map.cpu_pressure(1), 2.0 / 16.0);
}

TEST(PlacementPolicyTest, PoliciesChooseDeterministicDestinations) {
  host::HostOptions options = TwoHosts();
  options.num_hosts = 3;
  host::HostMap map(options);
  map.Place(0, ResourceVector{10.0, 0.0, 0.0, 0.0});
  map.Place(1, ResourceVector{4.0, 0.0, 0.0, 0.0});
  map.Place(2, ResourceVector{12.0, 0.0, 0.0, 0.0});
  const ResourceVector need{2.0, 0.0, 0.0, 0.0};

  auto first = host::MakePlacementPolicy(host::PlacementPolicyKind::kFirstFit);
  auto best = host::MakePlacementPolicy(host::PlacementPolicyKind::kBestFit);
  auto worst = host::MakePlacementPolicy(host::PlacementPolicyKind::kWorstFit);
  EXPECT_EQ(first->ChooseHost(map, need, -1), 0);
  EXPECT_EQ(best->ChooseHost(map, need, -1), 2);   // tightest headroom
  EXPECT_EQ(worst->ChooseHost(map, need, -1), 1);  // loosest headroom

  // The tenant's own host is never chosen, and "no host fits" is -1.
  EXPECT_EQ(first->ChooseHost(map, need, 0), 1);
  EXPECT_EQ(best->ChooseHost(map, need, 2), 0);
  const ResourceVector huge{20.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(first->ChooseHost(map, huge, -1), -1);
  EXPECT_EQ(best->ChooseHost(map, huge, -1), -1);
}

// ---------------------------------------------------------------------------
// Closed-loop sim integration.
// ---------------------------------------------------------------------------

SimConfig BaseSimConfig() {
  SimConfig config;
  config.simulation.catalog = container::Catalog::MakeLockStep();
  config.simulation.workload = workload::MakeCpuioWorkload();
  config.simulation.trace = *workload::MakeTrace2LongBurst().Subsampled(4);
  config.simulation.interval_duration = Duration::Seconds(20);
  config.simulation.seed = 17;
  config.simulation.initial_rung = 3;
  config.knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 900.0};
  return config;
}

// A SimConfig that never mentions hosts must reproduce the null-fault and
// faulty run digests SimDigestTest pins for the same two configs.
TEST(HostSimTest, NullHostPlanReproducesPreHostDigests) {
  auto null_run = BaseSimConfig().Run();
  ASSERT_TRUE(null_run.ok()) << null_run.status().message();
  EXPECT_EQ(null_run->result.Digest(), 0x2b4227551f4cf98eULL);
  EXPECT_EQ(null_run->result.host_digest, 0u);
  EXPECT_EQ(null_run->result.migrations_begun, 0u);

  SimConfig faulty = BaseSimConfig();
  faulty.simulation.fault.resize.failure_probability = 0.1;
  faulty.simulation.fault.resize.min_latency_intervals = 1;
  faulty.simulation.fault.resize.max_latency_intervals = 2;
  faulty.simulation.fault.telemetry.drop_probability = 0.05;
  auto faulty_run = faulty.Run();
  ASSERT_TRUE(faulty_run.ok()) << faulty_run.status().message();
  EXPECT_EQ(faulty_run->result.Digest(), 0x07d25cbb19ae1fd3ULL);
}

SimConfig HotHostSimConfig() {
  SimConfig config = BaseSimConfig();
  // Two hosts; host 0 is hot enough that the tenant's container fits but
  // its first scale-up does not — the scale-up must become a migration to
  // the cold host.
  config.simulation.host.num_hosts = 2;
  config.simulation.host.hot_hosts = 1;
  config.simulation.host.hot_extra.cpu_cores = 12.5;
  config.simulation.host.migration_latency_intervals = 2;
  config.simulation.host.migration_downtime_intervals = 1;
  return config;
}

TEST(HostSimTest, ScaleUpOnHotHostBecomesBilledMigration) {
  auto run = HotHostSimConfig().Run();
  ASSERT_TRUE(run.ok()) << run.status().message();
  const sim::RunResult& r = run->result;
  EXPECT_GE(r.migrations_begun, 1u);
  EXPECT_EQ(r.migrations_completed, r.migrations_begun);
  EXPECT_EQ(r.migration_failures, 0u);
  // Downtime is billed exactly migration_downtime_intervals per migration.
  EXPECT_EQ(r.migration_downtime_intervals, r.migrations_completed);
  EXPECT_NE(r.host_digest, 0u);

  uint64_t downtime_marked = 0;
  bool saw_migration_decision = false;
  bool saw_pending_hold = false;
  double max_throttle = 0.0;
  for (const auto& interval : r.intervals) {
    if (interval.in_migration_downtime) ++downtime_marked;
    if (interval.decision_code ==
        scaler::ExplanationCode::kScaleTriggersMigration) {
      saw_migration_decision = true;
    }
    if (interval.decision_code ==
        scaler::ExplanationCode::kHoldMigrationPending) {
      saw_pending_hold = true;
    }
    max_throttle = std::max(max_throttle, interval.throttle_factor);
  }
  EXPECT_EQ(downtime_marked, r.migration_downtime_intervals);
  EXPECT_TRUE(saw_migration_decision);
  // latency 2 + downtime 1 means at least one interval holds mid-flight.
  EXPECT_TRUE(saw_pending_hold);
  // The blackout interval inflates observed waits well past neutral.
  EXPECT_GT(max_throttle, 1.0);

  // Deterministic: an identical config reproduces both digests bit for bit.
  auto again = HotHostSimConfig().Run();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->result.Digest(), r.Digest());
  EXPECT_EQ(again->result.host_digest, r.host_digest);
  EXPECT_EQ(r.Digest(), 0x472a9fbaa96a8e2aULL);
}

TEST(HostSimTest, FailedMigrationReleasesDestinationAndCountsFailure) {
  SimConfig config = HotHostSimConfig();
  config.simulation.host.migration_latency_intervals = 1;
  config.simulation.fault.resize.failure_probability = 1.0;
  auto run = config.Run();
  ASSERT_TRUE(run.ok()) << run.status().message();
  const sim::RunResult& r = run->result;
  EXPECT_GT(r.migrations_begun, 0u);
  EXPECT_EQ(r.migrations_completed, 0u);
  EXPECT_EQ(r.migration_failures, r.migrations_begun);
  // Failures surface at cutover: the blackout was already suffered.
  EXPECT_EQ(r.migration_downtime_intervals, r.migrations_begun);
  // Every migration failure is also a resize failure.
  EXPECT_GE(r.resize_failures, r.migration_failures);
  EXPECT_EQ(r.Digest(), 0x2502d4c5162f7ea1ULL);
}

// Resize and telemetry faults on the hot host: the run reaches failed and
// rejected resizes next to migrations, and every telemetry-fault path of
// the sim loop (drop, NaN, outlier, stale replay).
TEST(HostSimTest, ResizeAndTelemetryFaultsOnHotHostPinned) {
  SimConfig config = HotHostSimConfig();
  fault::FaultPlanOptions& fault = config.simulation.fault;
  fault.resize.failure_probability = 0.1;
  fault.resize.rejection_probability = 0.1;
  fault.resize.min_latency_intervals = 1;
  fault.resize.max_latency_intervals = 2;
  fault.telemetry.drop_probability = 0.05;
  fault.telemetry.nan_probability = 0.05;
  fault.telemetry.outlier_probability = 0.05;
  fault.telemetry.stale_probability = 0.05;
  auto run = config.Run();
  ASSERT_TRUE(run.ok()) << run.status().message();
  const sim::RunResult& r = run->result;
  EXPECT_EQ(r.telemetry_dropped_samples, 65u);
  EXPECT_EQ(r.telemetry_rejected_samples, 73u);
  EXPECT_EQ(r.telemetry_stale_samples, 71u);
  EXPECT_EQ(r.telemetry_outlier_samples, 60u);
  EXPECT_EQ(r.Digest(), 0xba91d0f64d501b83ULL);
}

// ---------------------------------------------------------------------------
// Fleet integration.
// ---------------------------------------------------------------------------

// Fleet digests pinned before the host layer existed. A host-free options
// struct must keep them at every thread count.
TEST(HostFleetTest, NullHostPlanReproducesPreHostFleetDigests) {
  container::Catalog catalog = container::Catalog::MakeLockStep();
  for (const int threads : {1, 2, 4}) {
    fleet::FleetScaleOptions options;
    options.num_tenants = 512;
    options.num_intervals = 288;
    options.seed = 7;
    options.block_size = 128;
    options.num_threads = threads;
    auto outcome = fleet::FleetScaleRunner(catalog, options).Run();
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_EQ(outcome->aggregate.digest, 0xf8a4a039e6b0fee9ull)
        << "threads=" << threads;
    EXPECT_EQ(outcome->host_digest, 0u);
  }
  {
    fleet::FleetScaleOptions options;
    options.num_tenants = 2000;
    options.num_intervals = 288;
    options.seed = 7;
    options.block_size = 256;
    options.num_threads = 2;
    options.fault.resize.failure_probability = 0.05;
    options.fault.resize.min_latency_intervals = 1;
    options.fault.resize.max_latency_intervals = 2;
    auto outcome = fleet::FleetScaleRunner(catalog, options).Run();
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_EQ(outcome->aggregate.digest, 0xf667503494730078ull);
  }
}

// 300 tenants on 64 hosts, half of them hot, with a 3x flash crowd hitting
// the hot half mid-day: dense enough that scale-ups migrate.
fleet::FleetScaleOptions HostFleetOptions() {
  fleet::FleetScaleOptions options;
  options.num_tenants = 300;
  options.num_intervals = 288;
  options.seed = 11;
  options.block_size = 64;
  options.num_threads = 2;
  options.host.num_hosts = 64;
  options.host.capacity =
      container::ResourceVector{64.0, 524288.0, 160000.0, 3200.0};
  options.host.hot_hosts = 32;
  options.host.hot_extra =
      container::ResourceVector{16.0, 131072.0, 40000.0, 800.0};
  options.flash_crowd.start_interval = 96;
  options.flash_crowd.duration_intervals = 24;
  options.flash_crowd.demand_multiplier = 3.0;
  options.flash_crowd.num_hosts_hit = 32;
  return options;
}

TEST(HostFleetTest, HostModeDigestInvariantAcrossThreads) {
  container::Catalog catalog = container::Catalog::MakeLockStep();
  uint64_t reference = 0;
  uint64_t reference_host = 0;
  bool have_reference = false;
  for (const int threads : {1, 2, 4}) {
    fleet::FleetScaleOptions options = HostFleetOptions();
    options.num_threads = threads;
    auto outcome = fleet::FleetScaleRunner(catalog, options).Run();
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_GE(outcome->host.migrations_begun, 1u);
    EXPECT_EQ(outcome->host.migrations_completed, 20u);
    EXPECT_EQ(outcome->host.downtime_intervals,
              outcome->host.migrations_completed *
                  static_cast<uint64_t>(
                      options.host.migration_downtime_intervals));
    EXPECT_GT(outcome->host.saturated_host_intervals, 0u);
    if (!have_reference) {
      reference = outcome->aggregate.digest;
      reference_host = outcome->host_digest;
      have_reference = true;
      EXPECT_NE(reference_host, 0u);
    }
    EXPECT_EQ(outcome->aggregate.digest, reference) << "threads=" << threads;
    EXPECT_EQ(outcome->host_digest, reference_host) << "threads=" << threads;
  }
  EXPECT_EQ(reference, 0x257bfa9263d6df51ull);
  EXPECT_EQ(reference_host, 0x7ef672b89ecaa938ull);
}

// The host-mode fleet under resize faults: the only run that reaches the
// fleet's failed migrations, pending local reservations and rejections.
TEST(HostFleetTest, HostModeResizeFaultsDigestPinned) {
  container::Catalog catalog = container::Catalog::MakeLockStep();
  fleet::FleetScaleOptions options = HostFleetOptions();
  options.fault.resize.failure_probability = 0.05;
  options.fault.resize.rejection_probability = 0.05;
  options.fault.resize.min_latency_intervals = 1;
  options.fault.resize.max_latency_intervals = 2;
  auto outcome = fleet::FleetScaleRunner(catalog, options).Run();
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_EQ(outcome->host.migrations_begun, 96u);
  EXPECT_EQ(outcome->host.migrations_completed, 89u);
  EXPECT_EQ(outcome->host.migrations_failed, 6u);
  EXPECT_EQ(outcome->host.placement_holds, 311u);
  EXPECT_EQ(outcome->aggregate.digest, 0xd9413c6c15adba87ull);
  EXPECT_EQ(outcome->host_digest, 0x239d29930c9b68b0ull);
}

TEST(HostFleetTest, HostModeCheckpointResumeBitIdentical) {
  container::Catalog catalog = container::Catalog::MakeLockStep();
  const std::string path = testing::TempDir() + "/host_fleet_resume.ckpt";
  fleet::FleetScaleOptions options = HostFleetOptions();
  options.epoch_intervals = 96;

  auto full = fleet::FleetScaleRunner(catalog, options).Run();
  ASSERT_TRUE(full.ok()) << full.status().message();
  ASSERT_TRUE(full->complete);

  // Stop mid-run (inside the flash crowd, with migrations in flight)...
  fleet::FleetScaleOptions first_half = options;
  first_half.checkpoint_path = path;
  first_half.stop_after_intervals = 96;
  auto partial = fleet::FleetScaleRunner(catalog, first_half).Run();
  ASSERT_TRUE(partial.ok()) << partial.status().message();
  EXPECT_FALSE(partial->complete);

  // ...and resume at a different thread count: digests, host digest, and
  // host counters all bit-identical to the uninterrupted run.
  fleet::FleetScaleOptions second_half = options;
  second_half.num_threads = 4;
  auto resumed = fleet::FleetScaleRunner::Resume(catalog, second_half, path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->aggregate.digest, full->aggregate.digest);
  EXPECT_EQ(resumed->host_digest, full->host_digest);
  EXPECT_EQ(resumed->host.migrations_begun, full->host.migrations_begun);
  EXPECT_EQ(resumed->host.migrations_completed,
            full->host.migrations_completed);
  EXPECT_EQ(resumed->host.downtime_intervals, full->host.downtime_intervals);
  EXPECT_EQ(resumed->host.saturated_host_intervals,
            full->host.saturated_host_intervals);
  std::remove(path.c_str());
}

TEST(HostFleetTest, ValidatesHostAndFlashCrowdOptions) {
  container::Catalog catalog = container::Catalog::MakeLockStep();

  // Flash crowd without a host plane is meaningless.
  fleet::FleetScaleOptions options = HostFleetOptions();
  options.host = host::HostOptions{};
  EXPECT_FALSE(fleet::FleetScaleRunner(catalog, options).Run().ok());

  // More crowd hosts than hosts.
  options = HostFleetOptions();
  options.flash_crowd.num_hosts_hit = options.host.num_hosts + 1;
  EXPECT_FALSE(fleet::FleetScaleRunner(catalog, options).Run().ok());

  // Hot hosts beyond the fleet.
  options = HostFleetOptions();
  options.host.hot_hosts = options.host.num_hosts + 1;
  EXPECT_FALSE(fleet::FleetScaleRunner(catalog, options).Run().ok());

  // A fleet too dense for its hosts is a clean seed-placement error.
  options = HostFleetOptions();
  options.host.num_hosts = 2;
  options.host.hot_hosts = 1;
  options.flash_crowd.num_hosts_hit = 1;
  auto outcome = fleet::FleetScaleRunner(catalog, options).Run();
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status().message().find("fits on no host"),
            std::string::npos);
}

}  // namespace
}  // namespace dbscale
