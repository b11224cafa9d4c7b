// Host-placement & noisy-neighbor benchmark. It prints three sections:
//
//   * null_plan: a SimConfig / FleetScaleOptions that never mentions hosts
//     must reproduce the digests pinned before the host layer existed —
//     the sim run digest and the fleet aggregate digest at
//     threads {1, 2, 4}. Any drift here means the disabled host plane is
//     not actually free.
//   * flash_crowd: 300 tenants dense on 64 hosts (half deliberately hot),
//     a 3x demand surge against the hot half mid-day. At least one
//     scale-up must turn into a migration, downtime must bill exactly
//     migration_downtime_intervals per completed migration, and the
//     aggregate + host digests must be bit-identical at every thread
//     count.
//   * policies: the same scenario under first-fit / best-fit / worst-fit
//     destination choice — wall time, migration counts, and saturated
//     host-intervals per policy (the knob's observable effect).
//
// --quick shrinks the scenario; digests remain exact.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/common/check.h"
#include "src/container/catalog.h"
#include "src/fleet/fleet_scale.h"
#include "src/host/host_map.h"
#include "src/scaler/autoscaler.h"
#include "src/sim/sim_config.h"
#include "src/workload/mix.h"
#include "src/workload/paper_traces.h"

namespace dbscale::bench {
namespace {

// Pinned pre-host baselines (tests/host_test.cc holds the unit-test twins
// of these constants).
constexpr uint64_t kNullSimDigest = 0x2b4227551f4cf98eull;
constexpr uint64_t kNullFleetDigest = 0xf8a4a039e6b0fee9ull;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

fleet::FleetScaleOptions FlashCrowdScenario(bool quick) {
  fleet::FleetScaleOptions options;
  options.num_tenants = quick ? 150 : 300;
  options.num_intervals = quick ? 96 : 288;
  options.seed = 11;
  options.block_size = 64;
  options.host.num_hosts = quick ? 32 : 64;
  options.host.capacity =
      container::ResourceVector{64.0, 524288.0, 160000.0, 3200.0};
  options.host.hot_hosts = options.host.num_hosts / 2;
  options.host.hot_extra =
      container::ResourceVector{16.0, 131072.0, 40000.0, 800.0};
  options.flash_crowd.start_interval = options.num_intervals / 3;
  options.flash_crowd.duration_intervals = 24;
  options.flash_crowd.demand_multiplier = 3.0;
  options.flash_crowd.num_hosts_hit = options.host.hot_hosts;
  return options;
}

struct HostRunStats {
  int num_threads = 0;
  double seconds = 0.0;
  uint64_t digest = 0;
  uint64_t host_digest = 0;
  host::HostMap::Counters host;
};

HostRunStats TimeHostRun(const container::Catalog& catalog,
                         fleet::FleetScaleOptions options, int num_threads) {
  options.num_threads = num_threads;
  fleet::FleetScaleRunner runner(catalog, options);
  const double start = NowSeconds();
  auto outcome = runner.Run();
  const double elapsed = NowSeconds() - start;
  if (!outcome.ok()) {
    std::fprintf(stderr, "host fleet run failed: %s\n",
                 outcome.status().message().c_str());
  }
  DBSCALE_CHECK(outcome.ok());
  HostRunStats stats;
  stats.num_threads = num_threads;
  stats.seconds = elapsed;
  stats.digest = outcome->aggregate.digest;
  stats.host_digest = outcome->host_digest;
  stats.host = outcome->host;
  return stats;
}

int Main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  container::Catalog catalog = container::Catalog::MakeLockStep();
  const std::vector<int> thread_counts = quick ? std::vector<int>{1, 2}
                                               : std::vector<int>{1, 2, 4};

  // ---- Section 1: the disabled host plane is bit-free. -------------------
  std::printf("null plan (host layer disabled):\n");
  auto null_sim = BaseSimConfig().Run();
  DBSCALE_CHECK(null_sim.ok());
  const uint64_t sim_digest = null_sim->result.Digest();
  const bool sim_matches = sim_digest == kNullSimDigest;
  std::printf("  sim digest  %016llx  (baseline %016llx)  %s\n",
              static_cast<unsigned long long>(sim_digest),
              static_cast<unsigned long long>(kNullSimDigest),
              sim_matches ? "MATCH" : "DRIFT");
  DBSCALE_CHECK(sim_matches);

  for (int threads : thread_counts) {
    fleet::FleetScaleOptions options;
    options.num_tenants = 512;
    options.num_intervals = 288;
    options.seed = 7;
    options.block_size = 128;
    options.num_threads = threads;
    auto outcome = fleet::FleetScaleRunner(catalog, options).Run();
    DBSCALE_CHECK(outcome.ok());
    std::printf("  fleet digest threads=%d  %016llx  %s\n", threads,
                static_cast<unsigned long long>(outcome->aggregate.digest),
                outcome->aggregate.digest == kNullFleetDigest ? "MATCH"
                                                              : "DRIFT");
    DBSCALE_CHECK(outcome->aggregate.digest == kNullFleetDigest);
  }

  // ---- Section 2: flash crowd turns scale-ups into migrations. -----------
  const fleet::FleetScaleOptions scenario = FlashCrowdScenario(quick);
  std::printf("\nflash crowd (%d tenants, %d hosts, %d hot, x%.1f surge):\n",
              scenario.num_tenants, scenario.host.num_hosts,
              scenario.host.hot_hosts,
              scenario.flash_crowd.demand_multiplier);
  std::vector<HostRunStats> crowd_runs;
  for (int threads : thread_counts) {
    crowd_runs.push_back(TimeHostRun(catalog, scenario, threads));
    const HostRunStats& run = crowd_runs.back();
    std::printf(
        "  threads=%d  %.3fs  migrations %llu begun / %llu done / %llu "
        "failed, %llu downtime iv, %llu holds, %llu saturated host-iv\n",
        run.num_threads, run.seconds,
        static_cast<unsigned long long>(run.host.migrations_begun),
        static_cast<unsigned long long>(run.host.migrations_completed),
        static_cast<unsigned long long>(run.host.migrations_failed),
        static_cast<unsigned long long>(run.host.downtime_intervals),
        static_cast<unsigned long long>(run.host.placement_holds),
        static_cast<unsigned long long>(run.host.saturated_host_intervals));
    DBSCALE_CHECK(run.digest == crowd_runs.front().digest);
    DBSCALE_CHECK(run.host_digest == crowd_runs.front().host_digest);
  }
  const HostRunStats& crowd = crowd_runs.front();
  // The scenario's reason to exist: a scale-up that became a migration,
  // billed exactly migration_downtime_intervals per completed migration.
  DBSCALE_CHECK(crowd.host.migrations_begun >= 1);
  const uint64_t expected_downtime =
      crowd.host.migrations_completed *
      static_cast<uint64_t>(scenario.host.migration_downtime_intervals);
  DBSCALE_CHECK(crowd.host.downtime_intervals == expected_downtime);

  // ---- Section 3: placement-policy comparison. ---------------------------
  std::printf("\nplacement policies (same scenario, threads=%d):\n",
              thread_counts.back());
  for (const auto kind : {host::PlacementPolicyKind::kFirstFit,
                          host::PlacementPolicyKind::kBestFit,
                          host::PlacementPolicyKind::kWorstFit}) {
    fleet::FleetScaleOptions options = scenario;
    options.host.placement = kind;
    const HostRunStats run =
        TimeHostRun(catalog, options, thread_counts.back());
    std::printf(
        "  %-9s  %.3fs  %llu migrations, %llu holds, %llu saturated "
        "host-iv, host digest %016llx\n",
        host::PlacementPolicyKindToString(kind), run.seconds,
        static_cast<unsigned long long>(run.host.migrations_completed),
        static_cast<unsigned long long>(run.host.placement_holds),
        static_cast<unsigned long long>(run.host.saturated_host_intervals),
        static_cast<unsigned long long>(run.host_digest));
  }
  return 0;
}

}  // namespace
}  // namespace dbscale::bench

int main(int argc, char** argv) { return dbscale::bench::Main(argc, argv); }
