// fleet-flash: FleetScaleRunner at 10000 tenants x 288 intervals, two
// threads, with the host plane on and a flash crowd that saturates half the
// hosts so scale-ups turn into migrations (the bench_host_placement
// scenario at fleet scale). It exercises the host-aware step loop, HostMap
// actuation and streaming aggregation, and bypasses ingest, telemetry and
// the scaler. One run is one measured unit; at this size a run takes under
// two seconds, so a measured phase holds enough units for a steady
// fast-tail throughput.

#include <cstdio>
#include <vector>

#include "src/common/rng.h"
#include "src/container/catalog.h"
#include "src/fleet/fleet_scale.h"
#include "src/fleet/tenant_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fleet = ::dbscale::fleet;
using ::dbscale::Rng;

constexpr int kTenants = 10000;
constexpr int kIntervals = 288;
/// Tenants whose model steps are replayed single-threaded for fleet.step_ns.
constexpr int kStepReplayTenants = 2048;

fleet::FleetScaleOptions MakeOptions(uint64_t seed) {
  fleet::FleetScaleOptions o;
  o.num_tenants = kTenants;
  o.num_intervals = kIntervals;
  o.seed = seed;
  o.num_threads = 2;
  o.block_size = 2048;
  // ~5 tenants per host, half the hosts carrying extra background load.
  o.host.num_hosts = 2048;
  o.host.capacity = container::ResourceVector{64.0, 524288.0, 160000.0, 3200.0};
  o.host.hot_hosts = o.host.num_hosts / 2;
  o.host.hot_extra = container::ResourceVector{16.0, 131072.0, 40000.0, 800.0};
  o.flash_crowd.start_interval = kIntervals / 3;
  o.flash_crowd.duration_intervals = 24;
  o.flash_crowd.demand_multiplier = 3.0;
  o.flash_crowd.num_hosts_hit = o.host.hot_hosts;
  return o;
}

/// Replays fleet::StepTenant for the first tenants of the run, seeded the
/// way the runner seeds them; returns CPU ns per tenant-interval.
double ReplayStepNs(const container::Catalog& catalog,
                    const fleet::FleetScaleOptions& options) {
  Rng root(options.seed);
  std::vector<Rng> rngs;
  std::vector<fleet::TenantParams> params;
  for (int i = 0; i < kStepReplayTenants; ++i) {
    rngs.push_back(root.Fork());
    params.push_back(
        fleet::DrawTenantParams(catalog, options.tenant, rngs.back()));
  }
  std::vector<fleet::TenantDynamics> dyn(params.size());
  double keep = 0.0;
  const uint64_t t0 = ProcessCpuNs();
  for (int t = 0; t < options.num_intervals; ++t) {
    for (size_t i = 0; i < params.size(); ++i) {
      keep += fleet::StepTenant(catalog, options.tenant, params[i], dyn[i],
                                rngs[i], t)
                  .assigned_rung;
    }
  }
  const uint64_t t1 = ProcessCpuNs();
  if (keep < 0.0) std::fprintf(stderr, "perfbench: step replay sink\n");
  return static_cast<double>(t1 - t0) /
         (static_cast<double>(params.size()) * options.num_intervals);
}

}  // namespace

void RunFleetFlash(const Args& args, Report* report) {
  const container::Catalog catalog = container::Catalog::MakeLockStep();
  const fleet::FleetScaleOptions options = MakeOptions(args.seed);
  const uint64_t ti_per_run = static_cast<uint64_t>(kTenants) * kIntervals;

  // Set-up: a discarded run over the first epoch (tenant init, seed
  // placement, first intervals), which also settles the allocator.
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    fleet::FleetScaleOptions warm = options;
    warm.epoch_intervals = 24;
    warm.stop_after_intervals = 24;
    const uint64_t t0 = WallNs();
    auto outcome = fleet::FleetScaleRunner(catalog, warm).Run();
    setup_s.push_back(static_cast<double>(WallNs() - t0) / 1e9);
    report->Check(outcome.ok() && !outcome->complete,
                  "warm-up run stops after its first epoch");
  }

  uint64_t first_digest = 0;
  uint64_t first_host_digest = 0;
  dbscale::host::HostMap::Counters host{};
  double state_bytes = 0.0;
  SpanLog spans;
  const auto measure = [&](bool traced, uint64_t* cpu_ns) {
    std::vector<double> rates;
    uint64_t ti = 0;
    const uint64_t start = WallNs();
    do {
      fleet::FleetScaleRunner runner(catalog, options);
      const uint64_t cpu0 = ProcessCpuNs();
      const uint64_t w0 = WallNs();
      auto outcome = runner.Run();
      const uint64_t w1 = WallNs();
      const uint64_t cpu1 = ProcessCpuNs();
      report->Attempt(ti_per_run);
      report->Check(outcome.ok() && outcome->complete, "fleet run completes");
      if (!outcome.ok()) {
        report->Fail(ti_per_run - 1, "fleet run failed");
        break;
      }
      rates.push_back(static_cast<double>(ti_per_run) /
                      (static_cast<double>(w1 - w0) / 1e9));
      ti += ti_per_run;
      const auto& h = outcome->host;
      if (first_digest == 0) {
        first_digest = outcome->aggregate.digest;
        first_host_digest = outcome->host_digest;
        host = h;
        state_bytes = static_cast<double>(runner.StateBytes()) / kTenants;
        std::fprintf(stderr,
                     "perfbench: fleet-flash digest %016llx host digest "
                     "%016llx, %llu migrations begun / %llu completed\n",
                     static_cast<unsigned long long>(first_digest),
                     static_cast<unsigned long long>(first_host_digest),
                     static_cast<unsigned long long>(h.migrations_begun),
                     static_cast<unsigned long long>(h.migrations_completed));
      }
      report->Check(outcome->aggregate.digest == first_digest &&
                        outcome->host_digest == first_host_digest,
                    "every run reproduces the first run's digests");
      report->Check(
          h.downtime_intervals ==
              static_cast<uint64_t>(options.host.migration_downtime_intervals) *
                  h.migrations_begun,
          "downtime_intervals == D x migrations_begun");
      report->Check(h.migrations_completed <= h.migrations_begun,
                    "migrations completed <= begun");
      report->Check(h.migrations_begun > 0, "the flash crowd forces migrations");
      if (traced) {
        *cpu_ns += cpu1 - cpu0;
        spans.Add("fleet.run", -1, w0, w1 - w0);
      }
    } while (WallNs() - start <
             static_cast<uint64_t>(args.seconds) * 1000000000ull);
    return std::make_pair(Throughput(rates), ti);
  };

  uint64_t unused = 0;
  const double rate = measure(false, &unused).first;
  // A tenant in its migration blackout serves nothing: that interval
  // misses its goal.
  const double miss = static_cast<double>(host.downtime_intervals) /
                      static_cast<double>(ti_per_run);

  if (!args.trace) {
    report->Metric("tenant_intervals_per_s", rate, "1/s");
    report->Metric("goal_miss_frac", miss, "ratio");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("setup_s", Median(setup_s), "s");
    return;
  }

  uint64_t cpu_ns = 0;
  const auto [traced_rate, ti] = measure(true, &cpu_ns);
  const double total = PerTi(static_cast<double>(cpu_ns), ti);
  const double step = ReplayStepNs(catalog, options);
  report->Metric("fleet.total_ns", total, "ns");
  report->Metric("fleet.step_ns", step, "ns");
  report->Metric("fleet.unattributed_ns", total - step, "ns");
  report->Metric("fleet.state_bytes_per_tenant", state_bytes, "B");
  report->Metric("host.migrations_begun", static_cast<double>(host.migrations_begun), "count");
  report->Metric("host.migrations_completed", static_cast<double>(host.migrations_completed), "count");
  report->Metric("host.downtime_intervals", static_cast<double>(host.downtime_intervals), "count");
  report->Metric("host.saturated_host_intervals", static_cast<double>(host.saturated_host_intervals), "count");
  report->Metric("host.placement_holds", static_cast<double>(host.placement_holds), "count");
  ReportTraceOverhead(rate, traced_rate, report);
  if (!args.trace_out.empty() && !spans.WriteJsonl(args.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 args.trace_out.c_str());
  }
}

}  // namespace perfbench
