// Performance benchmark for the parallel simulation pipeline (fleet
// fan-out) and the allocation-free per-interval signal path.
//
// Writes machine-readable results to BENCH_perf.json (override with
// --out=PATH):
//   * fleet wall time, serial vs 1/2/4/8 threads, with a determinism
//     digest per run (hex FNV-1a over the raw telemetry bit patterns;
//     must be identical across thread counts);
//   * fleet_scale: the SoA streaming runner (src/fleet/fleet_scale.*) at
//     10^4 and 10^5 tenants (10^6 with --full) — tenants/sec, state
//     bytes, and peak RSS per point — plus a thread-scaling curve whose
//     aggregate digest must be bit-identical at every thread count;
//   * TelemetryManager::Compute throughput and heap allocations per call
//     on a static store, with and without a reusable SignalScratch;
//   * sliding Compute (one appended sample per call) at window sizes
//     W in {32, 128, 512}, with calls/s and per-call allocation counts;
//   * observability overhead: Compute with metrics + span capture enabled
//     vs off, and the fleet run with per-tenant shards vs off — both with
//     a <2% overhead target and an unchanged-digest requirement.
//
// Numbers are only meaningful relative to `hardware_concurrency`, which is
// recorded alongside them (as is DBSCALE_NUM_THREADS when set): on a
// single-core host the parallel runs cannot beat serial and the
// interesting results are the allocation counts, which do not depend on
// core count.
//
// --quick shrinks every section to a few seconds total. No gate runs this
// bench: the zero-allocation and digest contracts it reports are ctest
// cases (tests/alloc_guard_test.cc, the fleet thread-count tests).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/container/catalog.h"
#include "src/fleet/fleet_aggregate.h"
#include "src/fleet/fleet_scale.h"
#include "src/fleet/fleet_sim.h"
#include "src/obs/pipeline.h"
#include "src/telemetry/manager.h"

namespace {

/// Heap allocations made by the calling thread. Thread-local so worker
/// threads (and the global pool) never pollute single-threaded
/// measurements.
thread_local std::int64_t t_alloc_count = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dbscale::bench {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Order-sensitive digest of a fleet run; identical inputs must produce
/// identical digests at every thread count. FNV-1a over the raw bit
/// patterns — unlike the old floating-point weighted sum, equal digests
/// mean bit-equal telemetry, and the hex string form survives the JSON
/// round trip losslessly (a %f double prints truncated).
uint64_t FleetDigest(const fleet::FleetTelemetry& t) {
  Fnv64Stream d;
  for (const fleet::HourlyRecord& r : t.hourly) {
    for (size_t ri = 0; ri < container::kNumResources; ++ri) {
      d.Dbl(r.utilization_pct[ri]);
      d.Dbl(r.wait_ms_per_request[ri]);
    }
  }
  for (double m : t.inter_event_minutes) d.Dbl(m);
  for (int64_t c : t.step_size_counts) d.U64(static_cast<uint64_t>(c));
  return d.value;
}

struct FleetRunStats {
  int num_threads = 0;
  double seconds = 0.0;
  uint64_t digest = 0;
};

FleetRunStats TimeFleetRun(const container::Catalog& catalog,
                           fleet::FleetOptions options, int num_threads) {
  options.num_threads = num_threads;
  fleet::FleetSimulator sim(catalog, options);
  const double start = NowSeconds();
  auto telemetry = sim.Run();
  const double elapsed = NowSeconds() - start;
  if (!telemetry.ok()) {
    std::fprintf(stderr, "fleet run failed: %s\n",
                 telemetry.status().ToString().c_str());
  }
  DBSCALE_CHECK(telemetry.ok());
  return {num_threads, elapsed, FleetDigest(*telemetry)};
}

/// Peak resident set size (VmHWM) in kB, or -1 where /proc is unavailable.
/// High-water mark, so later readings subsume earlier ones; the largest
/// fleet-scale point dominates the value recorded next to it.
long PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

struct FleetScaleRunStats {
  int num_tenants = 0;
  int num_threads = 0;
  double seconds = 0.0;
  double tenants_per_sec = 0.0;
  uint64_t digest = 0;
  uint64_t state_bytes = 0;
  long peak_rss_kb = -1;
};

FleetScaleRunStats TimeFleetScaleRun(const container::Catalog& catalog,
                                     fleet::FleetScaleOptions options) {
  fleet::FleetScaleRunner runner(catalog, options);
  const double start = NowSeconds();
  auto outcome = runner.Run();
  const double elapsed = NowSeconds() - start;
  if (!outcome.ok()) {
    std::fprintf(stderr, "fleet-scale run failed: %s\n",
                 outcome.status().ToString().c_str());
  }
  DBSCALE_CHECK(outcome.ok());
  FleetScaleRunStats stats;
  stats.num_tenants = options.num_tenants;
  stats.num_threads = options.num_threads;
  stats.seconds = elapsed;
  stats.tenants_per_sec =
      elapsed > 0.0 ? options.num_tenants / elapsed : 0.0;
  stats.digest = outcome->aggregate.digest;
  stats.state_bytes = runner.StateBytes();
  stats.peak_rss_kb = PeakRssKb();
  return stats;
}

telemetry::TelemetrySample MakeSlidingSample(
    const container::Catalog& catalog, int i, Rng& rng) {
  telemetry::TelemetrySample sample;
  sample.period_start = SimTime::Zero() + Duration::Seconds(i * 5);
  sample.period_end = SimTime::Zero() + Duration::Seconds((i + 1) * 5);
  sample.requests_completed = 100;
  sample.latency_p95_ms = rng.LogNormal(5.0, 0.3);
  sample.latency_avg_ms = sample.latency_p95_ms * 0.5;
  for (size_t r = 0; r < container::kNumResources; ++r) {
    sample.utilization_pct[r] = rng.Uniform(0, 100);
  }
  for (size_t w = 0; w < telemetry::kNumWaitClasses; ++w) {
    sample.wait_ms[w] = rng.LogNormal(4.0, 1.0);
  }
  sample.allocation = catalog.rung(4).resources;
  return sample;
}

telemetry::TelemetryStore MakeSignalStore(const container::Catalog& catalog) {
  telemetry::TelemetryStore store;
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    store.Append(MakeSlidingSample(catalog, i, rng));
  }
  return store;
}

struct ComputeStats {
  double calls_per_sec = 0.0;
  double allocs_per_call = 0.0;
};

ComputeStats TimeCompute(const telemetry::TelemetryManager& manager,
                         const telemetry::TelemetryStore& store,
                         telemetry::SignalScratch* scratch, int iterations) {
  const SimTime now = SimTime::Zero() + Duration::Seconds(64 * 5);
  // Warm up (first scratch call sizes the buffers; later calls must not
  // allocate).
  for (int i = 0; i < 16; ++i) manager.Compute(store, now, scratch);
  const std::int64_t allocs_before = t_alloc_count;
  const double start = NowSeconds();
  double sink = 0.0;
  for (int i = 0; i < iterations; ++i) {
    sink += manager.Compute(store, now, scratch).latency_ms;
  }
  const double elapsed = NowSeconds() - start;
  const std::int64_t allocs = t_alloc_count - allocs_before;
  DBSCALE_CHECK(sink > 0.0);
  ComputeStats stats;
  stats.calls_per_sec = iterations / elapsed;
  stats.allocs_per_call =
      static_cast<double>(allocs) / static_cast<double>(iterations);
  return stats;
}

/// TimeCompute with the observability layer live: every call runs inside
/// its own span tree (the deployment shape — one Compute per billing
/// interval) and records through the primary-shard sink.
ComputeStats TimeComputeObserved(const telemetry::TelemetryManager& manager,
                                 const telemetry::TelemetryStore& store,
                                 telemetry::SignalScratch* scratch,
                                 int iterations, obs::Observability* ob) {
  const SimTime now = SimTime::Zero() + Duration::Seconds(64 * 5);
  const obs::Sink obs_sink = ob->PrimarySink();
  for (int i = 0; i < 16; ++i) {
    ob->trace().BeginInterval(i, now);
    manager.Compute(store, now, scratch,
                    obs_sink.Under(ob->trace().root()));
    ob->trace().EndInterval(now);
  }
  const std::int64_t allocs_before = t_alloc_count;
  const double start = NowSeconds();
  double sink = 0.0;
  for (int i = 0; i < iterations; ++i) {
    ob->trace().BeginInterval(i, now);
    sink += manager
                .Compute(store, now, scratch,
                         obs_sink.Under(ob->trace().root()))
                .latency_ms;
    ob->trace().EndInterval(now);
  }
  const double elapsed = NowSeconds() - start;
  const std::int64_t allocs = t_alloc_count - allocs_before;
  DBSCALE_CHECK(sink > 0.0);
  ComputeStats stats;
  stats.calls_per_sec = iterations / elapsed;
  stats.allocs_per_call =
      static_cast<double>(allocs) / static_cast<double>(iterations);
  return stats;
}

struct SlidingRow {
  size_t window = 0;
  int slides = 0;
  ComputeStats stats;
};

/// The deployment access pattern: a sample appended before every Compute,
/// at trend/correlation window W (aggregation W/2). Only the Compute calls
/// are timed and allocation-counted (the store's own append may grow its
/// ring).
SlidingRow TimeSlidingCompute(const container::Catalog& catalog,
                              size_t window, int slides) {
  telemetry::TelemetryManagerOptions options;
  options.aggregation_samples = window / 2;
  options.trend_samples = window;
  options.correlation_samples = window;
  const telemetry::TelemetryManager manager(options);
  telemetry::TelemetryStore store;
  Rng rng(29);
  int index = 0;
  for (size_t i = 0; i < window; ++i) {
    store.Append(MakeSlidingSample(catalog, index++, rng));
  }
  telemetry::SignalScratch scratch;
  // Warm up: sizes the scratch buffers.
  manager.Compute(store, store.back().period_end, &scratch);

  double compute_seconds = 0.0;
  std::int64_t allocs = 0;
  double sink = 0.0;
  for (int i = 0; i < slides; ++i) {
    store.Append(MakeSlidingSample(catalog, index++, rng));
    const std::int64_t allocs_before = t_alloc_count;
    const double start = NowSeconds();
    sink += manager.Compute(store, store.back().period_end, &scratch)
                .latency_ms;
    compute_seconds += NowSeconds() - start;
    allocs += t_alloc_count - allocs_before;
  }
  DBSCALE_CHECK(sink > 0.0);
  SlidingRow row;
  row.window = window;
  row.slides = slides;
  row.stats.calls_per_sec = slides / compute_seconds;
  row.stats.allocs_per_call =
      static_cast<double>(allocs) / static_cast<double>(slides);
  return row;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_perf.json";
  bool quick = false;
  bool full = false;
  fleet::FleetOptions fleet_options;
  fleet_options.num_tenants = 200;
  fleet_options.num_intervals = 288;  // one simulated day
  fleet_options.seed = 17;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
      fleet_options.num_tenants = 1000;
      fleet_options.num_intervals = 7 * 288;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      fleet_options.num_tenants = 24;
      fleet_options.num_intervals = 48;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const char* threads_env = std::getenv("DBSCALE_NUM_THREADS");
  std::printf("hardware_concurrency: %u\n", hw);
  std::printf("DBSCALE_NUM_THREADS: %s\n",
              threads_env != nullptr ? threads_env : "(unset)");
  std::printf("default threads: %d\n\n", ThreadPool::DefaultNumThreads());
  if (hw <= 1) {
    std::printf(
        "WARNING: single-core host — fleet speedups cannot exceed 1x here; "
        "read the allocation counts instead.\n"
        "\n");
  }

  container::Catalog catalog = container::Catalog::MakeLockStep();

  std::printf("fleet: %d tenants x %d intervals\n",
              fleet_options.num_tenants, fleet_options.num_intervals);
  std::vector<FleetRunStats> fleet_runs;
  const std::vector<int> thread_counts =
      quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  for (int threads : thread_counts) {
    fleet_runs.push_back(TimeFleetRun(catalog, fleet_options, threads));
    const FleetRunStats& run = fleet_runs.back();
    std::printf("  threads=%d  %.3fs  speedup=%.2fx  digest=%016llx\n",
                run.num_threads, run.seconds,
                fleet_runs.front().seconds / run.seconds,
                static_cast<unsigned long long>(run.digest));
    // Bit-identical output is a hard guarantee, not a tolerance.
    DBSCALE_CHECK(run.digest == fleet_runs.front().digest);
  }

  // Fleet at scale: the SoA streaming runner (src/fleet/fleet_scale.*).
  // Scale points measure streaming throughput and peak RSS at growing
  // tenant counts; the thread curve re-runs one point at several thread
  // counts and requires a bit-identical aggregate digest. On a single-core
  // host the curve is flat by construction — the JSON carries an explicit
  // caveat so readers do not mistake that for a sharding regression.
  fleet::FleetScaleOptions scale_base;
  scale_base.num_intervals = quick ? 48 : 288;  // one simulated day
  scale_base.epoch_intervals = scale_base.num_intervals;
  scale_base.seed = 7;
  scale_base.block_size = 2048;
  const std::vector<int> scale_points =
      quick ? std::vector<int>{10000}
            : (full ? std::vector<int>{10000, 100000, 1000000}
                    : std::vector<int>{10000, 100000});
  std::printf("\nfleet_scale (SoA streaming runner, %d intervals):\n",
              scale_base.num_intervals);
  std::vector<FleetScaleRunStats> scale_stats;
  for (int tenants : scale_points) {
    fleet::FleetScaleOptions options = scale_base;
    options.num_tenants = tenants;
    scale_stats.push_back(TimeFleetScaleRun(catalog, options));
    const FleetScaleRunStats& run = scale_stats.back();
    std::printf("  tenants=%-8d %8.2fs  %8.0f tenants/s  "
                "state %7.1f MB  peak RSS %7.1f MB\n",
                run.num_tenants, run.seconds, run.tenants_per_sec,
                run.state_bytes / 1048576.0, run.peak_rss_kb / 1024.0);
  }

  const int curve_tenants = quick ? 10000 : 100000;
  std::vector<FleetScaleRunStats> scale_curve;
  for (int threads : thread_counts) {
    fleet::FleetScaleOptions options = scale_base;
    options.num_tenants = curve_tenants;
    options.num_threads = threads;
    scale_curve.push_back(TimeFleetScaleRun(catalog, options));
    const FleetScaleRunStats& run = scale_curve.back();
    std::printf("  tenants=%d threads=%d  %8.2fs  speedup=%.2fx  "
                "digest=%016llx\n",
                curve_tenants, run.num_threads, run.seconds,
                scale_curve.front().seconds / run.seconds,
                static_cast<unsigned long long>(run.digest));
    // The digest chains per-tenant streams in tenant order; any thread
    // count must reproduce it bit for bit.
    DBSCALE_CHECK(run.digest == scale_curve.front().digest);
  }
  double scale_max_speedup = 0.0;
  for (const FleetScaleRunStats& run : scale_curve) {
    scale_max_speedup =
        std::max(scale_max_speedup, scale_curve.front().seconds / run.seconds);
  }

  // Static-store rows: isolates what the scratch alone buys.
  telemetry::TelemetryStore store = MakeSignalStore(catalog);
  const telemetry::TelemetryManager manager;
  telemetry::SignalScratch scratch;
  const int iterations = quick ? 2000 : 20000;
  ComputeStats no_scratch =
      TimeCompute(manager, store, nullptr, iterations);
  ComputeStats with_scratch =
      TimeCompute(manager, store, &scratch, iterations);
  std::printf("\nTelemetryManager::Compute (static 64-sample store):\n");
  std::printf("  no scratch:   %10.0f calls/s  %6.1f allocs/call\n",
              no_scratch.calls_per_sec, no_scratch.allocs_per_call);
  std::printf("  with scratch: %10.0f calls/s  %6.1f allocs/call\n",
              with_scratch.calls_per_sec, with_scratch.allocs_per_call);

  // Sliding store at growing windows. The pairwise-slope pass is O(W^2)
  // per call, so the slide counts shrink with W to keep the section
  // bounded.
  std::printf("\nSliding Compute (1 append per call):\n");
  std::vector<SlidingRow> sliding;
  const std::vector<std::pair<size_t, int>> sliding_cases =
      quick ? std::vector<std::pair<size_t, int>>{{32, 200}, {128, 60},
                                                  {512, 16}}
            : std::vector<std::pair<size_t, int>>{{32, 4000}, {128, 1000},
                                                  {512, 150}};
  for (const auto& [window, slides] : sliding_cases) {
    sliding.push_back(TimeSlidingCompute(catalog, window, slides));
    const SlidingRow& row = sliding.back();
    std::printf("  W=%-4zu %10.0f calls/s %5.2f allocs/call\n", row.window,
                row.stats.calls_per_sec, row.stats.allocs_per_call);
  }

  // Observability overhead. Compute: metrics + one span tree per call vs
  // the plain scratch path. Fleet: per-tenant shards merged in tenant
  // order vs none, at the largest thread count benchmarked — and the
  // checksum must not move (observing a run never perturbs it). Paired
  // best-of-N on both sides filters scheduler/turbo noise, which would
  // otherwise swamp a sub-2% effect.
  obs::Observability compute_ob;
  const int overhead_reps = quick ? 3 : 7;  // odd: median is a single rep
  const int overhead_iters = quick ? 1000 : 5000;
  ComputeStats compute_base;
  ComputeStats observed_compute;
  double observed_allocs_per_call = 0.0;
  std::vector<double> compute_ratios;
  for (int rep = 0; rep < overhead_reps; ++rep) {
    const ComputeStats base =
        TimeCompute(manager, store, &scratch, overhead_iters);
    const ComputeStats observed = TimeComputeObserved(
        manager, store, &scratch, overhead_iters, &compute_ob);
    compute_ratios.push_back(base.calls_per_sec / observed.calls_per_sec);
    if (base.calls_per_sec > compute_base.calls_per_sec) compute_base = base;
    if (observed.calls_per_sec > observed_compute.calls_per_sec) {
      observed_compute = observed;
    }
    observed_allocs_per_call =
        std::max(observed_allocs_per_call, observed.allocs_per_call);
  }
  std::sort(compute_ratios.begin(), compute_ratios.end());
  const double compute_overhead_pct =
      (compute_ratios[compute_ratios.size() / 2] - 1.0) * 100.0;

  const int obs_threads = thread_counts.back();
  fleet::FleetOptions observed_options = fleet_options;
  const int fleet_reps = quick ? 3 : 5;
  double fleet_base_seconds = 0.0;
  double fleet_observed_seconds = 0.0;
  std::vector<double> fleet_ratios;
  for (int rep = 0; rep < fleet_reps; ++rep) {
    const FleetRunStats base =
        TimeFleetRun(catalog, fleet_options, obs_threads);
    obs::Observability fleet_ob;
    observed_options.obs = &fleet_ob;
    const FleetRunStats observed =
        TimeFleetRun(catalog, observed_options, obs_threads);
    DBSCALE_CHECK(observed.digest == base.digest);
    fleet_ratios.push_back(observed.seconds / base.seconds);
    if (rep == 0 || base.seconds < fleet_base_seconds) {
      fleet_base_seconds = base.seconds;
    }
    if (rep == 0 || observed.seconds < fleet_observed_seconds) {
      fleet_observed_seconds = observed.seconds;
    }
  }
  std::sort(fleet_ratios.begin(), fleet_ratios.end());
  const double fleet_overhead_pct =
      (fleet_ratios[fleet_ratios.size() / 2] - 1.0) * 100.0;

  std::printf("\nObservability overhead "
              "(<2%% target, median of %d paired reps):\n",
              overhead_reps);
  std::printf("  compute: %10.0f -> %10.0f calls/s  %+5.2f%%  "
              "%.2f allocs/call observed\n",
              compute_base.calls_per_sec, observed_compute.calls_per_sec,
              compute_overhead_pct, observed_allocs_per_call);
  std::printf("  fleet (threads=%d): %.3fs -> %.3fs  %+5.2f%%  "
              "digest unchanged\n",
              obs_threads, fleet_base_seconds, fleet_observed_seconds,
              fleet_overhead_pct);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  DBSCALE_CHECK(out != nullptr);
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n", hw);
  if (threads_env != nullptr) {
    std::fprintf(out, "  \"dbscale_num_threads_env\": \"%s\",\n", threads_env);
  } else {
    std::fprintf(out, "  \"dbscale_num_threads_env\": null,\n");
  }
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"fleet\": {\n");
  std::fprintf(out, "    \"num_tenants\": %d,\n", fleet_options.num_tenants);
  std::fprintf(out, "    \"num_intervals\": %d,\n",
               fleet_options.num_intervals);
  std::fprintf(out, "    \"runs\": [\n");
  for (size_t i = 0; i < fleet_runs.size(); ++i) {
    const FleetRunStats& run = fleet_runs[i];
    std::fprintf(out,
                 "      {\"threads\": %d, \"seconds\": %.6f, "
                 "\"speedup_vs_serial\": %.4f, \"digest\": \"%016llx\"}%s\n",
                 run.num_threads, run.seconds,
                 fleet_runs.front().seconds / run.seconds,
                 static_cast<unsigned long long>(run.digest),
                 i + 1 < fleet_runs.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"deterministic_across_threads\": true\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"fleet_scale\": {\n");
  std::fprintf(out, "    \"num_intervals\": %d,\n", scale_base.num_intervals);
  std::fprintf(out, "    \"block_size\": %d,\n", scale_base.block_size);
  std::fprintf(out, "    \"single_core_container\": %s,\n",
               hw <= 1 ? "true" : "false");
  if (hw <= 1) {
    std::fprintf(out,
                 "    \"thread_scaling_caveat\": \"single-core container "
                 "(hardware_concurrency=1): the thread curve is flat by "
                 "construction, so read tenants_per_sec as per-core "
                 "streaming throughput; digests stay bit-identical at "
                 "every thread count regardless\",\n");
  }
  std::fprintf(out, "    \"scale_points\": [\n");
  for (size_t i = 0; i < scale_stats.size(); ++i) {
    const FleetScaleRunStats& run = scale_stats[i];
    std::fprintf(out,
                 "      {\"tenants\": %d, \"seconds\": %.3f, "
                 "\"tenants_per_sec\": %.0f, \"state_bytes\": %llu, "
                 "\"bytes_per_tenant\": %.1f, \"peak_rss_kb\": %ld, "
                 "\"digest\": \"%016llx\"}%s\n",
                 run.num_tenants, run.seconds, run.tenants_per_sec,
                 static_cast<unsigned long long>(run.state_bytes),
                 static_cast<double>(run.state_bytes) / run.num_tenants,
                 run.peak_rss_kb,
                 static_cast<unsigned long long>(run.digest),
                 i + 1 < scale_stats.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"thread_scaling\": {\n");
  std::fprintf(out, "      \"tenants\": %d,\n", curve_tenants);
  std::fprintf(out, "      \"runs\": [\n");
  for (size_t i = 0; i < scale_curve.size(); ++i) {
    const FleetScaleRunStats& run = scale_curve[i];
    std::fprintf(out,
                 "        {\"threads\": %d, \"seconds\": %.3f, "
                 "\"speedup_vs_serial\": %.4f, \"digest\": \"%016llx\"}%s\n",
                 run.num_threads, run.seconds,
                 scale_curve.front().seconds / run.seconds,
                 static_cast<unsigned long long>(run.digest),
                 i + 1 < scale_curve.size() ? "," : "");
  }
  std::fprintf(out, "      ],\n");
  std::fprintf(out, "      \"max_speedup\": %.4f,\n", scale_max_speedup);
  std::fprintf(out, "      \"digest_identical_across_threads\": true\n");
  std::fprintf(out, "    }\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"telemetry_compute\": {\n");
  std::fprintf(out, "    \"iterations\": %d,\n", iterations);
  std::fprintf(out,
               "    \"no_scratch\": {\"calls_per_sec\": %.0f, "
               "\"allocs_per_call\": %.2f},\n",
               no_scratch.calls_per_sec, no_scratch.allocs_per_call);
  std::fprintf(out,
               "    \"with_scratch\": {\"calls_per_sec\": %.0f, "
               "\"allocs_per_call\": %.2f}\n",
               with_scratch.calls_per_sec, with_scratch.allocs_per_call);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"sliding_compute\": [\n");
  for (size_t i = 0; i < sliding.size(); ++i) {
    const SlidingRow& row = sliding[i];
    std::fprintf(out,
                 "    {\"window\": %zu, \"slides\": %d, "
                 "\"calls_per_sec\": %.0f, \"allocs_per_call\": %.4f}%s\n",
                 row.window, row.slides, row.stats.calls_per_sec,
                 row.stats.allocs_per_call,
                 i + 1 < sliding.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"observability\": {\n");
  std::fprintf(out,
               "    \"compute\": {\"base_calls_per_sec\": %.0f, "
               "\"observed_calls_per_sec\": %.0f, "
               "\"observed_allocs_per_call\": %.4f, "
               "\"overhead_pct\": %.4f},\n",
               compute_base.calls_per_sec, observed_compute.calls_per_sec,
               observed_allocs_per_call, compute_overhead_pct);
  std::fprintf(out,
               "    \"fleet\": {\"threads\": %d, \"base_seconds\": %.6f, "
               "\"observed_seconds\": %.6f, \"overhead_pct\": %.4f, "
               "\"digest_matches\": true}\n",
               obs_threads, fleet_base_seconds, fleet_observed_seconds,
               fleet_overhead_pct);
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace dbscale::bench

int main(int argc, char** argv) { return dbscale::bench::Main(argc, argv); }
