// Fleet at scale: the SoA streaming runner on a 10^4-tenant fleet.
//
// Demonstrates the million-tenant machinery end to end at a size that
// finishes in seconds:
//   * block-sharded streaming aggregation (no materialized telemetry),
//   * the run digest: bit-identical when run twice and across
//     checkpoint/resume at a different thread count,
//   * the checkpoint format rejecting a corrupted file cleanly.
//
// Usage: fleet_scale [--checkpoint=PATH]
// ctest runs it as example_fleet_scale: it checks run-twice digest
// identity, resume-equals-uninterrupted, corruption rejection, the hourly
// record count and a 300 tenants/s throughput floor, and exits non-zero
// naming any contract that broke.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "examples/contracts.h"
#include "src/common/string_util.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/fleet_scale.h"

using namespace dbscale;  // NOLINT: example brevity

namespace {

// Far below any build's throughput (sanitizers included), so only an
// order-of-magnitude regression trips it.
constexpr double kMinTenantsPerSec = 300.0;

fleet::FleetScaleOptions BaseOptions() {
  fleet::FleetScaleOptions options;
  options.num_tenants = 10000;
  options.num_intervals = 288;  // one day of 5-minute intervals
  options.seed = 42;
  options.block_size = 1024;
  options.epoch_intervals = 72;
  options.fault.resize.failure_probability = 0.05;
  options.fault.resize.max_latency_intervals = 2;
  return options;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string ckpt = "/tmp/fleet_scale_example.ckpt";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--checkpoint=", 13) == 0) ckpt = argv[i] + 13;
  }
  const container::Catalog catalog = container::Catalog::MakeLockStep();

  // 1. Run twice: identical digests prove the run is a pure function of
  // the seed and options.
  fleet::FleetScaleRunner runner_a(catalog, BaseOptions());
  const auto start = std::chrono::steady_clock::now();
  auto run_a = runner_a.Run();
  const double seconds = Seconds(start);
  auto run_b = fleet::FleetScaleRunner(catalog, BaseOptions()).Run();
  if (!run_a.ok() || !run_b.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 run_a.status().ToString().c_str());
    return 1;
  }
  const double tenants_per_sec =
      seconds > 0.0 ? BaseOptions().num_tenants / seconds : 0.0;

  // 2. Stop after two epochs writing a checkpoint, then resume with a
  // different thread count: still bit-identical to the uninterrupted run.
  fleet::FleetScaleOptions stopped = BaseOptions();
  stopped.checkpoint_path = ckpt;
  stopped.stop_after_intervals = 144;
  auto partial = fleet::FleetScaleRunner(catalog, stopped).Run();
  fleet::FleetScaleOptions rest = BaseOptions();
  rest.num_threads = 3;
  auto resumed = fleet::FleetScaleRunner::Resume(catalog, rest, ckpt);
  if (!partial.ok() || !resumed.ok()) {
    std::fprintf(stderr, "checkpoint round trip failed: %s\n",
                 (!partial.ok() ? partial : resumed).status().ToString()
                     .c_str());
    return 1;
  }

  // 3. Flip one byte in the checkpoint: the footer hash must reject it.
  bool corrupt_rejected = false;
  {
    std::ifstream in(ckpt, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x20;
    std::ofstream(ckpt, std::ios::binary)
        .write(bytes.data(), static_cast<long>(bytes.size()));
    auto bad = fleet::FleetScaleRunner::Resume(catalog, BaseOptions(), ckpt);
    corrupt_rejected = !bad.ok();
    if (!bad.ok()) {
      std::printf("corrupt checkpoint rejected: %s\n\n",
                  bad.status().ToString().c_str());
    }
  }
  std::remove(ckpt.c_str());

  const fleet::FleetAggregate& agg = run_a->aggregate;
  std::printf("fleet: %d tenants x %d intervals in %.2fs (%.0f tenants/s)\n",
              BaseOptions().num_tenants, BaseOptions().num_intervals,
              seconds, tenants_per_sec);
  std::printf("state: %.1f MB resident (%.0f B/tenant)\n",
              runner_a.StateBytes() / 1048576.0,
              static_cast<double>(runner_a.StateBytes()) /
                  BaseOptions().num_tenants);
  std::printf("digest: run A %016llx, run B %016llx, resumed %016llx\n",
              (unsigned long long)agg.digest,
              (unsigned long long)run_b->aggregate.digest,
              (unsigned long long)resumed->aggregate.digest);
  std::printf("changes: %llu total, %.1f%% one-step, %.1f%% <= 2 steps, "
              "%llu resize failures\n",
              (unsigned long long)agg.total_changes,
              100.0 * agg.OneStepFraction(),
              100.0 * agg.AtMostTwoStepFraction(),
              (unsigned long long)agg.resize_failures);

  examples::Contracts contracts;
  std::printf("\n");
  contracts.Check(agg.digest == run_b->aggregate.digest,
                  "the run is run-twice bit-identical");
  contracts.Check(resumed->aggregate.digest == agg.digest,
                  "a checkpointed stop and resume at 3 threads matches the "
                  "uninterrupted run");
  contracts.Check(corrupt_rejected, "a corrupted checkpoint is rejected");
  const uint64_t expected_hourly =
      static_cast<uint64_t>(BaseOptions().num_tenants) *
      BaseOptions().num_intervals / 12;
  contracts.Check(agg.hourly_records == expected_hourly,
                  StrFormat("%llu hourly records, one per tenant-hour",
                            (unsigned long long)agg.hourly_records));
  contracts.Check(tenants_per_sec >= kMinTenantsPerSec,
                  StrFormat("throughput %.0f tenants/s is above the %.0f "
                            "floor",
                            tenants_per_sec, kMinTenantsPerSec));
  return contracts.ExitCode();
}
