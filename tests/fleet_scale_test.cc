#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/fleet/checkpoint.h"
#include "src/fleet/fleet_aggregate.h"
#include "src/fleet/fleet_scale.h"
#include "src/fleet/fleet_sim.h"
#include "src/obs/export.h"
#include "src/obs/pipeline.h"
#include "tests/fleet_telemetry_digest.h"

namespace dbscale::fleet {
namespace {

using container::Catalog;

FleetScaleOptions SmallScale() {
  FleetScaleOptions options;
  options.num_tenants = 300;
  options.num_intervals = 2 * 288;
  options.seed = 11;
  options.num_threads = 2;
  options.block_size = 64;
  options.epoch_intervals = 288;
  return options;
}

fault::FaultPlanOptions SomeFaults() {
  fault::FaultPlanOptions fault;
  fault.resize.failure_probability = 0.08;
  fault.resize.rejection_probability = 0.02;
  fault.resize.min_latency_intervals = 0;
  fault.resize.max_latency_intervals = 3;
  return fault;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

void ExpectIntegerCountsEqual(const FleetAggregate& a,
                              const FleetAggregate& b) {
  EXPECT_EQ(a.tenants, b.tenants);
  EXPECT_EQ(a.hourly_records, b.hourly_records);
  EXPECT_EQ(a.total_changes, b.total_changes);
  EXPECT_EQ(a.resize_failures, b.resize_failures);
  EXPECT_EQ(a.resize_retries, b.resize_retries);
  ASSERT_EQ(a.step_size_counts.size(), b.step_size_counts.size());
  EXPECT_EQ(a.step_size_counts, b.step_size_counts);
  ASSERT_EQ(a.inter_event_gap_counts.size(),
            b.inter_event_gap_counts.size());
  EXPECT_EQ(a.inter_event_gap_counts, b.inter_event_gap_counts);
  EXPECT_EQ(a.changes_per_tenant_counts, b.changes_per_tenant_counts);
  for (size_t ri = 0; ri < a.resources.size(); ++ri) {
    SCOPED_TRACE("resource " + std::to_string(ri));
    const FleetAggregate::ResourceAgg& ra = a.resources[ri];
    const FleetAggregate::ResourceAgg& rb = b.resources[ri];
    EXPECT_EQ(ra.util, rb.util);
    EXPECT_EQ(ra.wait_ms, rb.wait_ms);
    EXPECT_EQ(ra.wait_pct, rb.wait_pct);
    EXPECT_EQ(ra.wait_per_req, rb.wait_per_req);
    EXPECT_EQ(ra.wait_per_req_low_util, rb.wait_per_req_low_util);
    EXPECT_EQ(ra.wait_per_req_high_util, rb.wait_per_req_high_util);
    // Sums are fold-order dependent between the streaming and oracle
    // paths; bounded relative error, not bit equality.
    EXPECT_NEAR(ra.util_sum, rb.util_sum,
                1e-9 * (1.0 + std::abs(rb.util_sum)));
    EXPECT_NEAR(ra.wait_ms_sum, rb.wait_ms_sum,
                1e-9 * (1.0 + std::abs(rb.wait_ms_sum)));
  }
}

// The streaming aggregate over the SoA runner must match, count for
// count, an aggregate folded from the exact path's materialized
// telemetry for the same seed and fleet.
TEST(FleetScaleTest, StreamingMatchesExactOracle) {
  Catalog catalog = Catalog::MakeLockStep();
  FleetScaleOptions scale = SmallScale();

  FleetOptions exact;
  exact.num_tenants = scale.num_tenants;
  exact.num_intervals = scale.num_intervals;
  exact.seed = scale.seed;
  exact.num_threads = 1;
  auto telemetry = FleetSimulator(catalog, exact).Run();
  ASSERT_TRUE(telemetry.ok()) << telemetry.status().message();
  const FleetAggregate oracle =
      FleetAggregate::FromTelemetry(*telemetry, catalog.num_rungs());

  FleetScaleRunner runner(catalog, scale);
  auto outcome = runner.Run();
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_TRUE(outcome->complete);
  EXPECT_EQ(outcome->completed_intervals, scale.num_intervals);
  ExpectIntegerCountsEqual(outcome->aggregate, oracle);
  EXPECT_DOUBLE_EQ(outcome->aggregate.OneStepFraction(),
                   telemetry->OneStepFraction());
  EXPECT_DOUBLE_EQ(outcome->aggregate.AtMostTwoStepFraction(),
                   telemetry->AtMostTwoStepFraction());
}

TEST(FleetScaleTest, StreamingMatchesExactOracleUnderFaults) {
  Catalog catalog = Catalog::MakeLockStep();
  FleetScaleOptions scale = SmallScale();
  scale.fault = SomeFaults();

  FleetOptions exact;
  exact.num_tenants = scale.num_tenants;
  exact.num_intervals = scale.num_intervals;
  exact.seed = scale.seed;
  exact.num_threads = 1;
  exact.fault = scale.fault;
  auto telemetry = FleetSimulator(catalog, exact).Run();
  ASSERT_TRUE(telemetry.ok());
  const FleetAggregate oracle =
      FleetAggregate::FromTelemetry(*telemetry, catalog.num_rungs());
  ASSERT_GT(telemetry->resize_failures, 0u);

  auto outcome = FleetScaleRunner(catalog, scale).Run();
  ASSERT_TRUE(outcome.ok());
  ExpectIntegerCountsEqual(outcome->aggregate, oracle);
}

// The digest must be bit-identical at any thread count and for any
// epoch slicing (block geometry held fixed).
TEST(FleetScaleTest, DigestInvariantAcrossThreadsAndEpochs) {
  Catalog catalog = Catalog::MakeLockStep();
  uint64_t reference = 0;
  bool have_reference = false;
  for (const int threads : {1, 2, 4, 8}) {
    for (const int epoch : {288, 96}) {
      FleetScaleOptions options = SmallScale();
      options.num_threads = threads;
      options.epoch_intervals = epoch;
      auto outcome = FleetScaleRunner(catalog, options).Run();
      ASSERT_TRUE(outcome.ok());
      if (!have_reference) {
        reference = outcome->aggregate.digest;
        have_reference = true;
        EXPECT_NE(reference, 0u);
      }
      EXPECT_EQ(outcome->aggregate.digest, reference)
          << "threads=" << threads << " epoch=" << epoch;
    }
  }
}

TEST(FleetScaleTest, CheckpointRoundTripBitIdentical) {
  Catalog catalog = Catalog::MakeLockStep();
  const std::string path = TempPath("fleet_scale_roundtrip.ckpt");

  FleetScaleOptions options;
  options.num_tenants = 10000;
  options.num_intervals = 96;
  options.seed = 23;
  options.num_threads = 2;
  options.block_size = 512;
  options.epoch_intervals = 24;
  options.fault = SomeFaults();

  // Uninterrupted reference run (no checkpointing).
  auto full = FleetScaleRunner(catalog, options).Run();
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->complete);

  // Stop after two epochs, writing a checkpoint...
  FleetScaleOptions first_half = options;
  first_half.checkpoint_path = path;
  first_half.stop_after_intervals = 48;
  auto partial = FleetScaleRunner(catalog, first_half).Run();
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial->complete);
  EXPECT_EQ(partial->completed_intervals, 48);

  // ...then resume at a DIFFERENT thread count: still bit-identical.
  FleetScaleOptions second_half = options;
  second_half.num_threads = 7;
  auto resumed = FleetScaleRunner::Resume(catalog, second_half, path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->completed_intervals, options.num_intervals);
  EXPECT_EQ(resumed->aggregate.digest, full->aggregate.digest);
  ExpectIntegerCountsEqual(resumed->aggregate, full->aggregate);
  // Fold-order is identical here (same block/epoch geometry), so even the
  // floating sums must match bitwise.
  for (size_t ri = 0; ri < resumed->aggregate.resources.size(); ++ri) {
    EXPECT_EQ(resumed->aggregate.resources[ri].util_sum,
              full->aggregate.resources[ri].util_sum);  // dbscale-lint: allow(float-equality)
  }
  std::remove(path.c_str());
}

TEST(FleetScaleTest, ResumeAfterFinalEpochReturnsCompleteOutcome) {
  Catalog catalog = Catalog::MakeLockStep();
  const std::string path = TempPath("fleet_scale_final.ckpt");
  FleetScaleOptions options = SmallScale();
  options.num_tenants = 200;
  options.checkpoint_path = path;
  auto full = FleetScaleRunner(catalog, options).Run();
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->complete);

  options.checkpoint_path.clear();
  auto resumed = FleetScaleRunner::Resume(catalog, options, path);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->complete);
  EXPECT_EQ(resumed->aggregate.digest, full->aggregate.digest);
  std::remove(path.c_str());
}

TEST(FleetScaleTest, RejectsTruncatedCorruptAndMismatchedCheckpoints) {
  Catalog catalog = Catalog::MakeLockStep();
  const std::string path = TempPath("fleet_scale_corrupt.ckpt");
  FleetScaleOptions options = SmallScale();
  options.num_tenants = 100;
  options.num_intervals = 48;
  options.epoch_intervals = 24;
  options.stop_after_intervals = 24;
  options.checkpoint_path = path;
  ASSERT_TRUE(FleetScaleRunner(catalog, options).Run().ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);

  options.checkpoint_path.clear();
  options.stop_after_intervals = 0;

  // Truncation at several depths: clean IoError, no crash, no resume.
  for (const size_t keep :
       {size_t{0}, size_t{4}, size_t{21}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::ofstream(path, std::ios::binary).write(bytes.data(),
                                                static_cast<long>(keep));
    auto resumed = FleetScaleRunner::Resume(catalog, options, path);
    ASSERT_FALSE(resumed.ok()) << "keep=" << keep;
  }

  // Bit flip in the body: the footer hash catches it.
  {
    std::string corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x40;
    std::ofstream(path, std::ios::binary)
        .write(corrupt.data(), static_cast<long>(corrupt.size()));
    auto resumed = FleetScaleRunner::Resume(catalog, options, path);
    ASSERT_FALSE(resumed.ok());
  }

  // Valid checkpoint, wrong run options: fingerprint mismatch.
  {
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), static_cast<long>(bytes.size()));
    FleetScaleOptions other = options;
    other.seed = 999;
    auto resumed = FleetScaleRunner::Resume(catalog, other, path);
    ASSERT_FALSE(resumed.ok());
    EXPECT_NE(resumed.status().message().find("fingerprint"),
              std::string::npos);
  }

  // A file that is not a checkpoint at all.
  {
    std::ofstream(path, std::ios::binary) << "not a checkpoint";
    auto resumed = FleetScaleRunner::Resume(catalog, options, path);
    ASSERT_FALSE(resumed.ok());
  }
  std::remove(path.c_str());
}

// The header's counts are read before the footer hash can be checked, so a
// flipped bit in one must be rejected before anything is sized from it: bit
// 30 of num_tenants alone would ask for over 100 GB.
TEST(FleetScaleTest, RejectsHeaderCountsTheCheckpointCannotHold) {
  Catalog catalog = Catalog::MakeLockStep();
  const std::string path = TempPath("fleet_scale_header.ckpt");
  // Byte offsets of the i32 counts (checkpoint.h: u64 magic, u32 version,
  // u64 fingerprint, i32 completed_intervals, then these).
  constexpr size_t kNumTenantsAt = 24;
  constexpr size_t kNumHostsAt = 30;
  constexpr size_t kNumBlocksAt = 34;
  constexpr size_t kNumRungsAt = 38;
  constexpr size_t kNumIntervalsAt = 42;
  for (const bool host_plane : {false, true}) {
    SCOPED_TRACE(host_plane ? "host plane" : "no host plane");
    FleetScaleOptions options = SmallScale();
    options.num_tenants = 100;
    options.num_intervals = 48;
    options.epoch_intervals = 24;
    options.stop_after_intervals = 24;
    options.checkpoint_path = path;
    if (host_plane) {
      options.host.num_hosts = 32;
      options.host.capacity =
          container::ResourceVector{64.0, 524288.0, 160000.0, 3200.0};
    }
    auto first = FleetScaleRunner(catalog, options).Run();
    ASSERT_TRUE(first.ok()) << first.status().message();
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      ASSERT_TRUE(in.good());
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    options.checkpoint_path.clear();
    options.stop_after_intervals = 0;
    ASSERT_TRUE(FleetScaleRunner::Resume(catalog, options, path).ok());

    std::vector<size_t> fields = {kNumTenantsAt, kNumBlocksAt, kNumRungsAt,
                                  kNumIntervalsAt};
    if (host_plane) fields.push_back(kNumHostsAt);
    for (const size_t field : fields) {
      for (const int bit : {26, 30}) {
        std::string corrupt = bytes;
        corrupt[field + static_cast<size_t>(bit / 8)] ^=
            static_cast<char>(1 << (bit % 8));
        std::ofstream(path, std::ios::binary)
            .write(corrupt.data(), static_cast<long>(corrupt.size()));
        EXPECT_FALSE(FleetScaleRunner::Resume(catalog, options, path).ok())
            << "field at byte " << field << ", bit " << bit;
      }
    }
  }
  std::remove(path.c_str());
}

// The scale path's per-block metric shards must agree with per-tenant
// sharding (block_size = 1) bit for bit.
TEST(FleetScaleTest, PooledMetricShardsMatchPerTenantSharding) {
  Catalog catalog = Catalog::MakeLockStep();

  auto run = [&](int block_size, obs::Observability* obs) {
    FleetScaleOptions options = SmallScale();
    options.num_tenants = 120;
    options.block_size = block_size;
    options.obs = obs;
    auto outcome = FleetScaleRunner(catalog, options).Run();
    ASSERT_TRUE(outcome.ok());
  };

  obs::Observability per_tenant;
  run(1, &per_tenant);
  obs::Observability pooled;
  run(48, &pooled);

  const obs::PipelineMetrics& pm = per_tenant.pipeline();
  const obs::MetricShard& a = per_tenant.primary();
  const obs::MetricShard& b = pooled.primary();
  EXPECT_EQ(a.counter(pm.fleet_tenants_total), 120.0);
  EXPECT_EQ(a.counter(pm.fleet_tenants_total),
            b.counter(pm.fleet_tenants_total));  // dbscale-lint: allow(float-equality)
  EXPECT_EQ(a.counter(pm.fleet_tenant_intervals_total),
            b.counter(pm.fleet_tenant_intervals_total));  // dbscale-lint: allow(float-equality)
  EXPECT_EQ(a.counter(pm.fleet_container_changes_total),
            b.counter(pm.fleet_container_changes_total));  // dbscale-lint: allow(float-equality)
  EXPECT_EQ(a.hist_sum(pm.fleet_inter_event_minutes),
            b.hist_sum(pm.fleet_inter_event_minutes));  // dbscale-lint: allow(float-equality)
  EXPECT_EQ(a.hist_count(pm.fleet_change_step_rungs),
            b.hist_count(pm.fleet_change_step_rungs));  // dbscale-lint: allow(float-equality)
}

TEST(FleetScaleTest, ValidatesOptions) {
  Catalog catalog = Catalog::MakeLockStep();
  FleetScaleOptions options = SmallScale();
  options.epoch_intervals = 30;  // not hour-aligned
  EXPECT_FALSE(FleetScaleRunner(catalog, options).Run().ok());
  options = SmallScale();
  options.block_size = 0;
  EXPECT_FALSE(FleetScaleRunner(catalog, options).Run().ok());
  options = SmallScale();
  options.num_tenants = 0;
  EXPECT_FALSE(FleetScaleRunner(catalog, options).Run().ok());
}

// Pre-refactor compatibility anchors: the exact path's telemetry digest at
// seed scale. These values must never drift (they pin both the
// tenant-model draw order and the merge order).
TEST(FleetScaleTest, ExactPathSeedScaleDigestUnchangedByRefactor) {
  Catalog catalog = Catalog::MakeLockStep();
  {
    FleetOptions options;
    options.num_tenants = 2000;
    options.num_intervals = 288;
    options.seed = 7;
    options.num_threads = 2;
    auto telemetry = FleetSimulator(catalog, options).Run();
    ASSERT_TRUE(telemetry.ok());
    EXPECT_EQ(TelemetryDigest(*telemetry), 0x6d118017570fa309ULL);
    EXPECT_EQ(telemetry->hourly.size(), 48000u);
    EXPECT_EQ(telemetry->inter_event_minutes.size(), 40704u);
  }
  {
    FleetOptions options;
    options.num_tenants = 150;
    options.num_intervals = 2 * 288;
    options.seed = 11;
    options.num_threads = 2;
    auto telemetry = FleetSimulator(catalog, options).Run();
    ASSERT_TRUE(telemetry.ok());
    EXPECT_EQ(TelemetryDigest(*telemetry), 0x41cfd695ffe6a1dfULL);
  }
}

// Exact-path pins over every FleetTelemetry field (TelemetryDigest).
// num_threads stays 0 (the process default), so running the suite under
// different DBSCALE_NUM_THREADS values checks these pins at each count.
TEST(FleetScaleTest, ExactPathTelemetryDigestPinned) {
  Catalog catalog = Catalog::MakeLockStep();
  FleetOptions options;
  options.num_tenants = 300;
  options.num_intervals = 2 * 288 + 7;  // the trailing partial hour is dropped
  options.seed = 11;
  options.block_size = 64;
  auto null_run = FleetSimulator(catalog, options).Run();
  ASSERT_TRUE(null_run.ok());
  EXPECT_EQ(null_run->hourly.size(), 300u * 48u);
  EXPECT_EQ(null_run->resize_failures, 0u);
  EXPECT_EQ(TelemetryDigest(*null_run), 0x0fd328371e057df6ULL);

  options.num_intervals = 2 * 288;
  options.fault = SomeFaults();
  auto faulty = FleetSimulator(catalog, options).Run();
  ASSERT_TRUE(faulty.ok());
  EXPECT_GT(faulty->resize_failures, 0u);
  EXPECT_GT(faulty->resize_retries, 0u);
  EXPECT_EQ(TelemetryDigest(*faulty), 0x501e9f9926a3cf4fULL);
}

// The metrics digest of ObservedFleetTest's run (obs_test.cc).
TEST(FleetScaleTest, ExactPathMetricsDigestPinned) {
  Catalog catalog = Catalog::MakeLockStep();
  FleetOptions options;
  options.num_tenants = 60;
  options.num_intervals = 288;
  options.seed = 11;
  obs::Observability ob;
  options.obs = &ob;
  ASSERT_TRUE(FleetSimulator(catalog, options).Run().ok());
  EXPECT_EQ(obs::MetricsDigest(ob.registry(), ob.primary()),
            0x8d512fbd60bd523dULL);
}

}  // namespace
}  // namespace dbscale::fleet
