#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/fleet/calibrator.h"
#include "src/fleet/demand_analysis.h"
#include "src/fleet/fleet_sim.h"
#include "src/fleet/tenant_model.h"
#include "src/fleet/wait_analysis.h"
#include "src/stats/robust.h"
#include "tests/total_order.h"

namespace dbscale::fleet {
namespace {

using container::Catalog;
using container::ResourceKind;

FleetOptions SmallFleet() {
  FleetOptions options;
  options.num_tenants = 150;
  options.num_intervals = 2 * 288;  // two days
  options.seed = 11;
  return options;
}

TEST(TenantModelTest, DeterministicPerSeed) {
  Catalog catalog = Catalog::MakeLockStep();
  TenantModelOptions options;
  Rng rng_a(5);
  Rng rng_b(5);
  const TenantParams params_a = DrawTenantParams(catalog, options, rng_a);
  const TenantParams params_b = DrawTenantParams(catalog, options, rng_b);
  TenantDynamics dyn_a;
  TenantDynamics dyn_b;
  for (int t = 0; t < 50; ++t) {
    const TenantInterval ia =
        StepTenant(catalog, options, params_a, dyn_a, rng_a, t);
    const TenantInterval ib =
        StepTenant(catalog, options, params_b, dyn_b, rng_b, t);
    EXPECT_EQ(ia.assigned_rung, ib.assigned_rung);
    EXPECT_DOUBLE_EQ(ia.wait_ms[0], ib.wait_ms[0]);
  }
}

TEST(TenantModelTest, IntervalInvariants) {
  Catalog catalog = Catalog::MakeLockStep();
  TenantModelOptions options;
  Rng root(3);
  for (int tenant = 0; tenant < 20; ++tenant) {
    Rng rng = root.Fork();
    const TenantParams params = DrawTenantParams(catalog, options, rng);
    TenantDynamics dyn;
    for (int t = 0; t < 200; ++t) {
      TenantInterval interval =
          StepTenant(catalog, options, params, dyn, rng, t);
      EXPECT_GE(interval.assigned_rung, 0);
      EXPECT_LT(interval.assigned_rung, catalog.num_rungs());
      EXPECT_GE(interval.completed, 1);
      double share_sum = 0.0;
      for (ResourceKind kind : container::kAllResources) {
        const size_t ri = static_cast<size_t>(kind);
        EXPECT_GE(interval.utilization_pct[ri], 0.0);
        EXPECT_LE(interval.utilization_pct[ri], 100.0);
        EXPECT_GE(interval.wait_ms[ri], 0.0);
        share_sum += interval.wait_pct[ri];
      }
      EXPECT_NEAR(share_sum, 100.0, 1e-6);
    }
  }
}

TEST(FleetSimTest, ProducesExpectedVolumes) {
  Catalog catalog = Catalog::MakeLockStep();
  FleetOptions options = SmallFleet();
  FleetSimulator sim(catalog, options);
  auto fleet = sim.Run();
  ASSERT_TRUE(fleet.ok());
  EXPECT_EQ(fleet->num_tenants, 150);
  // One hourly record per tenant-hour.
  EXPECT_EQ(fleet->hourly.size(),
            static_cast<size_t>(150 * 2 * 24));
  EXPECT_EQ(fleet->tenant_changes.size(), 150u);
  EXPECT_GT(fleet->inter_event_minutes.size(), 100u);
}

void ExpectFleetTelemetryIdentical(const FleetTelemetry& a,
                                   const FleetTelemetry& b) {
  EXPECT_EQ(a.num_tenants, b.num_tenants);
  EXPECT_EQ(a.num_intervals, b.num_intervals);
  ASSERT_EQ(a.hourly.size(), b.hourly.size());
  for (size_t i = 0; i < a.hourly.size(); ++i) {
    const HourlyRecord& ra = a.hourly[i];
    const HourlyRecord& rb = b.hourly[i];
    ASSERT_EQ(ra.tenant_id, rb.tenant_id);
    ASSERT_EQ(ra.hour, rb.hour);
    for (ResourceKind kind : container::kAllResources) {
      const size_t ri = static_cast<size_t>(kind);
      // Bit-identical, not approximately equal: the parallel path must
      // reproduce the serial arithmetic exactly.
      ASSERT_EQ(ra.utilization_pct[ri], rb.utilization_pct[ri]);
      ASSERT_EQ(ra.wait_ms[ri], rb.wait_ms[ri]);
      ASSERT_EQ(ra.wait_pct[ri], rb.wait_pct[ri]);
      ASSERT_EQ(ra.wait_ms_per_request[ri], rb.wait_ms_per_request[ri]);
    }
  }
  ASSERT_EQ(a.inter_event_minutes, b.inter_event_minutes);
  ASSERT_EQ(a.step_size_counts, b.step_size_counts);
  ASSERT_EQ(a.tenant_changes.size(), b.tenant_changes.size());
  for (size_t i = 0; i < a.tenant_changes.size(); ++i) {
    ASSERT_EQ(a.tenant_changes[i].tenant_id, b.tenant_changes[i].tenant_id);
    ASSERT_EQ(a.tenant_changes[i].num_changes,
              b.tenant_changes[i].num_changes);
    ASSERT_EQ(a.tenant_changes[i].changes_per_day,
              b.tenant_changes[i].changes_per_day);
  }
}

TEST(FleetSimTest, ParallelRunBitIdenticalToSerial) {
  Catalog catalog = Catalog::MakeLockStep();
  for (uint64_t seed : {11u, 29u, 73u}) {
    FleetOptions options;
    options.num_tenants = 60;
    options.num_intervals = 288;  // one day
    options.seed = seed;
    // Four blocks (16, 16, 16, 12 tenants), so parallel runs merge blocks
    // that ran on different threads.
    options.block_size = 16;

    options.num_threads = 1;
    auto serial = FleetSimulator(catalog, options).Run();
    ASSERT_TRUE(serial.ok());

    for (int threads : {2, 4, 8}) {
      options.num_threads = threads;
      auto parallel = FleetSimulator(catalog, options).Run();
      ASSERT_TRUE(parallel.ok());
      ExpectFleetTelemetryIdentical(*serial, *parallel);
    }
  }
}

TEST(FleetSimTest, HourlyMediansMatchSortedReferenceBitForBit) {
  // Replays the first tenants' streams, forked and stepped as the runner
  // does on the host-off path, and recomputes each hourly record's 16
  // medians with a totalOrder sort plus PercentileSorted. Digests hash
  // these medians; this checks each one's bit pattern.
  constexpr int kReplayTenants = 64;
  constexpr size_t kSeries = 4 * container::kNumResources;
  Catalog catalog = Catalog::MakeLockStep();
  const FleetOptions options = SmallFleet();
  auto fleet = FleetSimulator(catalog, options).Run();
  ASSERT_TRUE(fleet.ok());
  const int hours = options.num_intervals / kIntervalsPerHour;

  Rng root(options.seed);
  std::array<std::vector<double>, kSeries> series;
  for (int tenant = 0; tenant < kReplayTenants; ++tenant) {
    Rng rng = root.Fork();
    const TenantParams params =
        DrawTenantParams(catalog, options.tenant, rng);
    TenantDynamics dyn;
    for (int hour = 0; hour < hours; ++hour) {
      for (std::vector<double>& s : series) s.clear();
      for (int slot = 0; slot < kIntervalsPerHour; ++slot) {
        const TenantInterval interval =
            StepTenant(catalog, options.tenant, params, dyn, rng,
                       hour * kIntervalsPerHour + slot);
        const double completed =
            static_cast<double>(std::max<int64_t>(1, interval.completed));
        for (size_t r = 0; r < container::kNumResources; ++r) {
          series[4 * r].push_back(interval.utilization_pct[r]);
          series[4 * r + 1].push_back(interval.wait_ms[r]);
          series[4 * r + 2].push_back(interval.wait_pct[r]);
          series[4 * r + 3].push_back(interval.wait_ms[r] / completed);
        }
      }
      const HourlyRecord& record =
          fleet->hourly[static_cast<size_t>(tenant * hours + hour)];
      ASSERT_EQ(record.tenant_id, tenant);
      ASSERT_EQ(record.hour, hour);
      for (size_t r = 0; r < container::kNumResources; ++r) {
        const double medians[] = {record.utilization_pct[r],
                                  record.wait_ms[r], record.wait_pct[r],
                                  record.wait_ms_per_request[r]};
        for (size_t k = 0; k < 4; ++k) {
          std::vector<double>& sorted = series[4 * r + k];
          testing::SortTotalOrder(sorted);
          ASSERT_EQ(std::bit_cast<uint64_t>(medians[k]),
                    std::bit_cast<uint64_t>(
                        stats::PercentileSorted(sorted, 50.0)))
              << "tenant " << tenant << " hour " << hour << " resource "
              << r << " series " << k;
        }
      }
    }
  }
}

TEST(FleetSimTest, RejectsBadOptions) {
  Catalog catalog = Catalog::MakeLockStep();
  FleetOptions options;
  options.num_tenants = 0;
  EXPECT_FALSE(FleetSimulator(catalog, options).Run().ok());
}

TEST(FleetSimTest, MostChangesAreSmallSteps) {
  // Section 4: ~90% of demand-driven container changes are one rung; one
  // and two rungs together are ~98%.
  Catalog catalog = Catalog::MakeLockStep();
  FleetSimulator sim(catalog, SmallFleet());
  auto fleet = sim.Run();
  ASSERT_TRUE(fleet.ok());
  EXPECT_GT(fleet->OneStepFraction(), 0.70);
  EXPECT_GT(fleet->AtMostTwoStepFraction(), 0.90);
}

TEST(DemandAnalysisTest, IeiCdfShapes) {
  Catalog catalog = Catalog::MakeLockStep();
  FleetSimulator sim(catalog, SmallFleet());
  auto fleet = sim.Run();
  ASSERT_TRUE(fleet.ok());
  auto iei = AnalyzeInterEventIntervals(*fleet);
  ASSERT_TRUE(iei.ok());
  ASSERT_EQ(iei->reference_points.size(), 5u);
  // Cumulative at 60 min is large (paper: 86%), grows toward 1440.
  EXPECT_GT(iei->reference_points[0].second, 50.0);
  for (size_t i = 1; i < iei->reference_points.size(); ++i) {
    EXPECT_GE(iei->reference_points[i].second,
              iei->reference_points[i - 1].second);
  }
  EXPECT_GT(iei->reference_points.back().second, 95.0);
}

TEST(DemandAnalysisTest, ChangeFrequencyBuckets) {
  Catalog catalog = Catalog::MakeLockStep();
  FleetSimulator sim(catalog, SmallFleet());
  auto fleet = sim.Run();
  ASSERT_TRUE(fleet.ok());
  auto freq = AnalyzeChangeFrequency(*fleet);
  ASSERT_TRUE(freq.ok());
  ASSERT_EQ(freq->bucket_pct.size(), 8u);
  double total = 0.0;
  for (double pct : freq->bucket_pct) total += pct;
  EXPECT_NEAR(total, 100.0, 1e-6);
  EXPECT_NEAR(freq->cumulative_pct.back(), 100.0, 1e-6);
  // Paper headline: the overwhelming majority change at least daily.
  EXPECT_GT(freq->fraction_at_least_1_per_day, 0.6);
  EXPECT_GE(freq->fraction_at_least_1_per_day,
            freq->fraction_at_least_6_per_day);
}

TEST(WaitAnalysisTest, ScatterShowsWeakPositiveCorrelation) {
  // Figure 4's shape: increasing trend but wide band (weak correlation).
  Catalog catalog = Catalog::MakeLockStep();
  FleetSimulator sim(catalog, SmallFleet());
  auto fleet = sim.Run();
  ASSERT_TRUE(fleet.ok());
  for (ResourceKind kind : {ResourceKind::kCpu, ResourceKind::kDiskIo}) {
    auto scatter = AnalyzeWaitUtilScatter(*fleet, kind);
    ASSERT_TRUE(scatter.ok());
    EXPECT_GT(scatter->spearman_rho, 0.15);
    EXPECT_LT(scatter->spearman_rho, 0.85);  // weak, not tight
    // Wide band: p90/p10 spread within buckets is orders of magnitude.
    bool wide = false;
    for (size_t b = 0; b < scatter->wait_p90.size(); ++b) {
      if (scatter->wait_p10[b] > 0.0 &&
          scatter->wait_p90[b] / scatter->wait_p10[b] > 20.0) {
        wide = true;
      }
    }
    EXPECT_TRUE(wide);
  }
}

TEST(WaitAnalysisTest, SplitCdfsSeparate) {
  // Figure 6's property: high-utilization hours have clearly larger waits
  // than low-utilization hours at matched percentiles.
  Catalog catalog = Catalog::MakeLockStep();
  FleetSimulator sim(catalog, SmallFleet());
  auto fleet = sim.Run();
  ASSERT_TRUE(fleet.ok());
  auto split = AnalyzeWaitSplit(*fleet, ResourceKind::kCpu);
  ASSERT_TRUE(split.ok());
  double low_p90 = split->wait_ms_low_util.ValueAtPercentile(90).value();
  double high_p75 =
      split->wait_ms_high_util.ValueAtPercentile(75).value();
  EXPECT_GT(high_p75, low_p90);
  // Wait *shares* separate too (Figure 6c/d).
  double share_low_p80 =
      split->wait_pct_low_util.ValueAtPercentile(80).value();
  double share_high_p50 =
      split->wait_pct_high_util.ValueAtPercentile(50).value();
  EXPECT_GT(share_high_p50, share_low_p80 * 0.9);
}

TEST(WaitAnalysisTest, SplitValidatesBounds) {
  Catalog catalog = Catalog::MakeLockStep();
  FleetSimulator sim(catalog, SmallFleet());
  auto fleet = sim.Run();
  ASSERT_TRUE(fleet.ok());
  EXPECT_FALSE(
      AnalyzeWaitSplit(*fleet, ResourceKind::kCpu, 80.0, 30.0).ok());
}

TEST(CalibratorTest, ProducesValidOrderedThresholds) {
  Catalog catalog = Catalog::MakeLockStep();
  FleetSimulator sim(catalog, SmallFleet());
  auto fleet = sim.Run();
  ASSERT_TRUE(fleet.ok());
  ThresholdCalibrator calibrator;
  auto thresholds = calibrator.Calibrate(*fleet);
  ASSERT_TRUE(thresholds.ok());
  EXPECT_TRUE(thresholds->Validate().ok());
  for (ResourceKind kind : container::kAllResources) {
    const auto& r = thresholds->For(kind);
    EXPECT_GT(r.wait_high_ms_per_req, r.wait_low_ms_per_req);
    EXPECT_GE(r.wait_pct_significant, 10.0);
    EXPECT_LE(r.wait_pct_significant, 60.0);
    // Utilization bounds inherited from the base (administrator rules).
    EXPECT_DOUBLE_EQ(r.util_low_pct, 30.0);
  }
}

TEST(CalibratorTest, DeterministicForSameFleet) {
  Catalog catalog = Catalog::MakeLockStep();
  FleetSimulator sim(catalog, SmallFleet());
  auto fleet = sim.Run();
  ASSERT_TRUE(fleet.ok());
  ThresholdCalibrator calibrator;
  auto a = calibrator.Calibrate(*fleet);
  auto b = calibrator.Calibrate(*fleet);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->For(ResourceKind::kCpu).wait_high_ms_per_req,
                   b->For(ResourceKind::kCpu).wait_high_ms_per_req);
}

}  // namespace
}  // namespace dbscale::fleet
