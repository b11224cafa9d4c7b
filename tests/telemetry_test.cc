#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/telemetry/manager.h"
#include "src/telemetry/sample.h"
#include "src/telemetry/store.h"
#include "src/telemetry/wait_class.h"

namespace dbscale::telemetry {
namespace {

using container::ResourceKind;

TelemetrySample MakeSample(double start_sec, double end_sec) {
  TelemetrySample s;
  s.period_start = SimTime::Zero() + Duration::Seconds(start_sec);
  s.period_end = SimTime::Zero() + Duration::Seconds(end_sec);
  s.requests_completed = 10;
  return s;
}

TEST(WaitClassTest, NamesAreUnique) {
  std::set<std::string> names;
  for (WaitClass wc : kAllWaitClasses) {
    names.insert(WaitClassToString(wc));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumWaitClasses));
}

TEST(WaitClassTest, ResourceMapping) {
  EXPECT_EQ(WaitClassResource(WaitClass::kCpu), ResourceKind::kCpu);
  EXPECT_EQ(WaitClassResource(WaitClass::kDiskIo), ResourceKind::kDiskIo);
  EXPECT_EQ(WaitClassResource(WaitClass::kLogIo), ResourceKind::kLogIo);
  EXPECT_EQ(WaitClassResource(WaitClass::kMemory), ResourceKind::kMemory);
  // Buffer pool waits are relieved by memory, not disk.
  EXPECT_EQ(WaitClassResource(WaitClass::kBufferPool),
            ResourceKind::kMemory);
  // Lock, latch and system waits cannot be fixed by scaling.
  EXPECT_FALSE(WaitClassResource(WaitClass::kLock).has_value());
  EXPECT_FALSE(WaitClassResource(WaitClass::kLatch).has_value());
  EXPECT_FALSE(WaitClassResource(WaitClass::kSystem).has_value());
}

TEST(WaitClassTest, InverseMappingConsistent) {
  for (ResourceKind kind : container::kAllResources) {
    auto mask = WaitClassesForResource(kind);
    for (WaitClass wc : kAllWaitClasses) {
      bool in_mask = mask[static_cast<size_t>(wc)];
      auto mapped = WaitClassResource(wc);
      EXPECT_EQ(in_mask, mapped.has_value() && *mapped == kind);
    }
  }
}

SampleRow MakeRow(double start_sec, double end_sec) {
  SampleRow row;
  row.period_start = SimTime::Zero() + Duration::Seconds(start_sec);
  row.period_end = SimTime::Zero() + Duration::Seconds(end_sec);
  return row;
}

TEST(SampleTest, WaitSharesSumTo100) {
  SampleRow row = MakeRow(0, 5);
  row.wait_ms[static_cast<size_t>(WaitClass::kCpu)] = 30;
  row.wait_ms[static_cast<size_t>(WaitClass::kLock)] = 70;
  EXPECT_DOUBLE_EQ(row.total_wait_ms(), 100.0);
}

TEST(SampleTest, Throughput) {
  SampleRow row = MakeRow(0, 5);
  row.requests_completed = 50;
  EXPECT_DOUBLE_EQ(row.throughput_rps(), 10.0);
}

TEST(StoreTest, AppendAndRecent) {
  TelemetryStore store(100);
  for (int i = 0; i < 10; ++i) {
    store.Append(MakeSample(i * 5, (i + 1) * 5));
  }
  EXPECT_EQ(store.size(), 10u);
  std::vector<const SampleRow*> recent;
  store.RecentInto(3, recent);
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_DOUBLE_EQ(recent[0]->period_start.ToSeconds(), 35.0);
  EXPECT_DOUBLE_EQ(recent[2]->period_end.ToSeconds(), 50.0);
}

TEST(StoreTest, RecentMoreThanAvailable) {
  TelemetryStore store;
  store.Append(MakeSample(0, 5));
  std::vector<const SampleRow*> recent;
  store.RecentInto(10, recent);
  EXPECT_EQ(recent.size(), 1u);
}

TEST(StoreTest, BoundedRetention) {
  TelemetryStore store(4);
  for (int i = 0; i < 10; ++i) {
    store.Append(MakeSample(i * 5, (i + 1) * 5));
  }
  EXPECT_EQ(store.size(), 4u);
  EXPECT_DOUBLE_EQ(store.at(0).period_start.ToSeconds(), 30.0);
}

class ManagerTest : public ::testing::Test {
 protected:
  TelemetrySample Sample(int i) {
    TelemetrySample s = MakeSample(i * 5.0, (i + 1) * 5.0);
    s.requests_completed = 20;
    s.latency_avg_ms = 50;
    s.latency_p95_ms = 150;
    s.allocation = container::ResourceVector{2, 2560, 200, 8};
    return s;
  }
};

TEST_F(ManagerTest, InvalidWithTooFewSamples) {
  TelemetryStore store;
  TelemetryManager manager;
  auto snap = manager.Compute(store, SimTime::Zero());
  EXPECT_FALSE(snap.valid);
  store.Append(Sample(0));
  snap = manager.Compute(store, SimTime::Zero() + Duration::Seconds(5));
  EXPECT_FALSE(snap.valid);
}

TEST_F(ManagerTest, RobustAggregates) {
  TelemetryStore store;
  TelemetryManager manager;
  for (int i = 0; i < 12; ++i) {
    TelemetrySample s = Sample(i);
    s.utilization_pct[0] = 40.0;  // cpu
    s.wait_ms[static_cast<size_t>(WaitClass::kCpu)] = 200.0;
    s.wait_ms[static_cast<size_t>(WaitClass::kLock)] = 600.0;
    store.Append(std::move(s));
  }
  auto snap =
      manager.Compute(store, SimTime::Zero() + Duration::Seconds(60));
  ASSERT_TRUE(snap.valid);
  const auto& cpu = snap.resource(ResourceKind::kCpu);
  EXPECT_DOUBLE_EQ(cpu.utilization_pct, 40.0);
  EXPECT_DOUBLE_EQ(cpu.wait_ms, 200.0);
  EXPECT_DOUBLE_EQ(cpu.wait_ms_per_request, 10.0);
  EXPECT_NEAR(cpu.wait_pct, 25.0, 1e-9);  // 200 of 800 total
  EXPECT_NEAR(
      snap.wait_pct_by_class[static_cast<size_t>(WaitClass::kLock)],
      75.0, 1e-9);
  EXPECT_DOUBLE_EQ(snap.latency_ms, 150.0);  // p95 aggregate default
}

TEST_F(ManagerTest, OutlierSampleDoesNotMoveSignals) {
  TelemetryStore store;
  TelemetryManager manager;
  for (int i = 0; i < 12; ++i) {
    TelemetrySample s = Sample(i);
    s.utilization_pct[0] = 30.0;
    s.wait_ms[static_cast<size_t>(WaitClass::kCpu)] =
        (i == 6) ? 1e9 : 100.0;  // checkpoint storm
    store.Append(std::move(s));
  }
  auto snap =
      manager.Compute(store, SimTime::Zero() + Duration::Seconds(60));
  EXPECT_DOUBLE_EQ(snap.resource(ResourceKind::kCpu).wait_ms, 100.0);
}

TEST_F(ManagerTest, LatencyAggregateSelection) {
  TelemetryManagerOptions options;
  options.latency_aggregate = LatencyAggregate::kAverage;
  TelemetryManager manager(options);
  TelemetryStore store;
  for (int i = 0; i < 6; ++i) store.Append(Sample(i));
  auto snap =
      manager.Compute(store, SimTime::Zero() + Duration::Seconds(30));
  EXPECT_DOUBLE_EQ(snap.latency_ms, 50.0);
}

TEST_F(ManagerTest, IdleSamplesIgnoredForLatency) {
  TelemetryManager manager;
  TelemetryStore store;
  for (int i = 0; i < 6; ++i) {
    TelemetrySample s = Sample(i);
    if (i % 2 == 0) {
      s.requests_completed = 0;
      s.latency_p95_ms = 0;
    }
    store.Append(std::move(s));
  }
  auto snap =
      manager.Compute(store, SimTime::Zero() + Duration::Seconds(30));
  EXPECT_DOUBLE_EQ(snap.latency_ms, 150.0);
}

TEST_F(ManagerTest, DetectsUtilizationTrend) {
  TelemetryManager manager;
  TelemetryStore store;
  for (int i = 0; i < 24; ++i) {
    TelemetrySample s = Sample(i);
    s.utilization_pct[0] = 10.0 + 3.0 * i;
    store.Append(std::move(s));
  }
  auto snap =
      manager.Compute(store, SimTime::Zero() + Duration::Seconds(120));
  const auto& cpu = snap.resource(ResourceKind::kCpu);
  EXPECT_TRUE(cpu.utilization_trend.significant);
  EXPECT_EQ(cpu.utilization_trend.direction,
            stats::TrendDirection::kIncreasing);
}

TEST_F(ManagerTest, DetectsWaitLatencyCorrelation) {
  TelemetryManager manager;
  TelemetryStore store;
  for (int i = 0; i < 24; ++i) {
    TelemetrySample s = Sample(i);
    // Latency rises exactly with cpu waits: strong rank correlation.
    s.wait_ms[static_cast<size_t>(WaitClass::kCpu)] = 10.0 * i;
    s.latency_p95_ms = 100.0 + 5.0 * i;
    store.Append(std::move(s));
  }
  auto snap =
      manager.Compute(store, SimTime::Zero() + Duration::Seconds(120));
  EXPECT_GT(snap.resource(ResourceKind::kCpu).wait_latency_correlation,
            0.9);
}

void ExpectTrendEqual(const stats::TrendResult& a,
                      const stats::TrendResult& b) {
  EXPECT_EQ(a.slope, b.slope);
  EXPECT_EQ(a.intercept, b.intercept);
  EXPECT_EQ(a.significant, b.significant);
  EXPECT_EQ(a.direction, b.direction);
}

TEST_F(ManagerTest, ScratchPathMatchesScratchless) {
  TelemetryManager manager;
  TelemetryStore store;
  SignalScratch scratch;
  for (int i = 0; i < 48; ++i) {
    TelemetrySample s = Sample(i);
    s.utilization_pct[0] = 20.0 + 1.5 * i;
    s.wait_ms[static_cast<size_t>(WaitClass::kCpu)] = 8.0 * i;
    s.wait_ms[static_cast<size_t>(WaitClass::kDiskIo)] = 120.0;
    s.latency_p95_ms = 100.0 + 4.0 * i;
    store.Append(std::move(s));
    SimTime now = SimTime::Zero() + Duration::Seconds(5.0 * (i + 1));
    // Same scratch reused every interval: results must be bit-identical
    // to the scratch-free path at each step.
    SignalSnapshot plain = manager.Compute(store, now);
    SignalSnapshot reused = manager.Compute(store, now, &scratch);
    ASSERT_EQ(plain.valid, reused.valid);
    if (!plain.valid) continue;
    EXPECT_EQ(plain.latency_ms, reused.latency_ms);
    ExpectTrendEqual(plain.latency_trend, reused.latency_trend);
    EXPECT_EQ(plain.total_wait_ms, reused.total_wait_ms);
    EXPECT_EQ(plain.throughput_rps, reused.throughput_rps);
    EXPECT_EQ(plain.wait_pct_by_class, reused.wait_pct_by_class);
    for (ResourceKind kind : container::kAllResources) {
      const ResourceSignals& p = plain.resource(kind);
      const ResourceSignals& r = reused.resource(kind);
      EXPECT_EQ(p.utilization_pct, r.utilization_pct);
      EXPECT_EQ(p.wait_ms, r.wait_ms);
      EXPECT_EQ(p.wait_ms_per_request, r.wait_ms_per_request);
      EXPECT_EQ(p.wait_pct, r.wait_pct);
      ExpectTrendEqual(p.utilization_trend, r.utilization_trend);
      ExpectTrendEqual(p.wait_trend, r.wait_trend);
      EXPECT_EQ(p.wait_latency_correlation, r.wait_latency_correlation);
      EXPECT_EQ(p.utilization_latency_correlation,
                r.utilization_latency_correlation);
    }
  }
}

TEST_F(ManagerTest, ValidateRejectsBadOptions) {
  TelemetryManagerOptions bad;
  bad.trend_samples = 2;
  EXPECT_FALSE(TelemetryManager(bad).Validate().ok());
  bad = TelemetryManagerOptions();
  bad.aggregation_samples = 0;
  EXPECT_FALSE(TelemetryManager(bad).Validate().ok());
  bad = TelemetryManagerOptions();
  bad.trend_accept_fraction = 0.4;
  EXPECT_FALSE(TelemetryManager(bad).Validate().ok());
  EXPECT_TRUE(TelemetryManager().Validate().ok());
}

}  // namespace
}  // namespace dbscale::telemetry
