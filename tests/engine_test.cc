// Integration tests of the DatabaseEngine: request lifecycle, wait
// attribution, telemetry samples, container resizes, ballooning hooks.

#include "src/engine/engine.h"

#include <gtest/gtest.h>

#include "src/container/catalog.h"
#include "tests/lambda_events.h"

namespace dbscale::engine {
namespace {

using container::Catalog;
using container::ResourceKind;
using telemetry::TelemetrySample;
using telemetry::WaitClass;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : catalog_(Catalog::MakeLockStep()) {}

  EngineOptions BaseOptions() {
    EngineOptions options;
    options.working_set_mb = 64.0;
    options.database_mb = 1024.0;
    options.latch_probability = 0.0;
    options.system_wait_probability = 0.0;
    return options;
  }

  std::unique_ptr<DatabaseEngine> MakeEngine(const EngineOptions& options,
                                             int rung) {
    return std::make_unique<DatabaseEngine>(&events_, options,
                                            catalog_.rung(rung), Rng(99));
  }

  double WaitMs(const TelemetrySample& s, WaitClass wc) {
    return s.wait_ms[static_cast<size_t>(wc)];
  }

  Catalog catalog_;
  LambdaEvents events_;
};

TEST_F(EngineTest, CpuOnlyRequestCompletes) {
  auto engine = MakeEngine(BaseOptions(), 4);  // S5: 4 cores
  RequestSpec spec;
  spec.cpu_ms = 10.0;
  RequestResult result;
  bool done = false;
  engine->Submit(spec, [&](const RequestResult& r) {
    result = r;
    done = true;
  });
  events_.RunAll();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.error);
  EXPECT_NEAR(result.latency().ToMillis(), 10.0, 0.5);
  EXPECT_EQ(engine->requests_completed(), 1u);
}

TEST_F(EngineTest, SubCoreContainerStretchesAndCountsCpuWait) {
  auto engine = MakeEngine(BaseOptions(), 0);  // S1: 0.5 cores
  RequestSpec spec;
  spec.cpu_ms = 10.0;
  Duration latency;
  engine->Submit(spec, [&](const RequestResult& r) {
    latency = r.latency();
  });
  events_.RunAll();
  EXPECT_NEAR(latency.ToMillis(), 20.0, 0.5);
  TelemetrySample sample = engine->CollectSample();
  EXPECT_NEAR(WaitMs(sample, WaitClass::kCpu), 10.0, 1.0);
}

TEST_F(EngineTest, CpuOverloadAccumulatesSignalWaits) {
  auto engine = MakeEngine(BaseOptions(), 1);  // S2: 1 core
  RequestSpec spec;
  spec.cpu_ms = 20.0;
  for (int i = 0; i < 50; ++i) engine->Submit(spec);
  events_.RunAll();
  TelemetrySample sample = engine->CollectSample();
  // 1 second of work on 1 core arriving at once: heavy queueing.
  EXPECT_GT(WaitMs(sample, WaitClass::kCpu), 5000.0);
  EXPECT_EQ(sample.requests_completed, 50);
}

TEST_F(EngineTest, WarmPoolServesHotReadsWithoutDisk) {
  auto engine = MakeEngine(BaseOptions(), 4);
  engine->PrewarmBufferPool();
  RequestSpec spec;
  spec.cpu_ms = 1.0;
  spec.page_accesses = 50;
  spec.hot_access_fraction = 1.0;
  for (int i = 0; i < 20; ++i) engine->Submit(spec);
  events_.RunAll();
  TelemetrySample sample = engine->CollectSample();
  EXPECT_EQ(sample.physical_reads, 0);
  EXPECT_DOUBLE_EQ(WaitMs(sample, WaitClass::kDiskIo), 0.0);
}

TEST_F(EngineTest, ColdReadsHitDiskAndCountWaits) {
  auto engine = MakeEngine(BaseOptions(), 4);
  engine->PrewarmBufferPool();
  RequestSpec spec;
  spec.cpu_ms = 1.0;
  spec.page_accesses = 50;
  spec.hot_access_fraction = 0.0;  // all cold
  // Concurrent requests so the disk queue builds: waits are queueing-only.
  for (int i = 0; i < 20; ++i) engine->Submit(spec);
  events_.RunAll();
  TelemetrySample sample = engine->CollectSample();
  EXPECT_GT(sample.physical_reads, 600);
  EXPECT_GT(WaitMs(sample, WaitClass::kDiskIo), 0.0);
  EXPECT_DOUBLE_EQ(WaitMs(sample, WaitClass::kBufferPool), 0.0);
}

TEST_F(EngineTest, MemoryPressureMissesAttributedToBufferPool) {
  EngineOptions options = BaseOptions();
  options.working_set_mb = 8192.0;   // working set far above S1's pool
  options.database_mb = 16384.0;
  auto engine = MakeEngine(options, 0);
  engine->PrewarmBufferPool();
  ASSERT_TRUE(engine->buffer_pool().UnderMemoryPressure());
  RequestSpec spec;
  spec.cpu_ms = 1.0;
  spec.page_accesses = 50;
  spec.hot_access_fraction = 1.0;
  for (int i = 0; i < 20; ++i) engine->Submit(spec);
  events_.RunAll();
  TelemetrySample sample = engine->CollectSample();
  EXPECT_GT(WaitMs(sample, WaitClass::kBufferPool), 0.0);
  EXPECT_DOUBLE_EQ(WaitMs(sample, WaitClass::kDiskIo), 0.0);
}

TEST_F(EngineTest, LogWritesCountLogWaits) {
  auto engine = MakeEngine(BaseOptions(), 0);  // S1: 2 MB/s log
  RequestSpec spec;
  spec.cpu_ms = 0.1;
  spec.log_kb = 1024.0;  // 1 MB -> 500ms at 2 MB/s
  Duration latency;
  engine->Submit(spec, [&](const RequestResult& r) {
    latency = r.latency();
  });
  events_.RunAll();
  EXPECT_GT(latency.ToMillis(), 400.0);
  TelemetrySample sample = engine->CollectSample();
  EXPECT_GT(WaitMs(sample, WaitClass::kLogIo), 400.0);
}

TEST_F(EngineTest, LockContentionCountsLockWaits) {
  auto engine = MakeEngine(BaseOptions(), 4);
  RequestSpec spec;
  spec.cpu_ms = 10.0;
  spec.lock_row = 3;
  spec.lock_hold_extra_ms = 20.0;  // app-held lock
  for (int i = 0; i < 10; ++i) engine->Submit(spec);
  events_.RunAll();
  EXPECT_EQ(engine->requests_completed(), 10u);
  TelemetrySample sample = engine->CollectSample();
  // 10 transactions serialized on ~20ms holds: the later ones waited.
  EXPECT_GT(WaitMs(sample, WaitClass::kLock), 100.0);
}

TEST_F(EngineTest, LockHoldExtraTimeExtendsSerialization) {
  auto engine = MakeEngine(BaseOptions(), 10);  // plenty of resources
  RequestSpec spec;
  spec.cpu_ms = 1.0;
  spec.lock_row = 0;
  spec.lock_hold_extra_ms = 50.0;
  SimTime last_completion;
  for (int i = 0; i < 4; ++i) {
    engine->Submit(spec, [&](const RequestResult& r) {
      last_completion = r.completion;
    });
  }
  events_.RunAll();
  // 4 transactions serialized on one row, each holding >= 50ms.
  EXPECT_GT(last_completion.ToSeconds(), 0.2);
}

TEST_F(EngineTest, LockTimeoutProducesError) {
  EngineOptions options = BaseOptions();
  options.lock_timeout = Duration::Millis(100);
  auto engine = MakeEngine(options, 4);
  RequestSpec blocker;
  blocker.cpu_ms = 1.0;
  blocker.lock_row = 0;
  blocker.lock_hold_extra_ms = 10000.0;  // holds ~10s
  engine->Submit(blocker);
  RequestSpec victim;
  victim.cpu_ms = 1.0;
  victim.lock_row = 0;
  bool error = false;
  engine->Submit(victim, [&](const RequestResult& r) { error = r.error; });
  events_.RunUntil(SimTime::Zero() + Duration::Seconds(1));
  EXPECT_TRUE(error);
  EXPECT_EQ(engine->requests_errored(), 1u);
}

TEST_F(EngineTest, MemoryGrantWaitsCounted) {
  auto engine = MakeEngine(BaseOptions(), 0);  // S1: tiny workspace
  RequestSpec spec;
  spec.cpu_ms = 50.0;
  spec.grant_mb = 1000.0;  // clamps to full workspace
  for (int i = 0; i < 5; ++i) engine->Submit(spec);
  events_.RunAll();
  EXPECT_EQ(engine->requests_completed(), 5u);
  TelemetrySample sample = engine->CollectSample();
  EXPECT_GT(WaitMs(sample, WaitClass::kMemory), 100.0);
}

TEST_F(EngineTest, UtilizationReflectsLoad) {
  auto engine = MakeEngine(BaseOptions(), 1);  // 1 core
  RequestSpec spec;
  spec.cpu_ms = 100.0;
  for (int i = 0; i < 5; ++i) engine->Submit(spec);  // 500ms of work
  events_.RunUntil(SimTime::Zero() + Duration::Seconds(1));
  TelemetrySample sample = engine->CollectSample();
  EXPECT_NEAR(sample.utilization_pct[static_cast<size_t>(ResourceKind::kCpu)],
              50.0, 5.0);
}

TEST_F(EngineTest, ResizeAppliesNewCapacity) {
  auto engine = MakeEngine(BaseOptions(), 1);
  ASSERT_TRUE(engine->BeginResize(catalog_.rung(8)).ok());
  EXPECT_TRUE(engine->resize_pending());
  ASSERT_TRUE(engine->CompleteResize().ok());
  EXPECT_FALSE(engine->resize_pending());
  EXPECT_EQ(engine->current_container().base_rung, 8);
  // Throughput reflects 16 cores now: 16 jobs of 100ms finish in ~100ms.
  RequestSpec spec;
  spec.cpu_ms = 100.0;
  int done = 0;
  for (int i = 0; i < 16; ++i) {
    engine->Submit(spec, [&](const RequestResult&) { ++done; });
  }
  events_.RunUntil(SimTime::Zero() + Duration::Millis(150));
  EXPECT_EQ(done, 16);
}

TEST_F(EngineTest, BalloonLimitShrinksEffectiveMemory) {
  auto engine = MakeEngine(BaseOptions(), 4);  // S5: 8192 MB
  const double full = engine->effective_memory_mb();
  EXPECT_DOUBLE_EQ(full, 8192.0);
  engine->SetMemoryLimitMb(4096.0);
  EXPECT_DOUBLE_EQ(engine->effective_memory_mb(), 4096.0);
  EXPECT_LE(engine->buffer_pool().capacity_pages(),
            MbToPages(4096.0 * 0.8) + 1);
  engine->ClearMemoryLimit();
  EXPECT_DOUBLE_EQ(engine->effective_memory_mb(), 8192.0);
}

TEST_F(EngineTest, LimitAboveContainerIsNoOp) {
  auto engine = MakeEngine(BaseOptions(), 4);
  engine->SetMemoryLimitMb(99999.0);
  EXPECT_DOUBLE_EQ(engine->effective_memory_mb(), 8192.0);
}

TEST_F(EngineTest, ResizeClearsBalloonLimit) {
  auto engine = MakeEngine(BaseOptions(), 4);
  engine->SetMemoryLimitMb(4096.0);
  ASSERT_TRUE(engine->BeginResize(catalog_.rung(5)).ok());
  ASSERT_TRUE(engine->CompleteResize().ok());
  EXPECT_DOUBLE_EQ(engine->effective_memory_mb(),
                   catalog_.rung(5).resources.memory_mb);
}

TEST_F(EngineTest, SampleResetsBetweenPeriods) {
  auto engine = MakeEngine(BaseOptions(), 4);
  RequestSpec spec;
  spec.cpu_ms = 5.0;
  engine->Submit(spec);
  events_.RunAll();
  TelemetrySample first = engine->CollectSample();
  EXPECT_EQ(first.requests_completed, 1);
  TelemetrySample second = engine->CollectSample();
  EXPECT_EQ(second.requests_completed, 0);
  for (double wait : second.wait_ms) EXPECT_DOUBLE_EQ(wait, 0.0);
  EXPECT_EQ(second.period_start, first.period_end);
}

TEST_F(EngineTest, LatencyPercentilesInSample) {
  auto engine = MakeEngine(BaseOptions(), 10);
  // Spaced arrivals so requests never queue: latency == own CPU time.
  for (int i = 1; i <= 100; ++i) {
    RequestSpec spec;
    spec.cpu_ms = static_cast<double>(i);
    events_.ScheduleAt(SimTime::Zero() + Duration::Millis(15 * i),
                       [&, spec] { engine->Submit(spec); });
  }
  events_.RunAll();
  TelemetrySample sample = engine->CollectSample();
  EXPECT_NEAR(sample.latency_avg_ms, 50.5, 3.0);
  EXPECT_NEAR(sample.latency_p95_ms, 95.0, 6.0);
  EXPECT_NEAR(sample.latency_max_ms, 100.0, 1.0);
}

TEST_F(EngineTest, CompletionListenerSeesEveryRequest) {
  auto engine = MakeEngine(BaseOptions(), 4);
  int seen = 0;
  engine->SetCompletionListener([&](const RequestResult&) { ++seen; });
  RequestSpec spec;
  spec.cpu_ms = 1.0;
  for (int i = 0; i < 25; ++i) engine->Submit(spec);
  events_.RunAll();
  EXPECT_EQ(seen, 25);
}

TEST_F(EngineTest, LatchAndSystemInterference) {
  EngineOptions options = BaseOptions();
  options.latch_probability = 1.0;
  options.latch_mean_ms = 2.0;
  options.system_wait_probability = 1.0;
  options.system_wait_mean_ms = 3.0;
  auto engine = MakeEngine(options, 4);
  RequestSpec spec;
  spec.cpu_ms = 1.0;
  spec.page_accesses = 1;
  spec.hot_access_fraction = 1.0;
  for (int i = 0; i < 50; ++i) engine->Submit(spec);
  events_.RunAll();
  TelemetrySample sample = engine->CollectSample();
  EXPECT_GT(WaitMs(sample, WaitClass::kLatch), 0.0);
  EXPECT_GT(WaitMs(sample, WaitClass::kSystem), 0.0);
}

TEST_F(EngineTest, MemoryActiveTracksWorkingSetNotPoolFill) {
  EngineOptions options = BaseOptions();
  options.working_set_mb = 64.0;
  options.database_mb = 8192.0;
  auto engine = MakeEngine(options, 6);  // big pool
  engine->PrewarmBufferPool();
  // Touch lots of cold pages: used memory grows, active set does not.
  RequestSpec spec;
  spec.cpu_ms = 0.1;
  spec.page_accesses = 200;
  spec.hot_access_fraction = 0.0;
  for (int i = 0; i < 100; ++i) engine->Submit(spec);
  events_.RunAll();
  TelemetrySample sample = engine->CollectSample();
  EXPECT_GT(sample.memory_used_mb, sample.memory_active_mb);
  EXPECT_NEAR(sample.memory_active_mb, 64.0 / 0.8, 16.0);
}

}  // namespace
}  // namespace dbscale::engine
