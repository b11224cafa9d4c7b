// Tests of the scaler-as-a-service ingest stack: the MPSC ring, the wire
// format, producer-edge fault injection, and the ScalerService equivalence
// contract (service-mode decisions bit-identical to the direct-feed
// sim-loop reference at any batch size / thread count / producer
// interleaving). Suite names carry the Ingest prefix so ci/check.sh runs
// the multi-producer stress under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/container/catalog.h"
#include "src/fault/fault_plan.h"
#include "src/ingest/ingest_ring.h"
#include "src/ingest/producer.h"
#include "src/ingest/scaler_service.h"
#include "src/ingest/wire_sample.h"
#include "src/scaler/autoscaler.h"
#include "src/scaler/batch_eval.h"
#include "src/scaler/diagonal.h"
#include "src/telemetry/manager.h"
#include "src/telemetry/sample.h"
#include "src/telemetry/store.h"

namespace dbscale::ingest {
namespace {

using container::ContainerSpec;
using container::ResourceKind;
using telemetry::TelemetrySample;
using telemetry::WaitClass;

constexpr int64_t kPeriodUs = 5'000'000;  // 5 simulated seconds

constexpr size_t Ri(ResourceKind kind) { return static_cast<size_t>(kind); }
constexpr size_t Wi(WaitClass wc) { return static_cast<size_t>(wc); }

/// Deterministic, fully populated sample #i of `tenant`. Periods tile the
/// timeline so interval boundaries land exactly like the sim loop's.
TelemetrySample MakeSample(uint64_t tenant, int i) {
  TelemetrySample s;
  s.period_start = SimTime::FromMicros(i * kPeriodUs);
  s.period_end = SimTime::FromMicros((i + 1) * kPeriodUs);
  const double phase =
      static_cast<double>((static_cast<uint64_t>(i) * 37 + tenant * 13) % 100);
  s.utilization_pct[Ri(ResourceKind::kCpu)] = phase;
  s.utilization_pct[Ri(ResourceKind::kMemory)] = 100.0 - phase;
  s.utilization_pct[Ri(ResourceKind::kDiskIo)] = phase * 0.5;
  s.utilization_pct[Ri(ResourceKind::kLogIo)] = phase * 0.25;
  s.wait_ms[Wi(WaitClass::kCpu)] = phase * 2.0;
  s.wait_ms[Wi(WaitClass::kDiskIo)] = phase * 1.5;
  s.wait_ms[Wi(WaitClass::kLock)] = phase * 0.125;
  s.wait_ms[Wi(WaitClass::kSystem)] = 1.0;
  s.requests_started = 100 + i;
  s.requests_completed = 100 + i;
  s.latency_avg_ms = 5.0 + phase * 0.1;
  s.latency_p95_ms = 20.0 + phase * 0.4;
  s.latency_max_ms = 50.0 + phase;
  s.memory_used_mb = 1024.0 + phase;
  s.memory_active_mb = 512.0 + phase;
  s.physical_reads = 10 * i;
  s.allocation = {4.0, 8192.0, 1000.0, 50.0};
  s.container_id = 3;
  return s;
}

/// A deterministic stateful policy: the decision folds the signal window,
/// the interval index, the current container, and the applied-resize
/// history, so any routing or ordering bug perturbs the digest.
class StepPolicy : public scaler::ScalingPolicy {
 public:
  explicit StepPolicy(uint64_t salt) : salt_(salt) {}

  scaler::ScalingDecision Decide(const scaler::PolicyInput& input) override {
    if (input.actuation.phase == scaler::ActuationPhase::kApplied) {
      ++applied_;
    }
    const double load =
        input.signals.valid
            ? input.signals.resource(ResourceKind::kCpu).utilization_pct
            : 0.0;
    const uint64_t mix = salt_ + static_cast<uint64_t>(input.interval_index) *
                                     2654435761ull +
                         static_cast<uint64_t>(load * 16.0) + applied_ * 7;
    scaler::ScalingDecision d;
    d.target = input.current;
    int id = input.current.id + static_cast<int>(mix % 3) - 1;
    if (id < 0) id = 0;
    if (id > 7) id = 7;
    d.target.id = id;
    d.target.price_per_interval = 1.0 + id;
    d.explanation = scaler::Explanation(scaler::ExplanationCode::kNote);
    if (mix % 5 == 0) {
      d.memory_limit_mb = 256.0 + static_cast<double>(mix % 7) * 64.0;
    }
    return d;
  }

  std::string name() const override { return "Step"; }

 private:
  uint64_t salt_;
  uint64_t applied_ = 0;
};

ContainerSpec InitialContainer() {
  ContainerSpec spec;
  spec.id = 3;
  spec.price_per_interval = 4.0;
  return spec;
}

ScalerServiceOptions SmallServiceOptions(size_t samples_per_interval = 4) {
  ScalerServiceOptions o;
  // Tiny windows so signals go valid quickly.
  o.telemetry.aggregation_samples = 3;
  o.telemetry.trend_samples = 4;
  o.telemetry.correlation_samples = 4;
  o.samples_per_interval = samples_per_interval;
  o.store_retention = 64;
  return o;
}

// ---------------------------------------------------------------------------
// IngestRing
// ---------------------------------------------------------------------------

WireSample NumberedWire(uint64_t n) {
  WireSample w;
  w.tenant_id = n;
  w.producer_seq = n;
  w.period_start_us = static_cast<int64_t>(n) * kPeriodUs;
  w.period_end_us = static_cast<int64_t>(n + 1) * kPeriodUs;
  return w;
}

TEST(IngestRingTest, PushPopRoundTrip) {
  IngestRing ring(IngestRingOptions{.capacity = 8});
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_TRUE(ring.TryPush(NumberedWire(42)));
  WireSample out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out.tenant_id, 42u);
  EXPECT_FALSE(ring.TryPop(&out));  // empty again
}

TEST(IngestRingTest, WrapAroundAtCapacityBoundary) {
  IngestRing ring(IngestRingOptions{.capacity = 8});
  // Keep the ring near-full while cycling far past the capacity boundary;
  // FIFO order must survive every wrap.
  uint64_t pushed = 0, popped = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    while (ring.TryPush(NumberedWire(pushed))) ++pushed;
    EXPECT_EQ(ring.ApproxDepth(), ring.capacity());
    // Drain half, refill, drain all: exercises partially-wrapped states.
    for (int k = 0; k < 4; ++k) {
      WireSample out;
      ASSERT_TRUE(ring.TryPop(&out));
      EXPECT_EQ(out.tenant_id, popped);
      ++popped;
    }
  }
  WireSample out;
  while (ring.TryPop(&out)) {
    EXPECT_EQ(out.tenant_id, popped);
    ++popped;
  }
  EXPECT_EQ(popped, pushed);
  EXPECT_GT(pushed, ring.capacity() * 50);  // genuinely wrapped many times
}

TEST(IngestRingTest, BackpressureRejectsWithCounter) {
  IngestRing ring(IngestRingOptions{.capacity = 4});
  for (uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(NumberedWire(i)));
  EXPECT_FALSE(ring.TryPush(NumberedWire(99)));
  EXPECT_FALSE(ring.TryPush(NumberedWire(99)));
  EXPECT_EQ(ring.rejected(), 2u);
  WireSample out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_TRUE(ring.TryPush(NumberedWire(4)));  // slot freed -> accepted
  EXPECT_EQ(ring.rejected(), 2u);
  // FIFO resumes with no gap from the rejected pushes.
  for (uint64_t expect = 1; ring.TryPop(&out); ++expect) {
    EXPECT_EQ(out.tenant_id, expect);
  }
}

TEST(IngestRingTest, PopBatchMatchesOneAtATime) {
  IngestRing batch_ring(IngestRingOptions{.capacity = 64});
  IngestRing single_ring(IngestRingOptions{.capacity = 64});
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(batch_ring.TryPush(NumberedWire(i)));
    ASSERT_TRUE(single_ring.TryPush(NumberedWire(i)));
  }
  std::vector<uint64_t> via_batch, via_single;
  WireSample buf[7];
  for (size_t n = batch_ring.PopBatch(buf, 7); n > 0;
       n = batch_ring.PopBatch(buf, 7)) {
    for (size_t i = 0; i < n; ++i) via_batch.push_back(buf[i].tenant_id);
  }
  WireSample out;
  while (single_ring.TryPop(&out)) via_single.push_back(out.tenant_id);
  EXPECT_EQ(via_batch, via_single);
  EXPECT_EQ(via_batch.size(), 50u);
}

TEST(IngestRingTest, OptionsValidateRejectsBadCapacity) {
  EXPECT_FALSE(IngestRingOptions{.capacity = 0}.Validate().ok());
  EXPECT_FALSE(IngestRingOptions{.capacity = 1}.Validate().ok());
  EXPECT_FALSE(IngestRingOptions{.capacity = 12}.Validate().ok());
  EXPECT_TRUE(IngestRingOptions{.capacity = 2}.Validate().ok());
  EXPECT_TRUE(IngestRingOptions{.capacity = 1 << 16}.Validate().ok());
}

TEST(IngestRingTest, ApproxDepthTracksOccupancy) {
  IngestRing ring(IngestRingOptions{.capacity = 16});
  EXPECT_EQ(ring.ApproxDepth(), 0u);
  for (uint64_t i = 0; i < 5; ++i) ring.TryPush(NumberedWire(i));
  EXPECT_EQ(ring.ApproxDepth(), 5u);
  WireSample out;
  ring.TryPop(&out);
  ring.TryPop(&out);
  EXPECT_EQ(ring.ApproxDepth(), 3u);
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

TEST(IngestWireTest, RoundTripIsBitwiseIdentity) {
  const TelemetrySample s = MakeSample(7, 11);
  const WireSample w = MakeWireSample(7, s);
  EXPECT_EQ(w.tenant_id, 7u);
  const TelemetrySample back = ToTelemetrySample(w);
  EXPECT_EQ(back.period_start.ToMicros(), s.period_start.ToMicros());
  EXPECT_EQ(back.period_end.ToMicros(), s.period_end.ToMicros());
  for (size_t i = 0; i < s.utilization_pct.size(); ++i) {
    EXPECT_EQ(back.utilization_pct[i], s.utilization_pct[i]);
  }
  for (size_t i = 0; i < s.wait_ms.size(); ++i) {
    EXPECT_EQ(back.wait_ms[i], s.wait_ms[i]);
  }
  EXPECT_EQ(back.requests_started, s.requests_started);
  EXPECT_EQ(back.requests_completed, s.requests_completed);
  EXPECT_EQ(back.latency_avg_ms, s.latency_avg_ms);
  EXPECT_EQ(back.latency_p95_ms, s.latency_p95_ms);
  EXPECT_EQ(back.latency_max_ms, s.latency_max_ms);
  EXPECT_EQ(back.memory_used_mb, s.memory_used_mb);
  EXPECT_EQ(back.memory_active_mb, s.memory_active_mb);
  EXPECT_EQ(back.physical_reads, s.physical_reads);
  EXPECT_EQ(back.allocation.cpu_cores, s.allocation.cpu_cores);
  EXPECT_EQ(back.allocation.memory_mb, s.allocation.memory_mb);
  EXPECT_EQ(back.allocation.disk_iops, s.allocation.disk_iops);
  EXPECT_EQ(back.allocation.log_mbps, s.allocation.log_mbps);
  EXPECT_EQ(back.container_id, s.container_id);
}

TEST(IngestWireTest, AppendToStoreMatchesAppendOfUnpackedSample) {
  telemetry::TelemetryStore direct(4), unpacked(4);
  for (int i = 0; i < 6; ++i) {  // past retention: recycled rows too
    const WireSample w = MakeWireSample(7, MakeSample(7, i));
    AppendToStore(w, direct);
    unpacked.Append(ToTelemetrySample(w));
    ASSERT_EQ(std::memcmp(&direct.back(), &unpacked.back(),
                          sizeof(telemetry::SampleRow)),
              0)
        << "sample " << i;
    EXPECT_EQ(std::memcmp(&direct.allocation(), &unpacked.allocation(),
                          sizeof(container::ResourceVector)),
              0);
  }
}

TEST(IngestWireTest, GuardAgreesWithSampleLooksValid) {
  const WireSample clean = MakeWireSample(7, MakeSample(7, 11));
  EXPECT_TRUE(WireSampleLooksValid(clean));
  EXPECT_TRUE(fault::SampleLooksValid(ToTelemetrySample(clean)));
  // Every floating-point payload field: the 17 figures both guards check
  // and the four allocation limits neither does.
  double WireSample::*const fields[] = {
      &WireSample::cpu_usage_pct,       &WireSample::cpu_limit_cores,
      &WireSample::cpu_wait_ms,         &WireSample::memory_usage_pct,
      &WireSample::rss_mb,              &WireSample::anon_memory_mb,
      &WireSample::memory_limit_mb,     &WireSample::io_usage_pct,
      &WireSample::io_ops_limit,        &WireSample::io_wait_ms,
      &WireSample::log_usage_pct,       &WireSample::log_limit_mbps,
      &WireSample::log_wait_ms,         &WireSample::lock_wait_ms,
      &WireSample::latch_wait_ms,       &WireSample::memory_grant_wait_ms,
      &WireSample::buffer_pool_wait_ms, &WireSample::system_wait_ms,
      &WireSample::latency_avg_ms,      &WireSample::latency_p95_ms,
      &WireSample::latency_max_ms};
  const double kInf = std::numeric_limits<double>::infinity();
  int rejected = 0;
  for (size_t f = 0; f < std::size(fields); ++f) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
      WireSample w = clean;
      w.*fields[f] = bad;
      const bool wire_ok = WireSampleLooksValid(w);
      EXPECT_EQ(wire_ok, fault::SampleLooksValid(ToTelemetrySample(w)))
          << "field " << f << " = " << bad;
      if (!wire_ok) ++rejected;
    }
  }
  EXPECT_EQ(rejected, 17 * 3);
}

// ---------------------------------------------------------------------------
// Producer
// ---------------------------------------------------------------------------

TEST(IngestProducerTest, StampsConsecutiveSequences) {
  IngestRing ring(IngestRingOptions{.capacity = 64});
  IngestProducer producer(&ring, /*producer_id=*/9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(producer.Publish(1, MakeSample(1, i)),
              PublishOutcome::kPublished);
  }
  EXPECT_EQ(producer.published(), 10u);
  WireSample out;
  for (uint64_t expect = 0; ring.TryPop(&out); ++expect) {
    EXPECT_EQ(out.producer_id, 9u);
    EXPECT_EQ(out.producer_seq, expect);
    EXPECT_EQ(out.tenant_id, 1u);
  }
}

TEST(IngestProducerTest, RejectionDoesNotConsumeSequence) {
  IngestRing ring(IngestRingOptions{.capacity = 2});
  IngestProducer producer(&ring, 0);
  EXPECT_EQ(producer.Publish(1, MakeSample(1, 0)), PublishOutcome::kPublished);
  EXPECT_EQ(producer.Publish(1, MakeSample(1, 1)), PublishOutcome::kPublished);
  EXPECT_EQ(producer.Publish(1, MakeSample(1, 2)), PublishOutcome::kRejected);
  EXPECT_EQ(producer.rejected(), 1u);
  WireSample out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out.producer_seq, 0u);
  // The rejected publish did not burn seq 2.
  EXPECT_EQ(producer.Publish(1, MakeSample(1, 2)), PublishOutcome::kPublished);
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out.producer_seq, 1u);
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out.producer_seq, 2u);
}

TEST(IngestProducerTest, DropFaultCountsWithoutPushing) {
  IngestRing ring(IngestRingOptions{.capacity = 64});
  fault::FaultPlanOptions fo;
  fo.telemetry.drop_probability = 1.0;
  ASSERT_TRUE(fo.Validate().ok());
  fault::FaultPlan plan(fo, Rng(123));
  IngestProducer producer(&ring, 0, &plan);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(producer.Publish(1, MakeSample(1, i)), PublishOutcome::kDropped);
  }
  EXPECT_EQ(producer.dropped(), 5u);
  EXPECT_EQ(producer.published(), 0u);
  EXPECT_EQ(ring.ApproxDepth(), 0u);
}

TEST(IngestProducerTest, StaleFaultReplaysLastGoodPayload) {
  IngestRing ring(IngestRingOptions{.capacity = 64});
  fault::FaultPlanOptions fo;
  fo.telemetry.stale_probability = 1.0;
  ASSERT_TRUE(fo.Validate().ok());
  fault::FaultPlan plan(fo, Rng(123));
  IngestProducer producer(&ring, 0, &plan);
  // First publish has no prior good sample: falls through to fresh.
  EXPECT_EQ(producer.Publish(1, MakeSample(1, 0)), PublishOutcome::kPublished);
  EXPECT_EQ(producer.Publish(1, MakeSample(1, 1)), PublishOutcome::kPublished);
  EXPECT_EQ(producer.stale(), 1u);
  WireSample fresh, stale;
  ASSERT_TRUE(ring.TryPop(&fresh));
  ASSERT_TRUE(ring.TryPop(&stale));
  // Stale payload repeats sample 0's figures under sample 1's periods.
  EXPECT_EQ(stale.period_end_us, 2 * kPeriodUs);
  EXPECT_EQ(stale.requests_started, fresh.requests_started);
  EXPECT_EQ(stale.latency_p95_ms, fresh.latency_p95_ms);
}

TEST(IngestProducerTest, NanFaultIsRejectedByServiceGuard) {
  IngestRing ring(IngestRingOptions{.capacity = 64});
  fault::FaultPlanOptions fo;
  fo.telemetry.nan_probability = 1.0;
  ASSERT_TRUE(fo.Validate().ok());
  fault::FaultPlan plan(fo, Rng(123));
  IngestProducer producer(&ring, 0, &plan);
  EXPECT_EQ(producer.Publish(1, MakeSample(1, 0)), PublishOutcome::kPublished);
  EXPECT_EQ(producer.corrupted(), 1u);

  ScalerService service(&ring, SmallServiceOptions());
  ASSERT_TRUE(service
                  .AddTenant(1, std::make_unique<StepPolicy>(1),
                             InitialContainer())
                  .ok());
  EXPECT_EQ(service.DrainAll(), 1u);
  EXPECT_EQ(service.counters().invalid, 1u);
  EXPECT_EQ(service.counters().routed, 0u);
}

// ---------------------------------------------------------------------------
// ScalerService equivalence contract
// ---------------------------------------------------------------------------

struct FeedPlan {
  size_t num_tenants = 3;
  int samples_per_tenant = 24;
  size_t samples_per_interval = 4;
};

/// Direct-feed reference: per-tenant sample sequences offered in
/// round-robin order, each evaluated the instant its interval completes —
/// the sim-loop shape.
uint64_t DirectFeedDigest(const FeedPlan& plan, uint64_t* decisions = nullptr) {
  ScalerService service(nullptr,
                        SmallServiceOptions(plan.samples_per_interval));
  for (uint64_t t = 1; t <= plan.num_tenants; ++t) {
    DBSCALE_CHECK(
        service.AddTenant(t, std::make_unique<StepPolicy>(t), InitialContainer())
            .ok());
  }
  uint64_t seq = 0;
  for (int i = 0; i < plan.samples_per_tenant; ++i) {
    for (uint64_t t = 1; t <= plan.num_tenants; ++t) {
      WireSample w = MakeWireSample(t, MakeSample(t, i));
      w.producer_seq = seq++;
      service.OfferDirect(w);
    }
  }
  if (decisions != nullptr) *decisions = service.counters().decisions;
  return service.Digest();
}

/// Ring path: P producers split the tenants, samples interleaved
/// producer-major, drained in batches of `max_drain_batch` over `threads`.
uint64_t RingFeedDigest(const FeedPlan& plan, size_t max_drain_batch,
                        int threads, size_t num_producers,
                        uint64_t* decisions = nullptr) {
  IngestRing ring(IngestRingOptions{.capacity = 1 << 12});
  ScalerServiceOptions options =
      SmallServiceOptions(plan.samples_per_interval);
  options.max_drain_batch = max_drain_batch;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  ScalerService service(&ring, options, pool.get());
  for (uint64_t t = 1; t <= plan.num_tenants; ++t) {
    DBSCALE_CHECK(
        service.AddTenant(t, std::make_unique<StepPolicy>(t), InitialContainer())
            .ok());
  }
  std::vector<IngestProducer> producers;
  producers.reserve(num_producers);
  for (size_t p = 0; p < num_producers; ++p) {
    producers.emplace_back(&ring, static_cast<uint32_t>(p));
  }
  for (int i = 0; i < plan.samples_per_tenant; ++i) {
    for (uint64_t t = 1; t <= plan.num_tenants; ++t) {
      IngestProducer& producer = producers[t % num_producers];
      DBSCALE_CHECK(producer.Publish(t, MakeSample(t, static_cast<int>(i))) ==
                    PublishOutcome::kPublished);
      // Uneven drain cadence: drain roughly every third publish so batches
      // straddle interval boundaries in irregular ways.
      if ((i + static_cast<int>(t)) % 3 == 0) service.DrainOnce();
    }
  }
  service.DrainAll();
  if (decisions != nullptr) *decisions = service.counters().decisions;
  return service.Digest();
}

TEST(IngestServiceTest, RingPathMatchesDirectFeedReference) {
  FeedPlan plan;
  uint64_t direct_decisions = 0;
  const uint64_t direct = DirectFeedDigest(plan, &direct_decisions);
  // Each tenant completes samples_per_tenant / samples_per_interval
  // intervals.
  EXPECT_EQ(direct_decisions, plan.num_tenants * 6u);
  uint64_t ring_decisions = 0;
  const uint64_t ring =
      RingFeedDigest(plan, /*max_drain_batch=*/7, /*threads=*/0,
                     /*num_producers=*/2, &ring_decisions);
  EXPECT_EQ(ring_decisions, direct_decisions);
  EXPECT_EQ(ring, direct);
}

TEST(IngestServiceTest, DigestInvariantToBatchSizeAndThreadCount) {
  FeedPlan plan;
  plan.num_tenants = 5;
  const uint64_t reference = DirectFeedDigest(plan);
  for (size_t batch : {size_t{1}, size_t{3}, size_t{64}, size_t{1024}}) {
    for (int threads : {0, 1, 2, 4}) {
      for (size_t producers : {size_t{1}, size_t{3}}) {
        EXPECT_EQ(RingFeedDigest(plan, batch, threads, producers), reference)
            << "batch=" << batch << " threads=" << threads
            << " producers=" << producers;
      }
    }
  }
}

TEST(IngestServiceTest, SingleBatchStraddlingManyIntervals) {
  // One tenant, 3-sample intervals, all 9 samples in ONE drained batch:
  // the rounds/carry machinery must evaluate 3 decisions with the store
  // frozen at each boundary, exactly like the serial reference.
  FeedPlan plan;
  plan.num_tenants = 1;
  plan.samples_per_tenant = 9;
  plan.samples_per_interval = 3;
  uint64_t direct_decisions = 0, ring_decisions = 0;
  const uint64_t direct = DirectFeedDigest(plan, &direct_decisions);
  IngestRing ring(IngestRingOptions{.capacity = 16});
  ScalerServiceOptions options = SmallServiceOptions(3);
  options.max_drain_batch = 16;
  ScalerService service(&ring, options);
  ASSERT_TRUE(service
                  .AddTenant(1, std::make_unique<StepPolicy>(1),
                             InitialContainer())
                  .ok());
  IngestProducer producer(&ring, 0);
  for (int i = 0; i < 9; ++i) {
    ASSERT_EQ(producer.Publish(1, MakeSample(1, i)),
              PublishOutcome::kPublished);
  }
  EXPECT_EQ(service.DrainOnce(), 9u);  // one batch covers 3 intervals
  ring_decisions = service.counters().decisions;
  EXPECT_EQ(direct_decisions, 3u);
  EXPECT_EQ(ring_decisions, 3u);
  EXPECT_EQ(service.Digest(), direct);
  EXPECT_EQ(service.IntervalIndex(1), 3);
}

TEST(IngestServiceTest, AutoScalerPolicyDigestMatchesAcrossPaths) {
  // The real paper policy (AutoScaler) through both paths: exercises a
  // stateful allocating policy under batched evaluation.
  const container::Catalog catalog = container::Catalog::MakeLockStep();
  const ContainerSpec initial = catalog.at(2);
  const auto make_policy = [&catalog]() {
    scaler::TenantKnobs knobs;
    knobs.latency_goal =
        scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 40.0};
    auto result = scaler::AutoScaler::Create(catalog, knobs);
    DBSCALE_CHECK_OK(result.status());
    return std::move(result).value();
  };

  const auto run = [&](bool via_ring, int threads) {
    IngestRing ring(IngestRingOptions{.capacity = 1 << 10});
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    ScalerService service(&ring, SmallServiceOptions(6), pool.get());
    for (uint64_t t = 1; t <= 4; ++t) {
      DBSCALE_CHECK(service.AddTenant(t, make_policy(), initial).ok());
    }
    IngestProducer producer(&ring, 0);
    for (int i = 0; i < 36; ++i) {
      for (uint64_t t = 1; t <= 4; ++t) {
        if (via_ring) {
          DBSCALE_CHECK(producer.Publish(t, MakeSample(t, i)) ==
                        PublishOutcome::kPublished);
        } else {
          service.OfferDirect(MakeWireSample(t, MakeSample(t, i)));
        }
      }
      if (via_ring && i % 5 == 0) service.DrainAll();
    }
    if (via_ring) service.DrainAll();
    EXPECT_EQ(service.counters().decisions, 4u * 6u);
    return service.Digest();
  };

  const uint64_t direct = run(/*via_ring=*/false, /*threads=*/0);
  EXPECT_EQ(run(true, 0), direct);
  EXPECT_EQ(run(true, 4), direct);
}

/// Seeded random sample #i of a tenant whose load alternates between
/// quiet and busy stretches of `period` samples, so the policies see real
/// scale-up and scale-down evidence. Around the load: ~10% idle samples (no
/// completions), utilization quantized to 5% steps so slope and rank ties
/// are common, and waits that are zero 30% of the time.
TelemetrySample RandomServiceSample(Rng& rng, int i, int period) {
  const bool busy = (i / period) % 2 == 1;
  const double load = (busy ? 0.9 : 0.15) * rng.Uniform(0.8, 1.1);
  TelemetrySample s;
  s.period_start = SimTime::FromMicros(i * kPeriodUs);
  s.period_end = SimTime::FromMicros((i + 1) * kPeriodUs);
  s.requests_completed = rng.Bernoulli(0.1) ? 0 : rng.UniformInt(1, 500);
  s.requests_started = s.requests_completed;
  s.latency_avg_ms = (2.0 + 60.0 * load * load) * rng.Uniform(0.7, 1.3);
  s.latency_p95_ms = s.latency_avg_ms * rng.Uniform(1.5, 3.0);
  s.latency_max_ms = s.latency_p95_ms * 1.5;
  s.memory_used_mb = rng.Uniform(100.0, 4000.0);
  s.memory_active_mb = s.memory_used_mb * rng.Uniform(0.3, 1.0);
  s.physical_reads = rng.UniformInt(0, 10000);
  for (size_t r = 0; r < container::kNumResources; ++r) {
    const double pct = std::min(100.0, 100.0 * load * rng.Uniform(0.8, 1.2));
    s.utilization_pct[r] = std::floor(pct / 5.0) * 5.0;
  }
  for (size_t w = 0; w < telemetry::kNumWaitClasses; ++w) {
    s.wait_ms[w] =
        rng.Bernoulli(0.3) ? 0.0 : 900.0 * load * load * rng.Uniform(0.5, 1.5);
  }
  s.allocation = {4.0, 8192.0, 1000.0, 50.0};
  s.container_id = 3;
  return s;
}

/// ScalerService at the default signal windows (12/24/24) with the
/// production retention of the svc workloads: half the tenants run
/// AutoScaler on the lock-step catalog, half DiagonalScaler on the
/// flexible one. Samples go through the ring and a `threads`-wide pool
/// (0 = serial); returns the service digest.
uint64_t DefaultWindowServiceDigest(size_t samples_per_interval,
                                    int intervals, int threads) {
  constexpr uint64_t kTenants = 8;
  const container::Catalog lockstep = container::Catalog::MakeLockStep();
  auto flexible = container::Catalog::MakeFlexible(
      container::FlexibleCatalogOptions{.subdivisions = 1});
  DBSCALE_CHECK_OK(flexible.status());
  scaler::TenantKnobs knobs;
  knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 40.0};

  IngestRing ring(IngestRingOptions{.capacity = 1 << 12});
  ScalerServiceOptions options;
  options.store_retention = 64;
  options.samples_per_interval = samples_per_interval;
  options.max_drain_batch = 256;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  ScalerService service(&ring, options, pool.get());
  std::vector<Rng> rngs;
  for (uint64_t t = 1; t <= kTenants; ++t) {
    std::unique_ptr<scaler::ScalingPolicy> policy;
    ContainerSpec initial;
    if (t % 2 == 1) {
      auto created = scaler::AutoScaler::Create(lockstep, knobs);
      DBSCALE_CHECK_OK(created.status());
      policy = std::move(created).value();
      initial = lockstep.at(3);
    } else {
      auto created = scaler::DiagonalScaler::Create(*flexible, knobs);
      DBSCALE_CHECK_OK(created.status());
      policy = std::move(created).value();
      initial = flexible->at(3);
    }
    DBSCALE_CHECK_OK(service.AddTenant(t, std::move(policy), initial));
    rngs.emplace_back(1000 + t);
  }
  std::vector<IngestProducer> producers;
  producers.reserve(2);
  producers.emplace_back(&ring, 0);
  producers.emplace_back(&ring, 1);
  const int steps = intervals * static_cast<int>(samples_per_interval);
  // Load flips every few decisions whatever the interval length.
  const int period = 3 * static_cast<int>(samples_per_interval);
  for (int i = 0; i < steps; ++i) {
    for (uint64_t t = 1; t <= kTenants; ++t) {
      DBSCALE_CHECK(producers[t % 2].Publish(
                        t, RandomServiceSample(rngs[t - 1], i, period)) ==
                    PublishOutcome::kPublished);
    }
    if (i % 7 == 0) service.DrainOnce();
  }
  service.DrainAll();
  DBSCALE_CHECK(service.counters().decisions ==
                kTenants * static_cast<uint64_t>(intervals));
  return service.Digest();
}

TEST(IngestServiceTest, DefaultWindowDigestIsPinned) {
  // The two svc shapes: 12 samples per decision (aligned boundaries) and
  // 720 (hourly, where every interval overruns the 64-sample retention).
  constexpr uint64_t kBoundaryPin = 0xaa827ad7f4a9ce07ull;
  constexpr uint64_t kHourlyPin = 0x7634fcfb71b86ff2ull;
  EXPECT_EQ(DefaultWindowServiceDigest(12, 30, 2), kBoundaryPin);
  EXPECT_EQ(DefaultWindowServiceDigest(720, 8, 2), kHourlyPin);
  // The service keeps one signal scratch per evaluation slice and slices
  // by pool width; decisions must not follow the slicing.
  for (int threads : {0, 4}) {
    EXPECT_EQ(DefaultWindowServiceDigest(12, 30, threads), kBoundaryPin)
        << "threads=" << threads;
  }
}

// Every telemetry fault at the producer edge, fed through the ring into
// AutoScaler tenants: pins what the faulted stream decides and what the
// producer and the service's ingestion guard counted.
TEST(IngestProducerTest, AllTelemetryFaultsIntoServicePinned) {
  constexpr uint64_t kTenants = 4;
  const container::Catalog catalog = container::Catalog::MakeLockStep();
  scaler::TenantKnobs knobs;
  knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 40.0};
  IngestRing ring(IngestRingOptions{.capacity = 1 << 12});
  ScalerService service(&ring, SmallServiceOptions(12));
  for (uint64_t t = 1; t <= kTenants; ++t) {
    auto created = scaler::AutoScaler::Create(catalog, knobs);
    DBSCALE_CHECK_OK(created.status());
    DBSCALE_CHECK_OK(
        service.AddTenant(t, std::move(created).value(), catalog.at(3)));
  }
  fault::FaultPlanOptions fo;
  fo.telemetry.drop_probability = 0.1;
  fo.telemetry.nan_probability = 0.1;
  fo.telemetry.outlier_probability = 0.1;
  fo.telemetry.stale_probability = 0.1;
  ASSERT_TRUE(fo.Validate().ok());
  fault::FaultPlan plan(fo, Rng(7));
  IngestProducer producer(&ring, 0, &plan);
  Rng rng(11);
  for (int i = 0; i < 240; ++i) {
    for (uint64_t t = 1; t <= kTenants; ++t) {
      producer.Publish(t, RandomServiceSample(rng, i, 36));
    }
    if (i % 5 == 0) service.DrainOnce();
  }
  service.DrainAll();
  EXPECT_EQ(producer.published(), 866u);
  EXPECT_EQ(producer.dropped(), 94u);
  EXPECT_EQ(producer.corrupted(), 200u);
  EXPECT_EQ(producer.stale(), 99u);
  EXPECT_EQ(producer.rejected(), 0u);
  EXPECT_EQ(service.counters().invalid, 107u);
  EXPECT_EQ(service.counters().decisions, 62u);
  EXPECT_EQ(service.Digest(), 0x9ad19ab9b229fa7aull);
}

// ---------------------------------------------------------------------------
// Store elision: every decision reads the windows an unelided store holds
// ---------------------------------------------------------------------------

/// Appends every decision's signals to a list and holds the container.
class RecordingPolicy : public scaler::ScalingPolicy {
 public:
  explicit RecordingPolicy(std::vector<telemetry::SignalSnapshot>* signals)
      : signals_(signals) {}

  scaler::ScalingDecision Decide(const scaler::PolicyInput& input) override {
    signals_->push_back(input.signals);
    scaler::ScalingDecision d;
    d.target = input.current;
    d.explanation = scaler::Explanation(scaler::ExplanationCode::kNote);
    return d;
  }

  std::string name() const override { return "Recording"; }

 private:
  std::vector<telemetry::SignalSnapshot>* signals_;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectTrendBitsEq(const stats::TrendResult& want,
                       const stats::TrendResult& got) {
  EXPECT_EQ(Bits(want.slope), Bits(got.slope));
  EXPECT_EQ(Bits(want.intercept), Bits(got.intercept));
  EXPECT_EQ(Bits(want.fraction_positive), Bits(got.fraction_positive));
  EXPECT_EQ(Bits(want.fraction_negative), Bits(got.fraction_negative));
  EXPECT_EQ(want.significant, got.significant);
  EXPECT_EQ(want.direction, got.direction);
}

void ExpectSnapshotBitsEq(const telemetry::SignalSnapshot& want,
                          const telemetry::SignalSnapshot& got) {
  EXPECT_EQ(want.time, got.time);
  EXPECT_EQ(want.valid, got.valid);
  EXPECT_EQ(Bits(want.latency_ms), Bits(got.latency_ms));
  ExpectTrendBitsEq(want.latency_trend, got.latency_trend);
  EXPECT_EQ(want.latency_aggregate, got.latency_aggregate);
  for (size_t r = 0; r < container::kNumResources; ++r) {
    SCOPED_TRACE(r);
    const telemetry::ResourceSignals& w = want.resources[r];
    const telemetry::ResourceSignals& g = got.resources[r];
    EXPECT_EQ(Bits(w.utilization_pct), Bits(g.utilization_pct));
    EXPECT_EQ(Bits(w.wait_ms), Bits(g.wait_ms));
    EXPECT_EQ(Bits(w.wait_ms_per_request), Bits(g.wait_ms_per_request));
    EXPECT_EQ(Bits(w.wait_pct), Bits(g.wait_pct));
    ExpectTrendBitsEq(w.utilization_trend, g.utilization_trend);
    ExpectTrendBitsEq(w.wait_trend, g.wait_trend);
    EXPECT_EQ(Bits(w.wait_latency_correlation),
              Bits(g.wait_latency_correlation));
    EXPECT_EQ(Bits(w.utilization_latency_correlation),
              Bits(g.utilization_latency_correlation));
  }
  for (size_t c = 0; c < telemetry::kNumWaitClasses; ++c) {
    EXPECT_EQ(Bits(want.wait_pct_by_class[c]), Bits(got.wait_pct_by_class[c]));
  }
  EXPECT_EQ(Bits(want.total_wait_ms), Bits(got.total_wait_ms));
  EXPECT_EQ(Bits(want.throughput_rps), Bits(got.throughput_rps));
  EXPECT_EQ(Bits(want.memory_used_mb), Bits(got.memory_used_mb));
  EXPECT_EQ(Bits(want.physical_reads_per_sec),
            Bits(got.physical_reads_per_sec));
  EXPECT_EQ(Bits(want.allocation.cpu_cores), Bits(got.allocation.cpu_cores));
  EXPECT_EQ(Bits(want.allocation.memory_mb), Bits(got.allocation.memory_mb));
  EXPECT_EQ(Bits(want.allocation.disk_iops), Bits(got.allocation.disk_iops));
  EXPECT_EQ(Bits(want.allocation.log_mbps), Bits(got.allocation.log_mbps));
  EXPECT_EQ(Bits(want.confidence), Bits(got.confidence));
  EXPECT_EQ(want.degraded, got.degraded);
}

/// One tenant's stream: `intervals` intervals of `samples_per_interval`
/// samples that pass both guards. Before the interval's passing samples at
/// offsets spi-25, spi-24, spi-12 and spi-1 (the last one the store elides
/// at spi > 24, the first one it keeps, one inside the newest 24 and the
/// interval's last) sit a NaN sample and one whose period ends before the
/// last passing one, so the guards reject samples just before and inside
/// the region every decision reads.
std::vector<TelemetrySample> ElisionStream(uint64_t tenant,
                                           size_t samples_per_interval,
                                           int intervals) {
  Rng rng(500 + tenant);
  std::vector<TelemetrySample> out;
  int i = 0;  // passing samples so far: the period clock
  for (int interval = 0; interval < intervals; ++interval) {
    for (size_t k = 0; k < samples_per_interval; ++k) {
      const size_t left = samples_per_interval - k;
      if (i >= 2 && (left == 25 || left == 24 || left == 12 || left == 1)) {
        TelemetrySample nan = RandomServiceSample(rng, i, 36);
        nan.latency_p95_ms = std::numeric_limits<double>::quiet_NaN();
        out.push_back(nan);
        out.push_back(RandomServiceSample(rng, i - 2, 36));
      }
      out.push_back(RandomServiceSample(rng, i, 36));
      ++i;
    }
  }
  return out;
}

/// Feeds three tenants' ElisionStreams through the ring, drained in
/// batches of `max_drain_batch` every 37 publishes (so a batch straddles
/// boundaries and parks samples at batch sizes above 1), and checks every
/// decision's signals against TelemetryManager::Compute over an unelided
/// TelemetryStore(64) fed the same stream.
void ExpectElidedWindowsMatchUnelidedStore(size_t samples_per_interval,
                                           int intervals,
                                           size_t max_drain_batch) {
  SCOPED_TRACE(::testing::Message() << "samples_per_interval="
                                  << samples_per_interval
                                  << " max_drain_batch=" << max_drain_batch);
  constexpr uint64_t kTenants = 3;
  ScalerServiceOptions options;  // default 12/24/24 windows
  options.store_retention = 64;
  options.samples_per_interval = samples_per_interval;
  options.max_drain_batch = max_drain_batch;
  IngestRing ring(IngestRingOptions{.capacity = 1 << 10});
  ScalerService service(&ring, options);
  std::vector<std::vector<TelemetrySample>> streams;
  std::vector<std::vector<telemetry::SignalSnapshot>> seen(kTenants);
  for (uint64_t t = 0; t < kTenants; ++t) {
    streams.push_back(ElisionStream(t, samples_per_interval, intervals));
    ASSERT_TRUE(service
                    .AddTenant(t + 1, std::make_unique<RecordingPolicy>(&seen[t]),
                               InitialContainer())
                    .ok());
  }
  IngestProducer producer(&ring, 0);
  size_t published = 0;
  for (size_t i = 0; i < streams[0].size(); ++i) {
    for (uint64_t t = 0; t < kTenants; ++t) {
      ASSERT_EQ(producer.Publish(t + 1, streams[t][i]),
                PublishOutcome::kPublished);
      if (++published % 37 == 0) service.DrainAll();
    }
  }
  service.DrainAll();

  const telemetry::TelemetryManager manager(options.telemetry);
  telemetry::SignalScratch scratch;
  uint64_t invalid = 0, out_of_order = 0;
  for (uint64_t t = 0; t < kTenants; ++t) {
    telemetry::TelemetryStore store(64);
    std::vector<telemetry::SignalSnapshot> want;
    size_t routed = 0;
    for (const TelemetrySample& s : streams[t]) {
      if (!fault::SampleLooksValid(s)) {
        ++invalid;
        continue;
      }
      if (!store.empty() && s.period_end < store.back().period_end) {
        ++out_of_order;
        continue;
      }
      store.Append(s);
      if (++routed == samples_per_interval) {
        want.push_back(manager.Compute(store, s.period_end, &scratch));
        routed = 0;
      }
    }
    ASSERT_EQ(want.size(), static_cast<size_t>(intervals));
    ASSERT_EQ(seen[t].size(), want.size()) << "tenant " << t + 1;
    for (size_t d = 0; d < want.size(); ++d) {
      SCOPED_TRACE(::testing::Message() << "tenant " << t + 1 << " decision "
                                      << d);
      ExpectSnapshotBitsEq(want[d], seen[t][d]);
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(invalid, 0u);
  EXPECT_GT(out_of_order, 0u);
  EXPECT_EQ(service.counters().invalid, invalid);
  EXPECT_EQ(service.counters().out_of_order, out_of_order);
}

TEST(IngestElisionTest, DecisionWindowsMatchUnelidedStore) {
  // Around the 24-sample widest window (nothing elided at 23 and 24, one
  // sample per interval at 25) and at hourly billing (696 of 720 elided).
  for (size_t spi : {size_t{23}, size_t{24}, size_t{25}, size_t{720}}) {
    const int intervals = spi == 720 ? 4 : 12;
    for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
      ExpectElidedWindowsMatchUnelidedStore(spi, intervals, batch);
    }
  }
}

TEST(IngestServiceTest, UnknownTenantAndSeqViolationCounted) {
  IngestRing ring(IngestRingOptions{.capacity = 16});
  ScalerService service(&ring, SmallServiceOptions());
  ASSERT_TRUE(service
                  .AddTenant(1, std::make_unique<StepPolicy>(1),
                             InitialContainer())
                  .ok());
  WireSample w = MakeWireSample(99, MakeSample(99, 0));  // unknown tenant
  w.producer_seq = 0;
  ASSERT_TRUE(ring.TryPush(w));
  WireSample gap = MakeWireSample(1, MakeSample(1, 0));
  gap.producer_seq = 5;  // violates 0,1,2,... from producer 0
  ASSERT_TRUE(ring.TryPush(gap));
  service.DrainAll();
  EXPECT_EQ(service.counters().unknown_tenant, 1u);
  EXPECT_EQ(service.counters().seq_violations, 1u);
  EXPECT_EQ(service.counters().routed, 1u);
}

TEST(IngestServiceTest, OutOfOrderPeriodDropped) {
  IngestRing ring(IngestRingOptions{.capacity = 16});
  ScalerService service(&ring, SmallServiceOptions());
  ASSERT_TRUE(service
                  .AddTenant(1, std::make_unique<StepPolicy>(1),
                             InitialContainer())
                  .ok());
  IngestProducer producer(&ring, 0);
  ASSERT_EQ(producer.Publish(1, MakeSample(1, 5)), PublishOutcome::kPublished);
  ASSERT_EQ(producer.Publish(1, MakeSample(1, 2)),  // period regresses
            PublishOutcome::kPublished);
  service.DrainAll();
  EXPECT_EQ(service.counters().routed, 1u);
  EXPECT_EQ(service.counters().out_of_order, 1u);
}

TEST(IngestServiceTest, UnknownProducerCounted) {
  IngestRing ring(IngestRingOptions{.capacity = 16});
  ScalerServiceOptions options = SmallServiceOptions();
  options.max_producers = 2;
  ScalerService service(&ring, options);
  ASSERT_TRUE(service
                  .AddTenant(1, std::make_unique<StepPolicy>(1),
                             InitialContainer())
                  .ok());
  WireSample w = MakeWireSample(1, MakeSample(1, 0));
  w.producer_id = 7;  // >= max_producers
  ASSERT_TRUE(ring.TryPush(w));
  service.DrainAll();
  EXPECT_EQ(service.counters().unknown_producer, 1u);
  EXPECT_EQ(service.counters().routed, 1u);  // still routed, only the seq
                                             // table is out of range
}

TEST(IngestServiceTest, AddTenantValidation) {
  IngestRing ring(IngestRingOptions{.capacity = 16});
  ScalerService service(&ring, SmallServiceOptions());
  EXPECT_FALSE(service.AddTenant(1, nullptr, InitialContainer()).ok());
  EXPECT_TRUE(service
                  .AddTenant(1, std::make_unique<StepPolicy>(1),
                             InitialContainer())
                  .ok());
  EXPECT_TRUE(service
                  .AddTenant(1, std::make_unique<StepPolicy>(1),
                             InitialContainer())
                  .IsAlreadyExists());
  EXPECT_EQ(service.num_tenants(), 1u);
}

TEST(IngestServiceTest, OptionsValidate) {
  ScalerServiceOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.samples_per_interval = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = ScalerServiceOptions{};
  o.max_drain_batch = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = ScalerServiceOptions{};
  std::vector<uint64_t> sink;
  o.decision_latency_sink = &sink;  // sink without timer is rejected
  EXPECT_FALSE(o.Validate().ok());

  // The store must hold the widest telemetry window (24 samples by
  // default); a shorter one would silently truncate it.
  o = ScalerServiceOptions{};
  EXPECT_EQ(o.store_retention, 64u);
  o.store_retention = 0;
  EXPECT_FALSE(o.Validate().ok());
  o.store_retention = 23;
  EXPECT_FALSE(o.Validate().ok());
  o.store_retention = 24;
  EXPECT_TRUE(o.Validate().ok());
  o.telemetry.aggregation_samples = 40;
  EXPECT_FALSE(o.Validate().ok());
  o.store_retention = 40;
  EXPECT_TRUE(o.Validate().ok());
}

namespace fake_clock {
uint64_t now = 0;
uint64_t Next() { return now += 7; }
}  // namespace fake_clock

TEST(IngestServiceTest, DecisionLatencySinkFillsPerDecision) {
  FeedPlan plan;
  IngestRing ring(IngestRingOptions{.capacity = 1 << 10});
  ScalerServiceOptions options =
      SmallServiceOptions(plan.samples_per_interval);
  std::vector<uint64_t> latencies;
  options.timer = &fake_clock::Next;
  options.decision_latency_sink = &latencies;
  ScalerService service(&ring, options);
  for (uint64_t t = 1; t <= plan.num_tenants; ++t) {
    ASSERT_TRUE(service
                    .AddTenant(t, std::make_unique<StepPolicy>(t),
                               InitialContainer())
                    .ok());
  }
  IngestProducer producer(&ring, 0);
  for (int i = 0; i < plan.samples_per_tenant; ++i) {
    for (uint64_t t = 1; t <= plan.num_tenants; ++t) {
      ASSERT_EQ(producer.Publish(t, MakeSample(t, i)),
                PublishOutcome::kPublished);
    }
  }
  service.DrainAll();
  EXPECT_EQ(latencies.size(), service.counters().decisions);
  for (uint64_t ns : latencies) EXPECT_GT(ns, 0u);
  // Timing must not perturb results.
  EXPECT_EQ(service.Digest(), DirectFeedDigest(plan));
}

// ---------------------------------------------------------------------------
// Multi-producer stress (runs under TSan in CI)
// ---------------------------------------------------------------------------

TEST(IngestStressTest, ConcurrentProducersSingleDrainer) {
  constexpr size_t kProducers = 4;
  constexpr int kSamplesPerTenant = 1250;
  // Capacity exceeds the total sample count so backpressure never drops a
  // sample and the digest is deterministic even with a slow drainer.
  IngestRing ring(IngestRingOptions{.capacity = 1 << 13});
  ScalerServiceOptions options = SmallServiceOptions(5);
  options.max_drain_batch = 256;
  ScalerService service(&ring, options);
  for (uint64_t t = 1; t <= kProducers; ++t) {
    ASSERT_TRUE(service
                    .AddTenant(t, std::make_unique<StepPolicy>(t),
                               InitialContainer())
                    .ok());
  }

  std::atomic<size_t> producers_done{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ring, &producers_done, p] {
      // Producer p feeds tenant p+1 exclusively, preserving the per-tenant
      // sample order the equivalence contract requires.
      IngestProducer producer(&ring, static_cast<uint32_t>(p));
      const uint64_t tenant = static_cast<uint64_t>(p) + 1;
      for (int i = 0; i < kSamplesPerTenant; ++i) {
        ASSERT_EQ(producer.Publish(tenant, MakeSample(tenant, i)),
                  PublishOutcome::kPublished);
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }
  // Drain concurrently with the producers (the actual MPSC interleaving).
  while (producers_done.load(std::memory_order_acquire) < kProducers) {
    service.DrainAll();
  }
  for (std::thread& t : threads) t.join();
  service.DrainAll();

  EXPECT_EQ(ring.rejected(), 0u);
  EXPECT_EQ(service.counters().routed, kProducers * kSamplesPerTenant);
  EXPECT_EQ(service.counters().seq_violations, 0u);
  EXPECT_EQ(service.counters().out_of_order, 0u);

  FeedPlan plan;
  plan.num_tenants = kProducers;
  plan.samples_per_tenant = kSamplesPerTenant;
  plan.samples_per_interval = 5;
  EXPECT_EQ(service.Digest(), DirectFeedDigest(plan));
}

// ---------------------------------------------------------------------------
// DecideBatch
// ---------------------------------------------------------------------------

TEST(IngestBatchEvalTest, SerialAndParallelProduceIdenticalSlots) {
  constexpr size_t kSlots = 37;
  const auto fill = [](std::vector<scaler::DecisionSlot>& slots,
                       std::vector<std::unique_ptr<StepPolicy>>& policies) {
    slots.resize(kSlots);
    for (size_t i = 0; i < kSlots; ++i) {
      policies.push_back(std::make_unique<StepPolicy>(i));
      slots[i].policy = policies.back().get();
      slots[i].input.current = InitialContainer();
      slots[i].input.interval_index = static_cast<int>(i);
    }
  };
  std::vector<scaler::DecisionSlot> serial, parallel;
  std::vector<std::unique_ptr<StepPolicy>> p1, p2;
  fill(serial, p1);
  fill(parallel, p2);
  scaler::DecideBatch(serial.data(), serial.size(), nullptr);
  ThreadPool pool(4);
  scaler::DecideBatch(parallel.data(), parallel.size(), &pool);
  for (size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(parallel[i].decision.target.id, serial[i].decision.target.id);
    EXPECT_EQ(parallel[i].decision.explanation.code,
              serial[i].decision.explanation.code);
    EXPECT_EQ(parallel[i].decision.memory_limit_mb.has_value(),
              serial[i].decision.memory_limit_mb.has_value());
  }
}

}  // namespace
}  // namespace dbscale::ingest
