// Enforces the PR-1 performance contract as a regression test: with scratch
// buffers, the per-interval signal path performs ZERO heap allocations in
// steady state. Previously this was only a bench observation
// (BENCH_perf.json); here any reintroduced allocation fails the suite.
//
// This translation unit replaces the global allocation functions with
// counting versions, which is why it links into its own test binary
// (dbscale_alloc_guard_test) — see tests/CMakeLists.txt.

#include "tests/alloc_guard.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <limits>
#include <malloc.h>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/container/catalog.h"
#include "src/engine/engine.h"
#include "src/fault/actuator.h"
#include "src/fault/fault_plan.h"
#include "src/host/host_map.h"
#include "src/host/placement.h"
#include "src/ingest/ingest_ring.h"
#include "src/ingest/producer.h"
#include "src/ingest/scaler_service.h"
#include "src/ingest/wire_sample.h"
#include "src/scaler/batch_eval.h"
#include "src/scaler/diagonal.h"
#include "src/obs/metrics.h"
#include "src/obs/pipeline.h"
#include "src/obs/trace.h"
#include "src/scaler/autoscaler.h"
#include "src/sim/report.h"
#include "src/sim/sim_config.h"
#include "src/sim/simulation.h"
#include "src/stats/cdf.h"
#include "src/stats/robust.h"
#include "src/stats/spearman.h"
#include "src/stats/theil_sen.h"
#include "src/telemetry/manager.h"
#include "src/telemetry/sample.h"
#include "src/telemetry/store.h"
#include "src/workload/generator.h"
#include "src/workload/mix.h"
#include "src/workload/paper_traces.h"
#include "src/workload/trace.h"

namespace {

thread_local std::size_t g_thread_allocs = 0;
thread_local std::size_t g_thread_frees = 0;

void* CountedAlloc(std::size_t size) {
  ++g_thread_allocs;
  if (size == 0) size = 1;
  void* p = std::malloc(size);  // NOLINT(cppcoreguidelines-no-malloc)
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  ++g_thread_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  ++g_thread_frees;
  std::free(p);  // NOLINT(cppcoreguidelines-no-malloc)
}

}  // namespace

namespace dbscale::testing {
std::size_t ThreadAllocCount() noexcept { return g_thread_allocs; }
std::size_t ThreadDeallocCount() noexcept { return g_thread_frees; }
}  // namespace dbscale::testing

// Replacement global allocation functions. All new/delete forms funnel into
// the counted helpers so no allocation path escapes the measurement.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_thread_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_thread_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}

namespace dbscale {
namespace {

using telemetry::SignalScratch;
using telemetry::TelemetryManager;
using telemetry::TelemetrySample;
using telemetry::TelemetryStore;
using testing::AllocSpan;

TelemetrySample MakeSample(int index) {
  TelemetrySample s;
  s.period_start = SimTime::Zero() + Duration::Seconds(index * 5.0);
  s.period_end = SimTime::Zero() + Duration::Seconds((index + 1) * 5.0);
  s.requests_completed = 10 + index % 7;
  s.latency_avg_ms = 20.0 + (index % 5) * 3.0;
  s.latency_p95_ms = 45.0 + (index % 9) * 4.0;
  s.memory_used_mb = 900.0 + index;
  s.physical_reads = 40 + index % 11;
  for (size_t r = 0; r < container::kNumResources; ++r) {
    s.utilization_pct[r] = 25.0 + static_cast<double>((index + r) % 60);
  }
  for (size_t wc = 0; wc < static_cast<size_t>(telemetry::kNumWaitClasses);
       ++wc) {
    s.wait_ms[wc] = static_cast<double>((index * 13 + wc * 7) % 40);
  }
  return s;
}

TelemetryStore MakeStore(int n) {
  TelemetryStore store;
  for (int i = 0; i < n; ++i) store.Append(MakeSample(i));
  return store;
}

// The guard itself must be live: if the replacement operator new silently
// stopped linking, every "zero allocations" assertion below would pass
// vacuously. A forced allocation proves the counter moves.
TEST(AllocGuardTest, CounterObservesAllocations) {
  AllocSpan span;
  auto* v = new std::vector<double>();
  v->resize(1024);
  delete v;
  EXPECT_GE(span.allocations(), 2u);
  EXPECT_GE(span.deallocations(), 2u);
}

TEST(AllocGuardTest, ComputeWithScratchIsAllocationFree) {
  TelemetryStore store = MakeStore(64);
  TelemetryManager manager;
  SignalScratch scratch;

  // Warm-up: first call grows scratch capacity to the high-water mark.
  auto warm = manager.Compute(store, store.back().period_end, &scratch);
  ASSERT_TRUE(warm.valid);

  AllocSpan span;
  for (int i = 0; i < 10; ++i) {
    auto snap = manager.Compute(store, store.back().period_end, &scratch);
    ASSERT_TRUE(snap.valid);
  }
  EXPECT_EQ(span.allocations(), 0u)
      << "TelemetryManager::Compute allocated on the scratch path";
}

// Negative control: without scratch, Compute falls back to call-local
// buffers and must allocate. Proves the measurement sees the difference
// the scratch path is claimed to make.
TEST(AllocGuardTest, ComputeWithoutScratchAllocates) {
  TelemetryStore store = MakeStore(64);
  TelemetryManager manager;
  // Warm-up discard: only the second call is measured.
  // dbscale-lint: allow(discarded-status)
  (void)manager.Compute(store, store.back().period_end, nullptr);

  AllocSpan span;
  auto snap = manager.Compute(store, store.back().period_end, nullptr);
  ASSERT_TRUE(snap.valid);
  EXPECT_GT(span.allocations(), 0u);
}

TEST(AllocGuardTest, InPlaceStatsAreAllocationFree) {
  // One leg per selection path and edge: the 16- and 32-slot networks and
  // nth_element just past them and at a long window.
  for (int n : {12, 24, 32, 33, 256}) {
    std::vector<double> values;
    values.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      values.push_back(static_cast<double>((i * 37) % 101));
    }
    std::vector<double> work(values);

    AllocSpan span;
    work.assign(values.begin(), values.end());
    auto median = stats::MedianInPlace(work);
    work.assign(values.begin(), values.end());
    auto p95 = stats::PercentileInPlace(work, 95.0);
    work.assign(values.begin(), values.end());
    auto mad = stats::MadInPlace(work);
    EXPECT_EQ(span.allocations(), 0u)
        << "in-place robust stats allocated at n = " << n;

    ASSERT_TRUE(median.ok());
    ASSERT_TRUE(p95.ok());
    ASSERT_TRUE(mad.ok());
    EXPECT_GT(*mad, 0.0);
  }
}

TEST(AllocGuardTest, TheilSenFitSequenceWithScratchIsAllocationFree) {
  std::vector<double> y;
  y.reserve(48);
  for (int i = 0; i < 48; ++i) {
    y.push_back(0.5 * i + ((i % 3) - 1) * 0.25);
  }
  stats::TheilSenEstimator estimator(0.70);
  stats::TheilSenScratch scratch;
  auto warm = estimator.FitSequence(y, &scratch);
  ASSERT_TRUE(warm.ok());

  AllocSpan span;
  auto fit = estimator.FitSequence(y, &scratch);
  EXPECT_EQ(span.allocations(), 0u)
      << "TheilSenEstimator::FitSequence allocated with warm scratch";
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit->direction, stats::TrendDirection::kIncreasing);
}

TEST(AllocGuardTest, SpearmanWithScratchIsAllocationFree) {
  std::vector<double> x, y;
  x.reserve(48);
  y.reserve(48);
  for (int i = 0; i < 48; ++i) {
    x.push_back(static_cast<double>(i % 17));
    y.push_back(static_cast<double>((i * i) % 23));
  }
  stats::SpearmanScratch scratch;
  auto warm = stats::SpearmanCorrelation(x, y, &scratch);
  ASSERT_TRUE(warm.ok());

  AllocSpan span;
  auto rho = stats::SpearmanCorrelation(x, y, &scratch);
  EXPECT_EQ(span.allocations(), 0u)
      << "SpearmanCorrelation allocated with warm scratch";
  ASSERT_TRUE(rho.ok());
  EXPECT_GE(*rho, -1.0);
  EXPECT_LE(*rho, 1.0);
}

TEST(AllocGuardTest, RecentIntoWithWarmBufferIsAllocationFree) {
  TelemetryStore store = MakeStore(64);
  std::vector<const telemetry::SampleRow*> buf;
  store.RecentInto(32, buf);

  AllocSpan span;
  store.RecentInto(32, buf);
  EXPECT_EQ(span.allocations(), 0u) << "TelemetryStore::RecentInto allocated";
  EXPECT_EQ(buf.size(), 32u);
}

// The deployment access pattern: samples arrive between Computes, so every
// call sees a slid window. The store's own Append may grow its ring, so it
// happens outside the measured span — only Compute is on trial. Runs the
// default windows, then trend/correlation windows of 32, 128 and 512
// samples with aggregation over half of each.
TEST(AllocGuardTest, ComputeSlidingIsAllocationFree) {
  struct Case {
    size_t window;  // 0: the default options
    int slides;
  };
  for (const Case c : {Case{0, 32}, Case{32, 32}, Case{128, 16},
                       Case{512, 4}}) {
    telemetry::TelemetryManagerOptions options;
    if (c.window > 0) {
      options.aggregation_samples = c.window / 2;
      options.trend_samples = c.window;
      options.correlation_samples = c.window;
    }
    const int filled = std::max(64, static_cast<int>(c.window));
    TelemetryStore store = MakeStore(filled);
    const TelemetryManager manager(options);
    SignalScratch scratch;

    // Warm-up: grows every scratch buffer to its high-water mark.
    auto warm = manager.Compute(store, store.back().period_end, &scratch);
    ASSERT_TRUE(warm.valid) << "W=" << c.window;

    for (int i = 0; i < c.slides; ++i) {
      store.Append(MakeSample(filled + i));
      AllocSpan span;
      auto snap = manager.Compute(store, store.back().period_end, &scratch);
      EXPECT_EQ(span.allocations(), 0u)
          << "sliding Compute at W=" << c.window << " allocated on slide "
          << i;
      ASSERT_TRUE(snap.valid);
    }
  }
}

// The observed deployment shape: one span tree per billing interval, with
// Compute recording metrics into the primary shard and spans into the
// preallocated trace ring. Observing must not add heap traffic.
TEST(AllocGuardTest, ObservedComputeIsAllocationFree) {
  TelemetryStore store = MakeStore(64);
  TelemetryManager manager;
  SignalScratch scratch;
  obs::Observability ob;
  const obs::Sink sink = ob.PrimarySink();
  const SimTime now = store.back().period_end;
  auto observed_compute = [&](int interval) {
    ob.trace().BeginInterval(interval, now);
    auto snap = manager.Compute(store, now, &scratch,
                                sink.Under(ob.trace().root()));
    ob.trace().EndInterval(now);
    return snap.valid;
  };
  // Warm-up: sizes the scratch (the trace ring is preallocated).
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(observed_compute(i));

  AllocSpan span;
  for (int i = 16; i < 116; ++i) ASSERT_TRUE(observed_compute(i));
  EXPECT_EQ(span.allocations(), 0u)
      << "Compute allocated with a live metrics shard and trace sink";
  EXPECT_GT(ob.trace().num_intervals(), 0u);
}

TEST(AllocGuardTest, LatencyHistogramSteadyOpsAreAllocationFree) {
  stats::LatencyHistogram hist(1.0, 1e6, 48);
  stats::LatencyHistogram other(1.0, 1e6, 48);
  for (int i = 0; i < 100; ++i) {
    hist.Add(1.0 + static_cast<double>((i * 97) % 5000));
    other.Add(1.0 + static_cast<double>((i * 41) % 5000));
  }

  AllocSpan span;
  for (int i = 0; i < 100; ++i) {
    hist.Add(1.0 + static_cast<double>((i * 61) % 5000));
  }
  const double p95 = hist.ValueAtPercentile(95.0);
  hist.Merge(other);
  const double merged_p95 = hist.ValueAtPercentile(95.0);
  hist.Reset();
  EXPECT_EQ(span.allocations(), 0u)
      << "LatencyHistogram steady-state ops allocated";
  EXPECT_GT(p95, 0.0);
  EXPECT_GT(merged_p95, 0.0);
}

TEST(AllocGuardTest, CurvePointsIntoWithWarmBufferIsAllocationFree) {
  stats::EmpiricalCdf cdf;
  for (int i = 0; i < 200; ++i) {
    cdf.Add(static_cast<double>((i * 37) % 101));
  }
  std::vector<std::pair<double, double>> points;
  ASSERT_TRUE(cdf.CurvePointsInto(50, points).ok());

  AllocSpan span;
  ASSERT_TRUE(cdf.CurvePointsInto(50, points).ok());
  EXPECT_EQ(span.allocations(), 0u)
      << "EmpiricalCdf::CurvePointsInto allocated with warm buffer";
  EXPECT_EQ(points.size(), 50u);
}

TEST(AllocGuardTest, TextTableAppendWithWarmBuffersIsAllocationFree) {
  sim::TextTable table({"metric", "value", "unit"});
  for (int i = 0; i < 8; ++i) {
    table.AddRow({"p95_latency", std::to_string(40 + i), "ms"});
  }
  sim::ReportScratch scratch;
  std::string out;
  std::string csv;
  table.AppendTo(out, &scratch);
  table.AppendCsvTo(csv);

  AllocSpan span;
  out.clear();
  table.AppendTo(out, &scratch);
  csv.clear();
  table.AppendCsvTo(csv);
  EXPECT_EQ(span.allocations(), 0u)
      << "TextTable::AppendTo/AppendCsvTo allocated with warm buffers";
  EXPECT_FALSE(out.empty());
  EXPECT_FALSE(csv.empty());
}

// The observability contract: once instruments are registered and the
// shard is attached (setup time), every record path — counter add, gauge
// set, histogram observe, and the null-sink disabled branch — is heap-free.
TEST(AllocGuardTest, MetricShardRecordPathsAreAllocationFree) {
  obs::MetricRegistry registry;
  const obs::MetricId c = registry.Counter("c_total", "c");
  const obs::MetricId g = registry.Gauge("g", "g");
  const obs::MetricId h = registry.Histogram(
      "h_ms", "h", obs::HistogramSpec::Exponential(0.05, 2.0, 16));
  obs::MetricShard shard;
  shard.Attach(&registry);
  obs::MetricSink sink{&shard};
  obs::MetricSink off;  // disabled: the runtime-toggle branch

  AllocSpan span;
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>((i * 37) % 101);
    sink.Add(c, 1.0);
    sink.Set(g, v);
    sink.Observe(h, v);
    off.Add(c, 1.0);
    off.Observe(h, v);
  }
  EXPECT_EQ(span.allocations(), 0u)
      << "MetricShard record paths allocated";
  EXPECT_DOUBLE_EQ(shard.counter(c), 1000.0);
  EXPECT_DOUBLE_EQ(shard.hist_count(h), 1000.0);
}

// Span capture reuses the preallocated interval ring: after construction,
// whole interval trees (begin, spans, attrs, end) record without touching
// the heap — including overflow drops past the per-interval capacity.
TEST(AllocGuardTest, TraceCaptureSteadyStateIsAllocationFree) {
  obs::TraceRecorder::Options options;
  options.max_intervals = 8;
  options.max_spans_per_interval = 16;
  obs::TraceRecorder recorder(options);

  AllocSpan span;
  for (int i = 0; i < 64; ++i) {
    const SimTime t0 = SimTime::Zero() + Duration::Seconds(20.0 * i);
    recorder.BeginInterval(i, t0);
    for (int s = 0; s < 20; ++s) {  // 20 > capacity: exercises the drop path
      const obs::SpanId id = recorder.StartSpan("decide", t0,
                                                recorder.root());
      recorder.AddAttr(id, "target_rung", static_cast<double>(s));
      recorder.AddAttrStr(id, "code", "hold_demand_steady");
      recorder.EndSpan(id, t0 + Duration::Seconds(1));
    }
    recorder.EndInterval(t0 + Duration::Seconds(20));
  }
  EXPECT_EQ(span.allocations(), 0u)
      << "TraceRecorder capture allocated in steady state";
  EXPECT_EQ(recorder.num_intervals(), 8u);
  EXPECT_GT(recorder.dropped_spans(), 0u);
}

// The fault-injection contract: fault draws and sample corruption sit on
// the per-sample ingestion path and the per-interval actuation path, so
// they must never touch the heap.
TEST(AllocGuardTest, FaultPlanDrawsAreAllocationFree) {
  fault::FaultPlanOptions options;
  options.resize.failure_probability = 0.2;
  options.resize.rejection_probability = 0.05;
  options.resize.min_latency_intervals = 1;
  options.resize.max_latency_intervals = 3;
  options.telemetry.drop_probability = 0.1;
  options.telemetry.nan_probability = 0.05;
  options.telemetry.outlier_probability = 0.05;
  options.telemetry.stale_probability = 0.05;
  fault::FaultPlan plan(options, Rng(11));
  TelemetrySample sample = MakeSample(0);

  AllocSpan span;
  for (int i = 0; i < 1000; ++i) {
    // dbscale-lint: allow(discarded-status)
    (void)plan.NextResizeFault();
    const fault::SampleFault f = plan.NextSampleFault();
    if (f != fault::SampleFault::kNone) plan.CorruptSample(f, &sample);
    // dbscale-lint: allow(discarded-status)
    (void)fault::SampleLooksValid(sample);
  }
  EXPECT_EQ(span.allocations(), 0u)
      << "FaultPlan draw/corrupt path allocated";
}

TEST(AllocGuardTest, ResizeActuatorLifecycleIsAllocationFree) {
  const container::Catalog catalog = container::Catalog::MakeLockStep();
  fault::FaultPlanOptions options;
  options.resize.failure_probability = 0.3;
  options.resize.min_latency_intervals = 1;
  options.resize.max_latency_intervals = 2;
  fault::FaultPlan plan(options, Rng(5));
  // Every other request is a migration: 1 interval of copy, then a
  // 2-interval blackout.
  fault::ResizeActuator actuator(&plan, 1, 2);
  const container::ContainerSpec target = catalog.rung(5);

  int downtime_intervals = 0;
  AllocSpan span;
  for (int i = 0; i < 200; ++i) {
    if (!actuator.pending()) {
      // dbscale-lint: allow(discarded-status)
      (void)actuator.Begin(target, i % 2 == 0
                                       ? fault::ActuationKind::kMigration
                                       : fault::ActuationKind::kLocalResize);
    }
    // dbscale-lint: allow(discarded-status)
    (void)actuator.Tick();
    if (actuator.in_downtime()) ++downtime_intervals;
  }
  EXPECT_EQ(span.allocations(), 0u)
      << "ResizeActuator Begin/Tick allocated";
  EXPECT_GT(downtime_intervals, 0);
}

TEST(AllocGuardTest, TelemetryFaultEdgeIsAllocationFree) {
  fault::FaultPlanOptions options;
  options.telemetry.drop_probability = 0.2;
  options.telemetry.nan_probability = 0.2;
  options.telemetry.outlier_probability = 0.2;
  options.telemetry.stale_probability = 0.2;
  fault::FaultPlan plan(options, Rng(13));
  fault::TelemetryFaultEdge edge;
  std::array<int, 5> seen{};

  AllocSpan span;
  for (int i = 0; i < 1000; ++i) {
    TelemetrySample sample = MakeSample(i);
    ++seen[static_cast<size_t>(edge.Apply(&plan, &sample))];
  }
  EXPECT_EQ(span.allocations(), 0u) << "TelemetryFaultEdge::Apply allocated";
  for (const int count : seen) EXPECT_GT(count, 0);
}

// Graceful degradation stays on the allocation-free path: Compute over a
// gappy window (dropped samples) flags degraded without heap traffic.
TEST(AllocGuardTest, DegradedComputeWithScratchIsAllocationFree) {
  TelemetryStore store;
  // Every third sample dropped: coverage ~0.66 < the 0.7 default floor.
  for (int i = 0; i < 64; ++i) {
    if (i % 3 != 2) store.Append(MakeSample(i));
  }
  TelemetryManager manager;
  SignalScratch scratch;
  auto warm = manager.Compute(store, store.back().period_end, &scratch);
  ASSERT_TRUE(warm.valid);
  ASSERT_TRUE(warm.degraded);

  AllocSpan span;
  for (int i = 0; i < 10; ++i) {
    auto snap = manager.Compute(store, store.back().period_end, &scratch);
    ASSERT_TRUE(snap.valid);
    EXPECT_TRUE(snap.degraded);
    EXPECT_LT(snap.confidence, 1.0);
  }
  EXPECT_EQ(span.allocations(), 0u)
      << "degraded-window Compute allocated on the scratch path";
}

// -------- PR-8 ingest legs: ring, store ring, batched evaluation --------

TEST(AllocGuardTest, IngestRingPushPopSteadyStateIsAllocationFree) {
  ingest::IngestRing ring(ingest::IngestRingOptions{.capacity = 64});
  ingest::WireSample sample;
  ingest::WireSample batch[16];

  AllocSpan span;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (uint64_t i = 0; i < 48; ++i) {
      sample.tenant_id = i;
      // dbscale-lint: allow(discarded-status)
      (void)ring.TryPush(sample);
    }
    ingest::WireSample out;
    for (int i = 0; i < 16; ++i) {
      // dbscale-lint: allow(discarded-status)
      (void)ring.TryPop(&out);
    }
    while (ring.PopBatch(batch, 16) > 0) {
    }
  }
  // Overflow the ring so the rejection path is measured too.
  for (uint64_t i = 0; i < 100; ++i) {
    // dbscale-lint: allow(discarded-status)
    (void)ring.TryPush(sample);
  }
  EXPECT_EQ(span.allocations(), 0u) << "IngestRing push/pop path allocated";
}

TEST(AllocGuardTest, IngestProducerPublishIsAllocationFree) {
  ingest::IngestRing ring(ingest::IngestRingOptions{.capacity = 256});
  fault::FaultPlanOptions options;
  options.telemetry.drop_probability = 0.1;
  options.telemetry.nan_probability = 0.05;
  options.telemetry.outlier_probability = 0.05;
  options.telemetry.stale_probability = 0.1;
  fault::FaultPlan plan(options, Rng(17));
  ingest::IngestProducer producer(&ring, 0, &plan);
  const TelemetrySample sample = MakeSample(3);
  ingest::WireSample drained[64];

  AllocSpan span;
  for (int i = 0; i < 1000; ++i) {
    // dbscale-lint: allow(discarded-status)
    (void)producer.Publish(1, sample);
    if (ring.ApproxDepth() > 128) {
      while (ring.PopBatch(drained, 64) > 0) {
      }
    }
  }
  EXPECT_EQ(span.allocations(), 0u)
      << "producer publish path allocated (faults included)";
}

TEST(AllocGuardTest, StoreAppendSteadyStateIsAllocationFree) {
  TelemetryStore store(/*max_samples=*/32);
  // Growth phase: the backing vector expands up to retention.
  for (int i = 0; i < 32; ++i) store.Append(MakeSample(i));

  AllocSpan span;
  for (int i = 32; i < 532; ++i) store.Append(MakeSample(i));
  EXPECT_EQ(span.allocations(), 0u)
      << "TelemetryStore::Append allocated at capacity (ring should "
         "recycle slots in place)";
  EXPECT_EQ(store.size(), 32u);
}

/// 16 Auto tenants fed through producer, ring and service one sample each
/// per round: `warm` rounds, then 64 measured ones. Returns the measured
/// rounds' heap allocations and counter deltas.
struct WarmDrain {
  static constexpr uint64_t kTenants = 16;
  static constexpr int kRounds = 64;
  size_t allocations = 0;
  uint64_t routed = 0;
  uint64_t decisions = 0;
  ingest::IngestCounters totals;
};

WarmDrain MeasureWarmDrain(size_t samples_per_interval,
                           const scaler::TenantKnobs& knobs, int warm) {
  const container::Catalog catalog = container::Catalog::MakeLockStep();
  ingest::IngestRing ring(ingest::IngestRingOptions{.capacity = 1024});
  ingest::ScalerServiceOptions options;
  options.store_retention = 32;
  options.samples_per_interval = samples_per_interval;
  options.max_drain_batch = 256;
  ingest::ScalerService service(&ring, options);
  for (uint64_t t = 1; t <= WarmDrain::kTenants; ++t) {
    auto policy = scaler::AutoScaler::Create(catalog, knobs);
    DBSCALE_CHECK_OK(policy.status());
    DBSCALE_CHECK_OK(
        service.AddTenant(t, std::move(policy).value(), catalog.rung(4)));
  }
  ingest::IngestProducer producer(&ring, 0);
  auto feed_round = [&](int i) {
    TelemetrySample sample = MakeSample(i);
    sample.allocation = catalog.rung(4).resources;
    sample.container_id = catalog.rung(4).id;
    for (uint64_t t = 1; t <= WarmDrain::kTenants; ++t) {
      // dbscale-lint: allow(discarded-status)
      (void)producer.Publish(t, sample);
    }
    // dbscale-lint: allow(discarded-status)
    (void)service.DrainAll();
  };
  for (int i = 0; i < warm; ++i) feed_round(i);
  const ingest::IngestCounters before = service.counters();

  WarmDrain out;
  AllocSpan span;
  for (int i = warm; i < warm + WarmDrain::kRounds; ++i) feed_round(i);
  out.allocations = span.allocations();
  out.totals = service.counters();
  out.routed = out.totals.routed - before.routed;
  out.decisions = out.totals.decisions - before.decisions;
  return out;
}

// The service's telemetry path between billing boundaries: publish, drain
// and route into every tenant's store, with no decision due. Once each
// store is at retention (32 samples, warmed past) and the drain scratch is
// sized, it is heap-free.
TEST(AllocGuardTest, WarmServiceDrainIsAllocationFree) {
  const WarmDrain d = MeasureWarmDrain(size_t{1} << 30,  // never due
                                       scaler::TenantKnobs{}, 32 + 8);
  EXPECT_EQ(d.allocations, 0u)
      << "warm ScalerService publish/drain/route allocated";
  EXPECT_EQ(d.routed, WarmDrain::kRounds * WarmDrain::kTenants);
  EXPECT_EQ(d.totals.decisions, 0u);
  EXPECT_EQ(d.totals.invalid, 0u);
}

// The same path when decisions are due: Compute plus each tenant's Auto
// Decide. Once every store is at retention and every policy's audit log is
// full, a drain that decides is heap-free too.
TEST(AllocGuardTest, WarmDecidingServiceDrainIsAllocationFree) {
  constexpr int kSamplesPerInterval = 4;
  scaler::TenantKnobs knobs;
  knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 60.0};
  // Warm-up: past the audit log's capacity in decisions per tenant.
  const int warm = kSamplesPerInterval *
                   static_cast<int>(scaler::AuditLog::kDefaultCapacity + 8);
  const WarmDrain d = MeasureWarmDrain(kSamplesPerInterval, knobs, warm);
  EXPECT_EQ(d.allocations, 0u)
      << "warm ScalerService drain with decisions allocated";
  EXPECT_EQ(d.decisions, WarmDrain::kRounds / kSamplesPerInterval *
                             WarmDrain::kTenants);
  EXPECT_EQ(d.totals.invalid, 0u);
}

// The same at hourly billing, where routing stores only the newest 24
// samples of each 720-sample interval: the measured rounds straddle one
// boundary, so every tenant routes elided and stored samples and decides.
TEST(AllocGuardTest, WarmElidedDecidingServiceDrainIsAllocationFree) {
  constexpr int kSamplesPerInterval = 720;
  scaler::TenantKnobs knobs;
  knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 60.0};
  const int warm = kSamplesPerInterval *
                       static_cast<int>(scaler::AuditLog::kDefaultCapacity + 8) -
                   WarmDrain::kRounds / 2;
  const WarmDrain d = MeasureWarmDrain(kSamplesPerInterval, knobs, warm);
  EXPECT_EQ(d.allocations, 0u)
      << "warm ScalerService drain with elided samples and decisions "
         "allocated";
  EXPECT_EQ(d.decisions, WarmDrain::kTenants);
  EXPECT_EQ(d.totals.invalid, 0u);
}

TEST(AllocGuardTest, StoreAppendGrowthPhaseAllocates) {
  // Negative control for the leg above: while the ring is still growing
  // toward retention, Append IS expected to allocate.
  TelemetryStore store(/*max_samples=*/1024);
  AllocSpan span;
  for (int i = 0; i < 1024; ++i) store.Append(MakeSample(i));
  EXPECT_GT(span.allocations(), 0u);
}

namespace batch_eval_policies {

/// Alloc-free policy: echoes the current container with a code-only
/// explanation (no heap traffic).
class FixedPolicy : public scaler::ScalingPolicy {
 public:
  scaler::ScalingDecision Decide(const scaler::PolicyInput& input) override {
    scaler::ScalingDecision d;
    d.target = input.current;
    d.explanation = scaler::Explanation(scaler::ExplanationCode::kNote);
    return d;
  }
  std::string name() const override { return "Fixed"; }
};

/// Negative control: a policy that heap-allocates inside Decide.
class AllocatingPolicy : public scaler::ScalingPolicy {
 public:
  scaler::ScalingDecision Decide(const scaler::PolicyInput& input) override {
    scaler::ScalingDecision d;
    d.target = input.current;
    d.explanation = scaler::Explanation(scaler::ExplanationCode::kNote);
    note_ = std::string(128, 'x');  // forces a heap string
    return d;
  }
  std::string name() const override { return "Allocating"; }

 private:
  std::string note_;
};

}  // namespace batch_eval_policies

TEST(AllocGuardTest, DecideBatchMachineryIsAllocationFree) {
  constexpr size_t kSlots = 32;
  std::vector<batch_eval_policies::FixedPolicy> policies(kSlots);
  std::vector<scaler::DecisionSlot> slots(kSlots);
  for (size_t i = 0; i < kSlots; ++i) {
    slots[i].policy = &policies[i];
    slots[i].input.interval_index = static_cast<int>(i);
  }
  // Warm-up pass (first Decide may touch cold paths).
  scaler::DecideBatch(slots.data(), kSlots, nullptr);

  AllocSpan span;
  for (int round = 0; round < 100; ++round) {
    scaler::DecideBatch(slots.data(), kSlots, nullptr);
  }
  EXPECT_EQ(span.allocations(), 0u)
      << "DecideBatch machinery allocated with an alloc-free policy";
}

TEST(AllocGuardTest, DecideBatchAllocatingPolicyIsObserved) {
  // Proves the leg above is not vacuous: the same machinery with an
  // allocating policy shows heap traffic on this thread.
  constexpr size_t kSlots = 8;
  std::vector<batch_eval_policies::AllocatingPolicy> policies(kSlots);
  std::vector<scaler::DecisionSlot> slots(kSlots);
  for (size_t i = 0; i < kSlots; ++i) slots[i].policy = &policies[i];
  scaler::DecideBatch(slots.data(), kSlots, nullptr);

  AllocSpan span;
  scaler::DecideBatch(slots.data(), kSlots, nullptr);
  EXPECT_GT(span.allocations(), 0u);
}

// -------- Decision legs: Auto and Diagonal once their audit log is full ----

/// Wraps a policy in a closed loop and counts the heap allocations of every
/// Decide made after the first `warm` ones, with the explanations those
/// decisions carried.
class AllocCountingPolicy : public scaler::ScalingPolicy {
 public:
  AllocCountingPolicy(scaler::ScalingPolicy* inner, int warm)
      : inner_(inner), warm_(warm) {}

  scaler::ScalingDecision Decide(const scaler::PolicyInput& input) override {
    AllocSpan span;
    scaler::ScalingDecision d = inner_->Decide(input);
    const size_t allocations = span.allocations();
    if (decisions_++ < warm_) return d;
    allocations_ += allocations;
    ++measured_;
    const scaler::Explanation& e = d.explanation;
    seen_[static_cast<size_t>(e.code)] = true;
    if (e.code == scaler::ExplanationCode::kScaleDownForcedByBudget) {
      seen_[static_cast<size_t>(e.overridden)] = true;
    }
    if (d.Changed(input.current)) {
      up_summary_ |= e.detail == scaler::DetailKind::kIncrease;
      down_summary_ |= e.detail == scaler::DetailKind::kDecrease;
    }
    return d;
  }
  std::string name() const override { return inner_->name(); }

  bool Saw(scaler::ExplanationCode code) const {
    return seen_[static_cast<size_t>(code)];
  }
  std::string Seen() const {
    std::string out;
    for (size_t c = 0; c < seen_.size(); ++c) {
      if (!seen_[c]) continue;
      out += scaler::ExplanationCodeToken(static_cast<scaler::ExplanationCode>(c));
      out += ' ';
    }
    return out;
  }

  scaler::ScalingPolicy* inner_;
  int warm_;
  int decisions_ = 0;
  int measured_ = 0;
  size_t allocations_ = 0;
  std::array<bool, scaler::kNumExplanationCodes> seen_{};
  bool up_summary_ = false;
  bool down_summary_ = false;
};

/// A closed loop that reaches every guardrail branch well past the audit
/// log's capacity: trace 4's bursts scale up and down, a budget of
/// `budget_per_interval` clamps, and resize faults fail (retries) and
/// reject. Every interval's bill fits the bucket here: a bill above it (a
/// forced shrink whose resize failed) fails the charge, which logs an error
/// and so allocates.
SimConfig GuardrailLoopConfig(const container::Catalog& catalog,
                              double budget_per_interval) {
  SimConfig config;
  config.simulation.catalog = catalog;
  config.simulation.workload = workload::MakeCpuioWorkload();
  config.simulation.trace = *workload::MakeTrace4ManyBursts().Subsampled(2);
  config.simulation.interval_duration = Duration::Seconds(20);
  config.simulation.seed = 5;
  config.simulation.initial_rung = 3;
  config.simulation.fault.resize.failure_probability = 0.15;
  config.simulation.fault.resize.rejection_probability = 0.1;
  const int n = static_cast<int>(config.simulation.trace.num_steps());
  config.knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 1200.0};
  config.knobs.budget = scaler::BudgetKnob{budget_per_interval * n, n};
  return config;
}

void ExpectDecideAllocationFree(const SimConfig& config,
                                scaler::ScalingPolicy* policy) {
  ASSERT_TRUE(config.Validate().ok());
  const int warm = static_cast<int>(scaler::AuditLog::kDefaultCapacity) + 1;
  AllocCountingPolicy counting(policy, warm);
  auto run =
      sim::Simulation(config.EffectiveSimulationOptions()).Run(&counting);
  ASSERT_TRUE(run.ok()) << run.status().message();
  ASSERT_GT(counting.measured_, 200);
  EXPECT_EQ(counting.allocations_, 0u)
      << policy->name() << "::Decide allocated over " << counting.measured_
      << " decisions past a full audit log";
  // The measured decisions cover the composed explanations and the
  // guardrails: summaries both ways, the goal-met hold, a budget clamp,
  // a retry and a rejection hold.
  const std::string seen = counting.Seen();
  EXPECT_TRUE(counting.up_summary_) << seen;
  EXPECT_TRUE(counting.down_summary_) << seen;
  EXPECT_TRUE(counting.Saw(scaler::ExplanationCode::kHoldGoalMetSavings))
      << seen;
  EXPECT_TRUE(counting.Saw(scaler::ExplanationCode::kScaleDownForcedByBudget))
      << seen;
  EXPECT_TRUE(counting.Saw(scaler::ExplanationCode::kScaleRetryResize))
      << seen;
  EXPECT_TRUE(counting.Saw(scaler::ExplanationCode::kHoldResizeRejected))
      << seen;
}

TEST(AllocGuardTest, AutoScalerDecideIsAllocationFreeOnceAuditIsFull) {
  const SimConfig config =
      GuardrailLoopConfig(container::Catalog::MakeLockStep(), 85.0);
  auto policy = scaler::AutoScaler::Create(config.simulation.catalog,
                                           config.knobs, config.scaler);
  ASSERT_TRUE(policy.ok());
  ExpectDecideAllocationFree(config, policy->get());
}

TEST(AllocGuardTest, DiagonalScalerDecideIsAllocationFreeOnceAuditIsFull) {
  container::FlexibleCatalogOptions fopts;
  fopts.subdivisions = 1;
  auto flexible = container::Catalog::MakeFlexible(fopts);
  ASSERT_TRUE(flexible.ok());
  const SimConfig config = GuardrailLoopConfig(*flexible, 55.0);
  auto policy = scaler::DiagonalScaler::Create(*flexible, config.knobs,
                                               config.scaler);
  ASSERT_TRUE(policy.ok());
  ExpectDecideAllocationFree(config, policy->get());
}

// -------- Audit bytes: a policy's heap is flat once its log is full --------

/// Heap bytes in use, as perfbench's HeapInUseBytes reads them.
size_t HeapInUseBytes() { return mallinfo2().uordblks; }

/// Decides intervals [first, first + n) on synthetic signals that swing
/// load and latency around a 60 ms goal, applying each decided target.
void DriveDecisions(scaler::ScalingPolicy* policy,
                    container::ContainerSpec* current, int first, int n) {
  for (int i = first; i < first + n; ++i) {
    scaler::PolicyInput input;
    input.now = SimTime::Zero() + Duration::Seconds(20.0 * (i + 1));
    input.interval_index = i;
    input.current = *current;
    input.charged_cost = current->price_per_interval;
    telemetry::SignalSnapshot& s = input.signals;
    s.valid = true;
    s.latency_ms = (i / 16) % 2 == 0 ? 40.0 : 95.0;
    s.allocation = current->resources;
    s.total_wait_ms = 400.0;
    for (container::ResourceKind kind : container::kAllResources) {
      const int r = static_cast<int>(kind);
      telemetry::ResourceSignals& rs = s.resources[static_cast<size_t>(r)];
      rs.utilization_pct = 10.0 + 40.0 * ((i / 8 + r) % 3);
      rs.wait_ms_per_request = 2.0 + 30.0 * ((i / 8 + r) % 3);
      rs.wait_pct = 20.0 + 15.0 * ((i / 8 + r) % 3);
    }
    s.wait_pct_by_class[static_cast<size_t>((i / 8) % 8)] = 60.0;
    const scaler::ScalingDecision d = policy->Decide(input);
    *current = d.target;
  }
}

// Each policy's heap grows by at most one ~200-B record per decision until
// its audit log holds kDefaultCapacity records, and not at all after: the
// bytes after 10x the capacity equal those after 1x.
TEST(AllocGuardTest, PolicyHeapIsFlatOnceAuditIsFull) {
  constexpr int kCapacity =
      static_cast<int>(scaler::AuditLog::kDefaultCapacity);
  constexpr size_t kMaxBytesPerDecision = 216;
  container::FlexibleCatalogOptions fopts;
  fopts.subdivisions = 1;
  auto flexible = container::Catalog::MakeFlexible(fopts);
  ASSERT_TRUE(flexible.ok());
  const container::Catalog lockstep = container::Catalog::MakeLockStep();
  scaler::TenantKnobs knobs;
  knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 60.0};
  for (const bool diagonal : {false, true}) {
    const container::Catalog& catalog = diagonal ? *flexible : lockstep;
    std::unique_ptr<scaler::ScalingPolicy> policy;
    const scaler::AuditLog* audit = nullptr;
    if (diagonal) {
      auto made = scaler::DiagonalScaler::Create(catalog, knobs);
      ASSERT_TRUE(made.ok());
      audit = &(*made)->audit();
      policy = std::move(made).value();
    } else {
      auto made = scaler::AutoScaler::Create(catalog, knobs);
      ASSERT_TRUE(made.ok());
      audit = &(*made)->audit();
      policy = std::move(made).value();
    }
    container::ContainerSpec current = catalog.rung(3);
    const size_t start = HeapInUseBytes();
    DriveDecisions(policy.get(), &current, 0, kCapacity);
    const size_t at_capacity = HeapInUseBytes();
    DriveDecisions(policy.get(), &current, kCapacity, 9 * kCapacity);
    const size_t at_10x = HeapInUseBytes();

    const char* name = diagonal ? "Diagonal" : "Auto";
    EXPECT_EQ(audit->size(), static_cast<size_t>(kCapacity)) << name;
    EXPECT_EQ(at_10x, at_capacity) << name;
    EXPECT_LE(at_capacity - start, kMaxBytesPerDecision * kCapacity)
        << name << ": " << (at_capacity - start) / kCapacity
        << " B per decision";
  }
}

// -------- PR-9 host legs: placement scans and interference kernel --------

// The host plane's per-interval kernels run once per interval per fleet
// (interference) and once per scale-up (fit checks, destination scans), so
// they must never touch the heap after construction.
TEST(AllocGuardTest, HostMapHotPathsAreAllocationFree) {
  host::HostOptions options;
  options.num_hosts = 64;
  options.background.cpu_cores = 2.0;
  options.hot_hosts = 16;
  options.hot_extra.cpu_cores = 6.0;
  host::HostMap map(options);
  const container::ResourceVector bundle{3.0, 4096.0, 300.0, 12.0};
  const container::ResourceVector big{6.0, 16384.0, 800.0, 32.0};
  const container::ResourceVector delta = host::UpDelta(bundle, big);
  for (int id = 0; id < map.num_hosts(); ++id) {
    map.Place(id % map.num_hosts(), bundle);
  }
  auto first = host::MakePlacementPolicy(host::PlacementPolicyKind::kFirstFit);
  auto best = host::MakePlacementPolicy(host::PlacementPolicyKind::kBestFit);
  std::vector<double> demand(static_cast<size_t>(map.num_hosts()), 9.0);

  AllocSpan span;
  for (int i = 0; i < 200; ++i) {
    const int id = i % map.num_hosts();
    // dbscale-lint: allow(discarded-status)
    (void)map.FitsOn(id, delta);
    // dbscale-lint: allow(discarded-status)
    (void)first->ChooseHost(map, big, id);
    // dbscale-lint: allow(discarded-status)
    (void)best->ChooseHost(map, big, id);
    map.ReserveLocal(id, delta);
    map.CommitLocal(id, delta, bundle, big);
    map.ReserveLocal(id, host::UpDelta(big, bundle));
    map.CommitLocal(id, host::UpDelta(big, bundle), big, bundle);
    map.UpdateInterference(demand);
    // dbscale-lint: allow(discarded-status)
    (void)map.Digest();
  }
  EXPECT_EQ(span.allocations(), 0u)
      << "HostMap hot paths allocated in steady state";
}

TEST(AllocGuardTest, DiagonalOptimizerSolveIsAllocationFree) {
  container::FlexibleCatalogOptions fopts;
  fopts.subdivisions = 3;  // largest grid: worst case for the search
  auto flexible = container::Catalog::MakeFlexible(fopts);
  ASSERT_TRUE(flexible.ok());
  const container::Catalog fixed = container::Catalog::MakePerDimension();
  const scaler::DiagonalOptimizer flex_opt(*flexible);
  const scaler::DiagonalOptimizer fixed_opt(fixed);
  const container::ResourceVector top = flexible->largest().resources;

  AllocSpan span;
  for (int i = 0; i < 100; ++i) {
    container::ResourceVector demand;
    for (container::ResourceKind kind : container::kAllResources) {
      const double frac = 0.01 * static_cast<double>((i * 13) % 100);
      demand.Set(kind, frac * top.Get(kind));
    }
    // Unbudgeted fast path, tight-budget branch-and-bound, and the fixed
    // catalog's spec scan must all run without touching the heap.
    const auto unbudgeted =
        flex_opt.Solve(demand, std::numeric_limits<double>::infinity());
    const auto tight = flex_opt.Solve(demand, 20.0 + i);
    const auto listed = fixed_opt.Solve(demand, 20.0 + i);
    ASSERT_TRUE(unbudgeted.feasible);
    ASSERT_LE(tight.shortfall_steps + listed.shortfall_steps, 1000);
  }
  EXPECT_EQ(span.allocations(), 0u)
      << "DiagonalOptimizer::Solve allocated in steady state";
}

TEST(AllocGuardTest, AsciiChartIntoWithWarmBuffersIsAllocationFree) {
  std::vector<double> values;
  values.reserve(200);
  for (int i = 0; i < 200; ++i) {
    values.push_back(static_cast<double>((i * 13) % 50));
  }
  sim::ReportScratch scratch;
  std::string out;
  sim::AsciiChartInto(values, out, 8, 120, &scratch);

  AllocSpan span;
  out.clear();
  sim::AsciiChartInto(values, out, 8, 120, &scratch);
  EXPECT_EQ(span.allocations(), 0u)
      << "AsciiChartInto allocated with warm scratch";
  EXPECT_FALSE(out.empty());
}

// ---------------------------------------------------------------------------
// The discrete-event engine: events are plain records on a flat heap and
// request state lives in recycled slabs, so once a run has reached its
// high-water marks (heap size, requests and jobs in flight, waiter rings)
// the engine and its generator make no heap allocation at all.
// ---------------------------------------------------------------------------

/// An engine driven by a generator over a constant trace.
struct EngineRig {
  EngineRig(workload::WorkloadSpec spec, double rate, int rung,
            workload::ArrivalMode mode, Duration lock_timeout)
      : catalog(container::Catalog::MakeLockStep()) {
    engine::EngineOptions options = spec.MakeEngineOptions();
    options.lock_timeout = lock_timeout;
    db = std::make_unique<engine::DatabaseEngine>(&events, options,
                                                  catalog.rung(rung), Rng(3));
    db->PrewarmBufferPool();
    workload::GeneratorOptions gen;
    gen.mode = mode;
    gen.max_in_flight = 400;
    generator = std::make_unique<workload::RequestGenerator>(
        db.get(), spec, workload::Trace("steady", std::vector<double>(60, rate)),
        gen, Rng(4));
    generator->Start();
  }

  /// Runs until `until` and returns the events that ran meanwhile.
  uint64_t RunTo(double seconds) {
    const uint64_t before = events.events_processed();
    events.RunUntil(SimTime::Zero() + Duration::Seconds(seconds));
    return events.events_processed() - before;
  }

  container::Catalog catalog;
  engine::EventQueue events;
  std::unique_ptr<engine::DatabaseEngine> db;
  std::unique_ptr<workload::RequestGenerator> generator;
};

TEST(AllocGuardTest, WarmOpenLoopEngineIsAllocationFree) {
  EngineRig rig(workload::MakeCpuioWorkload(), 60.0, 6,
                workload::ArrivalMode::kOpenLoop, Duration::Seconds(10));
  ASSERT_GT(rig.RunTo(300.0), 0u);  // warm-up: reach the high-water marks
  AllocSpan span;
  const uint64_t events = rig.RunTo(1200.0);
  EXPECT_EQ(span.allocations(), 0u) << "warm open-loop engine allocated";
  EXPECT_GE(events, 100000u);
}

// Hot-row locks with think time held under the lock and a timeout short
// enough that queued transactions abort: the ticketed timeout records and
// the per-row waiter rings stay off the heap too.
TEST(AllocGuardTest, WarmLockBoundTpccEngineIsAllocationFree) {
  EngineRig rig(workload::MakeTpccWorkload(), 120.0, 3,
                workload::ArrivalMode::kOpenLoop, Duration::Millis(150));
  ASSERT_GT(rig.RunTo(300.0), 0u);
  const uint64_t timeouts = rig.db->lock_manager().timeouts();
  AllocSpan span;
  const uint64_t events = rig.RunTo(1200.0);
  EXPECT_EQ(span.allocations(), 0u) << "warm lock-bound engine allocated";
  EXPECT_GE(events, 100000u);
  EXPECT_GT(rig.db->lock_manager().timeouts(), timeouts);
}

TEST(AllocGuardTest, WarmClosedLoopEngineIsAllocationFree) {
  EngineRig rig(workload::MakeCpuioWorkload(), 24.0, 4,
                workload::ArrivalMode::kClosedLoop, Duration::Seconds(10));
  ASSERT_GT(rig.RunTo(300.0), 0u);
  AllocSpan span;
  const uint64_t events = rig.RunTo(1200.0);
  EXPECT_EQ(span.allocations(), 0u) << "warm closed-loop engine allocated";
  EXPECT_GE(events, 100000u);
}

// Negative control for the three legs above: the same warm engine plus a
// handler that boxes a closure into a std::function at every event, as a
// per-event lambda would be; the capture is too large for std::function's
// inline buffer.
class ClosureBoxingTicker final : public engine::EventHandler {
 public:
  explicit ClosureBoxingTicker(engine::EventQueue* events)
      : events_(events), target_(events->AddHandler(this)) {}

  void Tick() {
    events_->Schedule(events_->Now() + Duration::Seconds(1), target_,
                      /*kind=*/0);
  }

  void OnEvent(const engine::Event& /*event*/) override {
    const std::array<double, 4> payload{1.0, 2.0, 3.0, 4.0};
    next_ = [this, payload] {
      if (payload[0] > 0.0) Tick();
    };
    next_();
  }

 private:
  engine::EventQueue* events_;
  uint16_t target_;
  std::function<void()> next_;
};

TEST(AllocGuardTest, EngineWithHeapCapturingEventsAllocates) {
  EngineRig rig(workload::MakeCpuioWorkload(), 60.0, 6,
                workload::ArrivalMode::kOpenLoop, Duration::Seconds(10));
  ASSERT_GT(rig.RunTo(300.0), 0u);
  ClosureBoxingTicker ticker(&rig.events);
  ticker.Tick();
  AllocSpan span;
  rig.RunTo(400.0);
  EXPECT_GE(span.allocations(), 100u);
}

}  // namespace
}  // namespace dbscale
