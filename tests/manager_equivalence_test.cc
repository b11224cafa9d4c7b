// Equivalence suite for the signal path (telemetry/manager.cc).
//
// Two contracts, both asserted with exact equality (EXPECT_EQ on raw
// doubles, never a tolerance):
//   * Compute against a test-local naive reference that copies every
//     window into fresh vectors and runs the textbook kernels — a sort
//     and an order statistic for each median, TheilSenEstimator::Fit with
//     an explicit x = 0..n-1, SpearmanCorrelation without scratch — over
//     tens of thousands of seeded windows with idle samples, ties, signed
//     zeros, constant stretches and gapped (degraded) windows;
//   * Compute with a reused scratch against Compute with call-local
//     buffers (nullptr), across clears, retention gaps, windows larger
//     than retention, and one scratch shared by several stores — the
//     property that lets one scratch serve every tenant of a worker.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/stats/robust.h"
#include "src/stats/spearman.h"
#include "src/stats/theil_sen.h"
#include "src/telemetry/manager.h"
#include "src/telemetry/sample.h"
#include "src/telemetry/store.h"

namespace dbscale {
namespace {

using container::ResourceKind;
using stats::TheilSenEstimator;
using stats::TrendResult;
using telemetry::LatencyAggregate;
using telemetry::ResourceSignals;
using telemetry::SampleRow;
using telemetry::SignalScratch;
using telemetry::SignalSnapshot;
using telemetry::TelemetryManager;
using telemetry::TelemetryManagerOptions;
using telemetry::TelemetrySample;
using telemetry::TelemetryStore;

// ---------------------------------------------------------------------------
// The naive reference.
// ---------------------------------------------------------------------------

/// Median of a fresh copy by sorting; 0 for an empty window.
double SortedMedianOrZero(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return stats::PercentileSorted(values, 50.0);
}

TrendResult ReferenceTrend(const TheilSenEstimator& estimator,
                           const std::vector<double>& y) {
  if (y.size() < 3) return TrendResult{};
  std::vector<double> x;
  for (size_t i = 0; i < y.size(); ++i) x.push_back(static_cast<double>(i));
  auto fit = estimator.Fit(x, y);
  return fit.ok() ? *fit : TrendResult{};
}

double ReferenceCorrelation(const std::vector<double>& x,
                            const std::vector<double>& y) {
  if (x.size() < 3 || x.size() != y.size()) return 0.0;
  auto rho = stats::SpearmanCorrelation(x, y);
  return rho.ok() ? *rho : 0.0;
}

double ResourceWait(const SampleRow& s, ResourceKind kind) {
  const auto mask = telemetry::WaitClassesForResource(kind);
  double total = 0.0;
  for (size_t wc = 0; wc < telemetry::kNumWaitClasses; ++wc) {
    if (mask[wc]) total += s.wait_ms[wc];
  }
  return total;
}

/// The last `n` retained samples, oldest first, copied out of the store.
std::vector<SampleRow> Window(const TelemetryStore& store, size_t n) {
  std::vector<SampleRow> out;
  const size_t start = store.size() > n ? store.size() - n : 0;
  for (size_t i = start; i < store.size(); ++i) out.push_back(store.at(i));
  return out;
}

SignalSnapshot ReferenceSnapshot(const TelemetryStore& store, SimTime now,
                                 const TelemetryManagerOptions& options) {
  SignalSnapshot snap;
  snap.time = now;
  snap.latency_aggregate = options.latency_aggregate;
  if (store.size() < 2) return snap;
  snap.valid = true;
  const TheilSenEstimator estimator(options.trend_accept_fraction);
  const auto latency = [&](const SampleRow& s) {
    return options.latency_aggregate == LatencyAggregate::kAverage
               ? s.latency_avg_ms
               : s.latency_p95_ms;
  };
  const std::vector<SampleRow> agg =
      Window(store, options.aggregation_samples);
  const std::vector<SampleRow> trend = Window(store, options.trend_samples);
  const std::vector<SampleRow> corr =
      Window(store, options.correlation_samples);

  if (agg.size() >= 2) {
    double covered = 0.0;
    for (const SampleRow& s : agg) covered += s.duration_sec();
    const double span =
        (agg.back().period_end - agg.front().period_start).ToSeconds();
    snap.confidence = span > covered ? covered / span : 1.0;
  }
  snap.degraded = snap.confidence < options.min_confidence;

  // Idle samples (no completions) carry no latency for the aggregate and
  // the trend; the correlation window keeps them.
  std::vector<double> lat_agg, lat_trend, lat_corr;
  for (const SampleRow& s : agg) {
    if (s.requests_completed > 0) lat_agg.push_back(latency(s));
  }
  for (const SampleRow& s : trend) {
    if (s.requests_completed > 0) lat_trend.push_back(latency(s));
  }
  for (const SampleRow& s : corr) lat_corr.push_back(latency(s));
  snap.latency_ms = SortedMedianOrZero(lat_agg);
  snap.latency_trend = ReferenceTrend(estimator, lat_trend);

  std::vector<double> thr, mem, reads, total_wait;
  std::array<double, telemetry::kNumWaitClasses> class_sums{};
  double grand_total = 0.0;
  for (const SampleRow& s : agg) {
    thr.push_back(s.throughput_rps());
    mem.push_back(s.memory_used_mb);
    const double sec = s.duration_sec();
    reads.push_back(sec > 0 ? static_cast<double>(s.physical_reads) / sec
                            : 0.0);
    total_wait.push_back(s.total_wait_ms());
    for (size_t wc = 0; wc < telemetry::kNumWaitClasses; ++wc) {
      class_sums[wc] += s.wait_ms[wc];
      grand_total += s.wait_ms[wc];
    }
  }
  snap.throughput_rps = SortedMedianOrZero(thr);
  snap.memory_used_mb = SortedMedianOrZero(mem);
  snap.physical_reads_per_sec = SortedMedianOrZero(reads);
  snap.total_wait_ms = SortedMedianOrZero(total_wait);
  snap.allocation = store.allocation();
  for (size_t wc = 0; wc < telemetry::kNumWaitClasses; ++wc) {
    snap.wait_pct_by_class[wc] =
        grand_total > 0.0 ? 100.0 * class_sums[wc] / grand_total : 0.0;
  }

  for (ResourceKind kind : container::kAllResources) {
    const size_t ri = static_cast<size_t>(kind);
    ResourceSignals& r = snap.resources[ri];
    std::vector<double> util, wait, wait_per_req;
    double wait_sum = 0.0, total_sum = 0.0;
    for (const SampleRow& s : agg) {
      const double w = ResourceWait(s, kind);
      util.push_back(s.utilization_pct[ri]);
      wait.push_back(w);
      wait_per_req.push_back(
          w / static_cast<double>(std::max<int64_t>(1, s.requests_completed)));
      wait_sum += w;
      total_sum += s.total_wait_ms();
    }
    r.utilization_pct = SortedMedianOrZero(util);
    r.wait_ms = SortedMedianOrZero(wait);
    r.wait_ms_per_request = SortedMedianOrZero(wait_per_req);
    r.wait_pct = total_sum > 0.0 ? 100.0 * wait_sum / total_sum : 0.0;

    std::vector<double> util_t, wait_t;
    for (const SampleRow& s : trend) {
      util_t.push_back(s.utilization_pct[ri]);
      wait_t.push_back(ResourceWait(s, kind));
    }
    r.utilization_trend = ReferenceTrend(estimator, util_t);
    r.wait_trend = ReferenceTrend(estimator, wait_t);

    std::vector<double> util_c, wait_c;
    for (const SampleRow& s : corr) {
      util_c.push_back(s.utilization_pct[ri]);
      wait_c.push_back(ResourceWait(s, kind));
    }
    r.wait_latency_correlation = ReferenceCorrelation(wait_c, lat_corr);
    r.utilization_latency_correlation = ReferenceCorrelation(util_c, lat_corr);
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Comparison and sample streams.
// ---------------------------------------------------------------------------

void ExpectTrendEq(const TrendResult& want, const TrendResult& got) {
  EXPECT_EQ(want.slope, got.slope);
  EXPECT_EQ(want.intercept, got.intercept);
  EXPECT_EQ(want.fraction_positive, got.fraction_positive);
  EXPECT_EQ(want.fraction_negative, got.fraction_negative);
  EXPECT_EQ(want.significant, got.significant);
  EXPECT_EQ(want.direction, got.direction);
}

void ExpectSnapshotEq(const SignalSnapshot& want, const SignalSnapshot& got) {
  EXPECT_EQ(want.time, got.time);
  EXPECT_EQ(want.latency_aggregate, got.latency_aggregate);
  ASSERT_EQ(want.valid, got.valid);
  if (!want.valid) return;
  EXPECT_EQ(want.latency_ms, got.latency_ms);
  ExpectTrendEq(want.latency_trend, got.latency_trend);
  EXPECT_EQ(want.throughput_rps, got.throughput_rps);
  EXPECT_EQ(want.memory_used_mb, got.memory_used_mb);
  EXPECT_EQ(want.physical_reads_per_sec, got.physical_reads_per_sec);
  EXPECT_EQ(want.total_wait_ms, got.total_wait_ms);
  EXPECT_EQ(want.allocation.cpu_cores, got.allocation.cpu_cores);
  EXPECT_EQ(want.allocation.memory_mb, got.allocation.memory_mb);
  EXPECT_EQ(want.allocation.disk_iops, got.allocation.disk_iops);
  EXPECT_EQ(want.allocation.log_mbps, got.allocation.log_mbps);
  EXPECT_EQ(want.confidence, got.confidence);
  EXPECT_EQ(want.degraded, got.degraded);
  for (size_t w = 0; w < telemetry::kNumWaitClasses; ++w) {
    EXPECT_EQ(want.wait_pct_by_class[w], got.wait_pct_by_class[w]);
  }
  for (ResourceKind kind : container::kAllResources) {
    SCOPED_TRACE(container::ResourceKindToString(kind));
    const ResourceSignals& w = want.resource(kind);
    const ResourceSignals& g = got.resource(kind);
    EXPECT_EQ(w.utilization_pct, g.utilization_pct);
    EXPECT_EQ(w.wait_ms, g.wait_ms);
    EXPECT_EQ(w.wait_ms_per_request, g.wait_ms_per_request);
    EXPECT_EQ(w.wait_pct, g.wait_pct);
    ExpectTrendEq(w.utilization_trend, g.utilization_trend);
    ExpectTrendEq(w.wait_trend, g.wait_trend);
    EXPECT_EQ(w.wait_latency_correlation, g.wait_latency_correlation);
    EXPECT_EQ(w.utilization_latency_correlation,
              g.utilization_latency_correlation);
  }
}

TelemetrySample RandomSample(Rng& rng, double start_sec, double period_sec) {
  TelemetrySample s;
  s.period_start = SimTime::Zero() + Duration::Seconds(start_sec);
  s.period_end = s.period_start + Duration::Seconds(period_sec);
  // ~10% idle samples exercise the latency filter's absent entries.
  s.requests_completed = rng.Bernoulli(0.1) ? 0 : rng.UniformInt(1, 500);
  s.requests_started = s.requests_completed;
  s.latency_avg_ms = rng.Uniform(0.5, 80.0);
  s.latency_p95_ms = s.latency_avg_ms * rng.Uniform(1.0, 4.0);
  s.memory_used_mb = rng.Uniform(100.0, 4000.0);
  s.memory_active_mb = s.memory_used_mb * rng.Uniform(0.3, 1.0);
  s.physical_reads = rng.UniformInt(0, 10000);
  for (size_t r = 0; r < container::kNumResources; ++r) {
    // Quantized utilization creates rank ties in the correlation windows.
    s.utilization_pct[r] = static_cast<double>(rng.UniformInt(0, 20)) * 5.0;
  }
  for (size_t w = 0; w < telemetry::kNumWaitClasses; ++w) {
    s.wait_ms[w] = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0.0, 900.0);
  }
  return s;
}

/// Sample stream with adversarial regimes for the order statistics, slope
/// signs and ranks: smooth random values, constant stretches (every series
/// flat), signed zeros in the waits and utilization, and dropped samples
/// that leave gaps in the timeline so windows go degraded.
class RegimeStream {
 public:
  explicit RegimeStream(uint64_t seed) : rng_(seed) {}

  /// The next sample to append; skipped periods advance the clock.
  TelemetrySample Next() {
    if (step_ % 89 == 0) regime_ = static_cast<int>(rng_.UniformInt(0, 3));
    ++step_;
    if (regime_ == 3 && rng_.Bernoulli(0.5)) {
      t_ += 5.0 * static_cast<double>(rng_.UniformInt(1, 3));  // gap
    }
    TelemetrySample s = RandomSample(rng_, t_, 5.0);
    t_ += 5.0;
    if (regime_ == 1) {
      // Constant stretch: every signal series is flat.
      s.requests_completed = 120;
      s.requests_started = 120;
      s.latency_avg_ms = 12.5;
      s.latency_p95_ms = 40.0;
      s.memory_used_mb = 1024.0;
      s.physical_reads = 600;
      s.utilization_pct.fill(55.0);
      s.wait_ms.fill(3.0);
    } else if (regime_ == 2) {
      // Signed zeros: -0.0 and +0.0 compare equal but differ in bits.
      for (double& u : s.utilization_pct) {
        if (rng_.Bernoulli(0.5)) u = rng_.Bernoulli(0.5) ? -0.0 : 0.0;
      }
      for (double& w : s.wait_ms) {
        if (rng_.Bernoulli(0.6)) w = rng_.Bernoulli(0.5) ? -0.0 : 0.0;
      }
    }
    return s;
  }

 private:
  Rng rng_;
  uint64_t step_ = 0;
  int regime_ = 0;
  double t_ = 0.0;
};

// ---------------------------------------------------------------------------
// Compute against the naive reference.
// ---------------------------------------------------------------------------

class ManagerEquivalenceTest
    : public ::testing::TestWithParam<LatencyAggregate> {};

TEST_P(ManagerEquivalenceTest, ComputeMatchesNaiveReference) {
  // Default windows (12/24/24: even counts) and odd ones, so the medians
  // exercise both the interpolated and the single-middle cases.
  TelemetryManagerOptions default_windows;
  TelemetryManagerOptions odd_windows;
  odd_windows.aggregation_samples = 11;
  odd_windows.trend_samples = 23;
  odd_windows.correlation_samples = 17;
  int windows = 0, degraded = 0, flat = 0;
  for (TelemetryManagerOptions options : {default_windows, odd_windows}) {
    options.latency_aggregate = GetParam();
    const TelemetryManager manager(options);
    SignalScratch scratch;
    TelemetryStore store(/*max_samples=*/64);
    RegimeStream stream(GetParam() == LatencyAggregate::kP95 ? 11 : 12);
    Rng burst_rng(31);
    for (int interval = 0; interval < 5000; ++interval) {
      // Callers append several samples per Compute; vary the burst, and
      // restart the store now and then to cover the warm-up windows.
      if (interval % 1000 == 999) store.Clear();
      const int burst = static_cast<int>(burst_rng.UniformInt(1, 12));
      for (int b = 0; b < burst; ++b) store.Append(stream.Next());
      SCOPED_TRACE(interval);
      const SimTime now = store.back().period_end;
      const SignalSnapshot got = manager.Compute(store, now, &scratch);
      ExpectSnapshotEq(ReferenceSnapshot(store, now, options), got);
      if (HasFailure()) return;  // one diverging window is enough to read
      ++windows;
      if (got.degraded) ++degraded;
      const TrendResult& cpu =
          got.resource(ResourceKind::kCpu).utilization_trend;
      if (got.valid && store.size() >= options.trend_samples &&
          cpu.fraction_positive == 0.0 && cpu.fraction_negative == 0.0) {
        ++flat;
      }
    }
  }
  EXPECT_GE(windows, 10000);
  // The stream must reach the cases it claims to cover.
  EXPECT_GT(degraded, 0);
  EXPECT_GT(flat, 0);
}

INSTANTIATE_TEST_SUITE_P(Aggregates, ManagerEquivalenceTest,
                         ::testing::Values(LatencyAggregate::kP95,
                                           LatencyAggregate::kAverage));

// ---------------------------------------------------------------------------
// A reused scratch against call-local buffers.
// ---------------------------------------------------------------------------

TEST(ManagerEquivalenceTest, ReusedScratchAfterClearMatchesFreshBuffers) {
  const TelemetryManager manager(TelemetryManagerOptions{});
  SignalScratch scratch;

  TelemetryStore store;
  Rng rng(13);
  double t = 0.0;
  for (int round = 0; round < 3; ++round) {
    store.Clear();
    for (int i = 0; i < 40; ++i) {
      store.Append(RandomSample(rng, t, 5.0));
      t += 5.0;
      SimTime now = store.back().period_end;
      ExpectSnapshotEq(manager.Compute(store, now, nullptr),
                       manager.Compute(store, now, &scratch));
    }
  }
}

TEST(ManagerEquivalenceTest, ReusedScratchAfterRetentionGapMatchesFreshBuffers) {
  // More samples arrive between Computes than the store retains.
  const TelemetryManager manager(TelemetryManagerOptions{});
  SignalScratch scratch;

  TelemetryStore store(/*max_samples=*/32);
  Rng rng(17);
  double t = 0.0;
  for (int round = 0; round < 10; ++round) {
    const int burst = round % 2 == 0 ? 50 : 1;  // 50 > retention
    for (int i = 0; i < burst; ++i) {
      store.Append(RandomSample(rng, t, 5.0));
      t += 5.0;
    }
    SimTime now = store.back().period_end;
    ExpectSnapshotEq(manager.Compute(store, now, nullptr),
                     manager.Compute(store, now, &scratch));
  }
}

TEST(ManagerEquivalenceTest, ReusedScratchWithWindowOverRetentionMatchesFreshBuffers) {
  TelemetryManagerOptions options;
  options.trend_samples = 64;  // larger than the store retains
  const TelemetryManager manager(options);
  SignalScratch scratch;

  TelemetryStore store(/*max_samples=*/16);
  Rng rng(19);
  double t = 0.0;
  for (int i = 0; i < 100; ++i) {
    store.Append(RandomSample(rng, t, 5.0));
    t += 5.0;
    SimTime now = store.back().period_end;
    ExpectSnapshotEq(manager.Compute(store, now, nullptr),
                     manager.Compute(store, now, &scratch));
  }
}

TEST(ManagerEquivalenceTest, SharedScratchAcrossStoresStaysCorrect) {
  // One scratch serving several stores in turn — the shape of a service
  // worker that computes for every tenant of its slice. Buffers left by
  // one store's windows must never leak into another's signals.
  const TelemetryManager manager(TelemetryManagerOptions{});
  SignalScratch scratch;

  std::array<TelemetryStore, 3> stores = {
      TelemetryStore(16), TelemetryStore(64), TelemetryStore()};
  Rng rng(23);
  double t = 0.0;
  for (int i = 0; i < 90; ++i) {
    TelemetryStore& store = stores[static_cast<size_t>(i) % stores.size()];
    store.Append(RandomSample(rng, t, 5.0));
    t += 5.0;
    SimTime now = store.back().period_end;
    ExpectSnapshotEq(manager.Compute(store, now, nullptr),
                     manager.Compute(store, now, &scratch));
  }
}

}  // namespace
}  // namespace dbscale
