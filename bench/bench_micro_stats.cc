// google-benchmark micro benchmarks for the statistics layer: the telemetry
// manager recomputes these on every decision, so their cost bounds how
// cheap the control loop can be.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/stats/cdf.h"
#include "src/stats/robust.h"
#include "src/stats/spearman.h"
#include "src/stats/theil_sen.h"

namespace dbscale::stats {
namespace {

std::vector<double> RandomSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(rng.LogNormal(2.0, 1.0));
  }
  return values;
}

void BM_Median(benchmark::State& state) {
  auto values = RandomSeries(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Median(values).value());
  }
}
BENCHMARK(BM_Median)->Arg(12)->Arg(64)->Arg(512);

// Selection as a tenant's windows meet it: every call reads a different
// window, so branches cannot learn one series (BM_Median refits one). Each
// of 4,096 pre-generated lognormal windows is copied into the work buffer,
// since selection above 32 values permutes it, and its median selected.
void BM_MedianInPlaceChangingWindows(benchmark::State& state) {
  constexpr size_t kWindows = 4096;
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> windows = RandomSeries(kWindows * n, 5);
  std::vector<double> work(n);
  size_t w = 0;
  for (auto _ : state) {
    const double* window = windows.data() + w * n;
    std::copy(window, window + n, work.begin());
    benchmark::DoNotOptimize(MedianInPlace(work).value());
    w = (w + 1) % kWindows;
  }
}
BENCHMARK(BM_MedianInPlaceChangingWindows)
    ->Arg(12)
    ->Arg(24)
    ->Arg(32)
    ->Arg(33)
    ->Arg(276);

void BM_Percentile(benchmark::State& state) {
  auto values = RandomSeries(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Percentile(values, 95.0).value());
  }
}
BENCHMARK(BM_Percentile)->Arg(64)->Arg(4096);

void BM_Mad(benchmark::State& state) {
  auto values = RandomSeries(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Mad(values).value());
  }
}
BENCHMARK(BM_Mad)->Arg(64);

void BM_TheilSen(benchmark::State& state) {
  // O(n^2) pairwise slopes: the reason trend windows stay small.
  auto values = RandomSeries(static_cast<size_t>(state.range(0)), 4);
  TheilSenEstimator estimator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.FitSequence(values));
  }
}
BENCHMARK(BM_TheilSen)->Arg(12)->Arg(24)->Arg(96);

void BM_Spearman(benchmark::State& state) {
  auto x = RandomSeries(static_cast<size_t>(state.range(0)), 5);
  auto y = RandomSeries(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpearmanCorrelation(x, y));
  }
}
BENCHMARK(BM_Spearman)->Arg(12)->Arg(24)->Arg(96);

void BM_LatencyHistogramAdd(benchmark::State& state) {
  LatencyHistogram histogram;
  Rng rng(7);
  double v = rng.LogNormal(3.0, 1.0);
  for (auto _ : state) {
    histogram.Add(v);
    benchmark::DoNotOptimize(histogram);
  }
}
BENCHMARK(BM_LatencyHistogramAdd);

void BM_LatencyHistogramPercentile(benchmark::State& state) {
  LatencyHistogram histogram;
  Rng rng(8);
  for (int i = 0; i < 100000; ++i) {
    histogram.Add(rng.LogNormal(3.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.ValueAtPercentile(95.0));
  }
}
BENCHMARK(BM_LatencyHistogramPercentile);

void BM_EmpiricalCdfBuild(benchmark::State& state) {
  auto values = RandomSeries(static_cast<size_t>(state.range(0)), 9);
  for (auto _ : state) {
    EmpiricalCdf cdf(values);
    benchmark::DoNotOptimize(cdf.ValueAtPercentile(95.0));
  }
}
BENCHMARK(BM_EmpiricalCdfBuild)->Arg(4096);

}  // namespace
}  // namespace dbscale::stats

BENCHMARK_MAIN();
