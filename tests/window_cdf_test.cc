#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/stats/cdf.h"
#include "src/stats/robust.h"

namespace dbscale::stats {
namespace {

TEST(EmpiricalCdfTest, FractionAtOrBelow) {
  EmpiricalCdf cdf({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(0).value(), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2).value(), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2.5).value(), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(100).value(), 1.0);
}

TEST(EmpiricalCdfTest, AddThenQuery) {
  EmpiricalCdf cdf;
  EXPECT_FALSE(cdf.FractionAtOrBelow(1).ok());
  for (int i = 1; i <= 100; ++i) cdf.Add(i);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(50).value(), 0.5);
  EXPECT_NEAR(cdf.ValueAtPercentile(95).value(), 95.0, 1.0);
}

TEST(EmpiricalCdfTest, InterleavedAddAndQuery) {
  EmpiricalCdf cdf({5, 1});
  EXPECT_DOUBLE_EQ(cdf.ValueAtPercentile(0).value(), 1.0);
  cdf.Add(0.5);
  EXPECT_DOUBLE_EQ(cdf.ValueAtPercentile(0).value(), 0.5);
}

TEST(EmpiricalCdfTest, CurvePoints) {
  EmpiricalCdf cdf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  auto points = cdf.CurvePoints(5).value();
  ASSERT_EQ(points.size(), 5u);
  EXPECT_LE(points.front().first, points.back().first);
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
  EXPECT_FALSE(cdf.CurvePoints(1).ok());
}

TEST(LatencyHistogramTest, CountSumMeanMax) {
  LatencyHistogram h;
  h.Add(10);
  h.Add(20);
  h.Add(30);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 60.0);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 30.0);
}

TEST(LatencyHistogramTest, PercentileBoundedRelativeError) {
  Rng rng(21);
  LatencyHistogram h(0.01, 1e7, 48);
  std::vector<double> exact;
  for (int i = 0; i < 50000; ++i) {
    double v = rng.LogNormal(3.0, 1.5);
    h.Add(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  for (double p : {50.0, 90.0, 95.0, 99.0}) {
    double approx = h.ValueAtPercentile(p);
    double truth = PercentileSorted(exact, p);
    EXPECT_NEAR(approx / truth, 1.0, 0.06) << "p" << p;
  }
}

TEST(LatencyHistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.ValueAtPercentile(95), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogramTest, PercentileNeverExceedsMax) {
  LatencyHistogram h;
  h.Add(123.0);
  EXPECT_DOUBLE_EQ(h.ValueAtPercentile(100), 123.0);
  EXPECT_LE(h.ValueAtPercentile(99), 123.0);
}

TEST(LatencyHistogramTest, ClampsOutOfRangeValues) {
  LatencyHistogram h(1.0, 1000.0, 10);
  h.Add(0.0001);  // below min -> first bucket
  h.Add(1e9);     // above max -> last bucket
  EXPECT_EQ(h.count(), 2);
  EXPECT_GT(h.ValueAtPercentile(99), 100.0);
}

TEST(LatencyHistogramTest, MergeAccumulates) {
  LatencyHistogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.max_seen(), 1000.0);
  EXPECT_GT(a.ValueAtPercentile(99), 500.0);
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Add(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 0.0);
}

}  // namespace
}  // namespace dbscale::stats
