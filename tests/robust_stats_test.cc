#include "src/stats/robust.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "tests/total_order.h"

namespace dbscale::stats {
namespace {

TEST(MeanTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({-5}), -5.0);
}

TEST(StdDevTest, KnownValue) {
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(StdDev({1}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({}), 0.0);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}).value(), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}).value(), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}).value(), 7.0);
}

TEST(MedianTest, EmptyIsError) {
  EXPECT_TRUE(Median({}).status().IsInvalidArgument());
}

TEST(MedianTest, RobustToOutliers) {
  // The defining property (breakdown point): one arbitrarily large value
  // cannot move the median, while it destroys the mean.
  std::vector<double> clean = {1, 2, 3, 4, 5};
  std::vector<double> dirty = {1, 2, 3, 4, 1e12};
  EXPECT_DOUBLE_EQ(Median(clean).value(), 3.0);
  EXPECT_DOUBLE_EQ(Median(dirty).value(), 3.0);
  EXPECT_GT(Mean(dirty), 1e11);
}

TEST(PercentileTest, Interpolation) {
  std::vector<double> v = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(v, 0).value(), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100).value(), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50).value(), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25).value(), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 12.5).value(), 15.0);
}

TEST(PercentileTest, UnsortedInput) {
  EXPECT_DOUBLE_EQ(Percentile({50, 10, 40, 20, 30}, 50).value(), 30.0);
}

TEST(PercentileTest, Errors) {
  EXPECT_TRUE(Percentile({}, 50).status().IsInvalidArgument());
  EXPECT_TRUE(Percentile({1.0}, -1).status().IsOutOfRange());
  EXPECT_TRUE(Percentile({1.0}, 101).status().IsOutOfRange());
}

TEST(PercentileSortedTest, SingleElement) {
  std::vector<double> v = {42};
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 95), 42.0);
}

TEST(MadTest, KnownValue) {
  // Values 1..9: median 5, |dev| = {4,3,2,1,0,1,2,3,4}, median dev = 2.
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_NEAR(Mad(v).value(), 2.0 * 1.4826, 1e-9);
}

TEST(MadTest, RobustToOutliers) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 1e9};
  EXPECT_LT(Mad(v).value(), 10.0);
}

TEST(MadTest, EmptyIsError) {
  EXPECT_FALSE(Mad({}).ok());
}

TEST(TrimmedMeanTest, TrimsTails) {
  std::vector<double> v = {1, 2, 3, 4, 100};
  // 20% trim drops 1 value from each side: mean of {2,3,4}.
  EXPECT_DOUBLE_EQ(TrimmedMean(v, 0.2).value(), 3.0);
}

TEST(TrimmedMeanTest, ZeroTrimIsMean) {
  EXPECT_DOUBLE_EQ(TrimmedMean({1, 2, 3}, 0.0).value(), 2.0);
}

TEST(TrimmedMeanTest, Errors) {
  EXPECT_FALSE(TrimmedMean({}, 0.1).ok());
  EXPECT_TRUE(TrimmedMean({1, 2}, 0.5).status().IsOutOfRange());
  EXPECT_TRUE(TrimmedMean({1, 2}, -0.1).status().IsOutOfRange());
}

TEST(InPlaceSelectionTest, MedianInPlaceMatchesMedian) {
  Rng rng(21);
  for (size_t n : {1u, 2u, 3u, 10u, 11u, 100u, 101u}) {
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) values.push_back(rng.LogNormal(2.0, 1.5));
    std::vector<double> scratch = values;
    // Bit-identical to the sort-based path, not merely close.
    EXPECT_EQ(MedianInPlace(scratch).value(), Median(values).value());
  }
}

TEST(InPlaceSelectionTest, PercentileInPlaceMatchesSortedPath) {
  Rng rng(23);
  std::vector<double> values;
  for (int i = 0; i < 257; ++i) values.push_back(rng.Normal(50.0, 20.0));
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.0, 5.0, 12.5, 25.0, 50.0, 75.0, 90.0, 95.0, 100.0}) {
    std::vector<double> scratch = values;
    EXPECT_EQ(PercentileInPlace(scratch, p).value(),
              PercentileSorted(sorted, p))
        << "p = " << p;
  }
}

TEST(InPlaceSelectionTest, PermutesButPreservesMultiset) {
  std::vector<double> values = {9, 1, 8, 2, 7, 3, 6, 4, 5};
  std::vector<double> scratch = values;
  EXPECT_DOUBLE_EQ(MedianInPlace(scratch).value(), 5.0);
  std::sort(values.begin(), values.end());
  std::sort(scratch.begin(), scratch.end());
  EXPECT_EQ(values, scratch);
}

TEST(InPlaceSelectionTest, Errors) {
  std::vector<double> empty;
  EXPECT_TRUE(MedianInPlace(empty).status().IsInvalidArgument());
  std::vector<double> one = {1.0};
  EXPECT_TRUE(PercentileInPlace(one, -1).status().IsOutOfRange());
  EXPECT_TRUE(PercentileInPlace(one, 101).status().IsOutOfRange());
}

TEST(MadInPlaceTest, MatchesMad) {
  Rng rng(25);
  std::vector<double> values;
  for (int i = 0; i < 101; ++i) values.push_back(rng.LogNormal(3.0, 1.0));
  const double expected = Mad(values).value();
  std::vector<double> consumed = values;
  EXPECT_EQ(MadInPlace(consumed).value(), expected);
}

TEST(MadInPlaceTest, EmptyIsError) {
  std::vector<double> empty;
  EXPECT_FALSE(MadInPlace(empty).ok());
}

// ---------------------------------------------------------------------------
// Bit-level oracle for the selection kernels. EXPECT_EQ on doubles cannot
// see the sign of a zero, so results are compared as bit patterns: windows
// of up to 32 values against a totalOrder sort plus PercentileSorted, larger
// ones against the nth_element path they keep. Every window also compares
// == to that nth_element path, the selection used before the network.
// ---------------------------------------------------------------------------

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// == for results that may be NaN: inf - inf in the interpolation gives
/// NaN on every path.
bool SameValue(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// The selection path before the sorting network, permuting `values`.
double NthElementPercentile(std::vector<double>& values, double p) {
  if (values.size() == 1) return values[0];
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  auto lo_it = values.begin() + static_cast<ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double lo_value = *lo_it;
  const double hi_value =
      hi == lo ? lo_value : *std::min_element(lo_it + 1, values.end());
  return lo_value * (1.0 - frac) + hi_value * frac;
}

double NthElementMad(std::vector<double> values) {
  const double med = NthElementPercentile(values, 50.0);
  for (double& v : values) v = std::fabs(v - med);
  return 1.4826 * NthElementPercentile(values, 50.0);
}

double TotalOrderMad(std::vector<double> values) {
  testing::SortTotalOrder(values);
  const double med = PercentileSorted(values, 50.0);
  for (double& v : values) v = std::fabs(v - med);
  testing::SortTotalOrder(values);
  return 1.4826 * PercentileSorted(values, 50.0);
}

/// A window of `n` values in one of four regimes (distinct lognormal
/// values, heavy ties from a pool of three, constant runs, one constant),
/// with some values negated and, in half the windows, some replaced by
/// +0.0, -0.0, +inf or -inf.
std::vector<double> OracleWindow(Rng& rng, size_t n) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSpecial[] = {0.0, -0.0, kInf, -kInf};
  const double pool[] = {rng.LogNormal(0.0, 1.0), rng.LogNormal(0.0, 1.0),
                         rng.LogNormal(0.0, 1.0)};
  const int64_t regime = rng.UniformInt(0, 3);
  const double negative_rate = rng.Bernoulli(0.5) ? 0.0 : 0.3;
  const double special_rate = rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(0.0, 0.6);
  double run = pool[0];
  std::vector<double> window(n);
  for (double& v : window) {
    switch (regime) {
      case 0:
        v = rng.LogNormal(0.0, 2.0);
        break;
      case 1:
        v = pool[rng.UniformInt(0, 2)];
        break;
      case 2:
        if (rng.Bernoulli(0.3)) run = rng.LogNormal(0.0, 1.0);
        v = run;
        break;
      default:
        v = pool[0];
        break;
    }
    if (rng.Bernoulli(negative_rate)) v = -v;
    if (rng.Bernoulli(special_rate)) v = kSpecial[rng.UniformInt(0, 3)];
  }
  return window;
}

TEST(SelectionOracleTest, KernelsMatchReferencesBitForBit) {
  constexpr size_t kMaxWindow = 40;       // past the 32-value network
  constexpr int kWindowsPerSize = 2500;  // 100,000 windows in all
  Rng rng(2016);
  std::vector<double> sorted;
  std::vector<double> work;
  for (size_t n = 1; n <= kMaxWindow; ++n) {
    for (int w = 0; w < kWindowsPerSize; ++w) {
      const std::vector<double> window = OracleWindow(rng, n);
      sorted = window;
      testing::SortTotalOrder(sorted);
      const double random_p = rng.Uniform(0.0, 100.0);
      for (double p : {0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 100.0, random_p}) {
        work = window;
        const double old_path = NthElementPercentile(work, p);
        const double reference = PercentileSorted(sorted, p);
        work = window;
        const double got = *PercentileInPlace(work, p);
        ASSERT_TRUE(SameValue(got, old_path)) << "n=" << n << " w=" << w
                                              << " p=" << p;
        ASSERT_TRUE(SameValue(got, reference)) << "n=" << n << " w=" << w
                                               << " p=" << p;
        if (n <= 32) {
          ASSERT_EQ(Bits(got), Bits(reference))
              << "n=" << n << " w=" << w << " p=" << p;
          // The network path only reads its input.
          ASSERT_EQ(std::memcmp(work.data(), window.data(),
                                n * sizeof(double)),
                    0)
              << "n=" << n << " w=" << w;
        } else {
          ASSERT_EQ(Bits(got), Bits(old_path))
              << "n=" << n << " w=" << w << " p=" << p;
        }
      }

      work = window;
      const double median = *MedianInPlace(work);
      work = window;
      const double old_median = NthElementPercentile(work, 50.0);
      ASSERT_EQ(Bits(median),
                Bits(n <= 32 ? PercentileSorted(sorted, 50.0) : old_median))
          << "n=" << n << " w=" << w;

      work = window;
      const double mad = *MadInPlace(work);
      const double old_mad = NthElementMad(window);
      ASSERT_EQ(Bits(mad), Bits(n <= 32 ? TotalOrderMad(window) : old_mad))
          << "n=" << n << " w=" << w;
      // An infinite median makes NaN deviations, which are outside the
      // contract; with a finite one every path agrees.
      if (std::isfinite(PercentileSorted(sorted, 50.0))) {
        ASSERT_TRUE(SameValue(mad, old_mad)) << "n=" << n << " w=" << w;
      }
    }
  }
}

TEST(RunningStatsTest, MatchesBatch) {
  Rng rng(7);
  RunningStats rs;
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Normal(5.0, 3.0);
    values.push_back(v);
    rs.Add(v);
  }
  EXPECT_EQ(rs.count(), 1000);
  EXPECT_NEAR(rs.mean(), Mean(values), 1e-9);
  EXPECT_NEAR(rs.stddev(), StdDev(values), 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(rs.max(), *std::max_element(values.begin(), values.end()));
}

TEST(RunningStatsTest, MergeEqualsCombined) {
  Rng rng(9);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    double v = rng.Exponential(2.0);
    a.Add(v);
    all.Add(v);
  }
  for (int i = 0; i < 300; ++i) {
    double v = rng.Exponential(10.0);
    b.Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.Add(1.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(RunningStatsTest, Reset) {
  RunningStats rs;
  rs.Add(5.0);
  rs.Reset();
  EXPECT_EQ(rs.count(), 0);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
}

}  // namespace
}  // namespace dbscale::stats
