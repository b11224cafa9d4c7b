// Kernel-level equivalence for the signal path's in-place statistics.
//
// TelemetryManager::Compute runs its windows through the in-place kernels
// on buffers that one scratch keeps across calls: MedianInPlace,
// PercentileInPlace and MadInPlace (selection, not a sort),
// TheilSenEstimator::FitSequence with a TheilSenScratch, and
// SpearmanCorrelation with a SpearmanScratch. Here every slide of a window
// is computed that way, the buffers reused across slides of varying fill,
// and compared to a batch oracle over a fresh copy of the window: a full
// sort and PercentileSorted, TheilSenEstimator::Fit with an explicit
// x = 0..n-1, and Pearson over tie-averaged ranks counted pairwise.
//
// The contract is *exact* equality: every comparison uses EXPECT_EQ or
// ASSERT_EQ on raw doubles, never a tolerance, across thousands of seeded
// slides per window size covering ties, constant windows, absent
// (filtered) entries and regime changes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/stats/robust.h"
#include "src/stats/spearman.h"
#include "src/stats/theil_sen.h"

namespace dbscale {
namespace {

using stats::TheilSenEstimator;
using stats::TheilSenScratch;
using stats::TrendResult;

// ---------------------------------------------------------------------------
// Value stream with adversarial regimes for order statistics, slope signs
// and ranks: smooth uniforms, heavily quantized values (ties), constant
// stretches, and steep trends. Occasionally emits "absent" entries, as the
// idle-sample filter does for the latency series.
// ---------------------------------------------------------------------------

class RegimeStream {
 public:
  explicit RegimeStream(uint64_t seed) : rng_(seed) {}

  // Returns {value, present}.
  std::pair<double, bool> Next() {
    if (step_ % 97 == 0) {
      regime_ = static_cast<int>(rng_.UniformInt(0, 3));
      base_ = rng_.Uniform(-50.0, 50.0);
    }
    ++step_;
    const bool present = !rng_.Bernoulli(0.15);
    double v = 0.0;
    switch (regime_) {
      case 0:  // smooth
        v = rng_.Uniform(-100.0, 100.0);
        break;
      case 1:  // quantized: guaranteed tie collisions within any window
        v = static_cast<double>(rng_.UniformInt(0, 6));
        break;
      case 2:  // constant window
        v = base_;
        break;
      default:  // trending with tie-prone noise
        v = base_ + 0.5 * static_cast<double>(step_ % 211) +
            static_cast<double>(rng_.UniformInt(0, 2));
        break;
    }
    return {v, present};
  }

 private:
  Rng rng_;
  uint64_t step_ = 0;
  int regime_ = 0;
  double base_ = 0.0;
};

// ---------------------------------------------------------------------------
// The batch oracle.
// ---------------------------------------------------------------------------

/// Median absolute deviation of an ascending-sorted window, by sorting the
/// deviations; the same 1.4826 normal-consistency factor as MadInPlace.
double SortedMad(const std::vector<double>& sorted) {
  const double med = stats::PercentileSorted(sorted, 50.0);
  std::vector<double> deviations;
  for (double v : sorted) deviations.push_back(std::fabs(v - med));
  std::sort(deviations.begin(), deviations.end());
  return 1.4826 * stats::PercentileSorted(deviations, 50.0);
}

/// 1-based tie-averaged ranks by counting, for each value, the values
/// below and equal to it: a tie group occupying positions less+1 ..
/// less+equal gets their average.
std::vector<double> PairwiseRanks(const std::vector<double>& values) {
  std::vector<double> ranks;
  for (double a : values) {
    size_t less = 0;
    size_t equal = 0;
    for (double b : values) {
      if (b < a) {
        ++less;
      } else if (!(a < b)) {
        ++equal;
      }
    }
    ranks.push_back(static_cast<double>(2 * less + equal + 1) / 2.0);
  }
  return ranks;
}

void ExpectTrendEq(const TrendResult& want, const TrendResult& got) {
  EXPECT_EQ(want.slope, got.slope);
  EXPECT_EQ(want.intercept, got.intercept);
  EXPECT_EQ(want.fraction_positive, got.fraction_positive);
  EXPECT_EQ(want.fraction_negative, got.fraction_negative);
  EXPECT_EQ(want.significant, got.significant);
  EXPECT_EQ(want.direction, got.direction);
}

/// Slides `window` one step along `stream` and returns its present values,
/// oldest first, in `out`.
void Slide(RegimeStream& stream, size_t width,
           std::deque<std::pair<double, bool>>& window,
           std::vector<double>& out) {
  window.push_back(stream.Next());
  if (window.size() > width) window.pop_front();
  out.clear();
  for (const auto& [v, present] : window) {
    if (present) out.push_back(v);
  }
}

// ---------------------------------------------------------------------------
// Every slide compared to the batch oracle, parametrized over window size;
// the totals across the suite are well past 10k slides.
// ---------------------------------------------------------------------------

class KernelEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelEquivalenceTest, OrderStatsMatchBatchEverySlide) {
  const size_t kWindow = GetParam();
  const int kSlides = 4000;

  std::deque<std::pair<double, bool>> window;
  RegimeStream stream(kWindow * 1000 + 1);
  std::vector<double> values;
  std::vector<double> scratch;  // reused across slides, as Compute does
  for (int slide = 0; slide < kSlides; ++slide) {
    Slide(stream, kWindow, window, values);
    if (values.empty()) continue;
    SCOPED_TRACE(slide);

    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    scratch.assign(values.begin(), values.end());
    ASSERT_EQ(*stats::MedianInPlace(scratch),
              stats::PercentileSorted(sorted, 50.0));
    scratch.assign(values.begin(), values.end());
    ASSERT_EQ(*stats::PercentileInPlace(scratch, 95.0),
              stats::PercentileSorted(sorted, 95.0));
    scratch.assign(values.begin(), values.end());
    ASSERT_EQ(*stats::PercentileInPlace(scratch, 0.0),
              stats::PercentileSorted(sorted, 0.0));
    scratch.assign(values.begin(), values.end());
    ASSERT_EQ(*stats::MadInPlace(scratch), SortedMad(sorted));
  }
}

TEST_P(KernelEquivalenceTest, TheilSenMatchesBatchEverySlide) {
  const size_t kWindow = GetParam();
  const int kSlides = 3000;

  const TheilSenEstimator estimator(0.70);
  TheilSenScratch scratch;  // reused across slides, as Compute does

  std::deque<std::pair<double, bool>> window;
  RegimeStream stream(kWindow * 1000 + 2);
  std::vector<double> values;
  for (int slide = 0; slide < kSlides; ++slide) {
    Slide(stream, kWindow, window, values);
    if (values.size() < 3) continue;
    SCOPED_TRACE(slide);

    std::vector<double> x;
    for (size_t i = 0; i < values.size(); ++i) {
      x.push_back(static_cast<double>(i));
    }
    auto batch_fit = estimator.Fit(x, values);
    auto sequence_fit = estimator.FitSequence(values, &scratch);
    ASSERT_TRUE(batch_fit.ok());
    ASSERT_TRUE(sequence_fit.ok());
    ExpectTrendEq(*batch_fit, *sequence_fit);
    if (HasFailure()) return;  // one diverging slide is enough to read
  }
}

TEST_P(KernelEquivalenceTest, SpearmanMatchesBatchEverySlide) {
  const size_t kWindow = GetParam();
  const int kSlides = 3000;

  std::deque<double> wx;
  std::deque<double> wy;
  RegimeStream sx(kWindow * 1000 + 3);
  RegimeStream sy(kWindow * 1000 + 4);
  stats::SpearmanScratch scratch;  // reused across slides, as Compute does

  std::vector<double> bx;
  std::vector<double> by;
  for (int slide = 0; slide < kSlides; ++slide) {
    // The correlation window keeps every sample, so absence is ignored.
    wx.push_back(sx.Next().first);
    wy.push_back(sy.Next().first);
    if (wx.size() > kWindow) {
      wx.pop_front();
      wy.pop_front();
    }
    if (wx.size() < 3) continue;
    SCOPED_TRACE(slide);

    bx.assign(wx.begin(), wx.end());
    by.assign(wy.begin(), wy.end());
    auto batch_rho =
        stats::PearsonCorrelation(PairwiseRanks(bx), PairwiseRanks(by));
    auto scratch_rho = stats::SpearmanCorrelation(bx, by, &scratch);
    ASSERT_TRUE(batch_rho.ok());
    ASSERT_TRUE(scratch_rho.ok());
    ASSERT_EQ(*batch_rho, *scratch_rho);
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, KernelEquivalenceTest,
                         ::testing::Values(size_t{5}, size_t{12}, size_t{24},
                                           size_t{48}));

}  // namespace
}  // namespace dbscale
