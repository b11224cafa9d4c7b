// Robust statistical aggregates (Section 3 of the paper).
//
// Telemetry is noisy: spikes from checkpoints, transient system work, and
// workload variance produce outliers that break mean-based estimators (the
// mean has a breakdown point of 0). The paper therefore aggregates signals
// with high-breakdown estimators: the median (breakdown 50%), order
// statistics, and MAD. This header provides those primitives.

#ifndef DBSCALE_STATS_ROBUST_H_
#define DBSCALE_STATS_ROBUST_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/result.h"

namespace dbscale::stats {

/// Arithmetic mean. Breakdown point 0 — use only where outliers are
/// impossible by construction (e.g. bounded percentages over long windows).
double Mean(const std::vector<double>& values);

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 values.
double StdDev(const std::vector<double>& values);

/// Median; breakdown point 50%. Average of the two middle order statistics
/// for even-sized input. Errors on empty input.
[[nodiscard]] Result<double> Median(std::vector<double> values);

/// Linear-interpolated percentile, p in [0, 100]. Errors on empty input or
/// p outside the range.
[[nodiscard]] Result<double> Percentile(std::vector<double> values, double p);

/// Percentile on data the caller has already sorted ascending (no copy).
/// Use this when a caller needs several percentiles or the full CDF of one
/// sample; the selection-based variants below are cheaper for a single
/// order statistic.
double PercentileSorted(const std::vector<double>& sorted, double p);

/// Selection-based percentile that neither sorts a copy nor allocates;
/// Percentile, Median, MedianInPlace and MadInPlace all select through it.
///
/// Windows of at most 32 values (the default signal windows, the fleet's
/// hourly medians and the Theil-Sen intercept medians) are copied into a
/// fixed local array, padded to 16 or 32 slots, and sorted by a
/// branch-free Batcher odd-even merge network over integer keys; `values`
/// is left untouched. Larger windows select with std::nth_element and may
/// permute `values`; either way the multiset survives.
///
/// The network orders by IEEE 754 totalOrder, so values that compare equal
/// but differ in bits keep a fixed order: -0.0 sorts before +0.0. Above 32
/// values nth_element's `<` cannot tell the two zeros apart, and which one
/// it returns depends on element order. Either way the result compares ==
/// to PercentileSorted over a sorted copy, or both are NaN (blending -inf
/// with +inf, or inf with weight 0, gives NaN). NaN input is outside the
/// contract: callers keep it out of their windows (the ingest guard and
/// fault::SampleLooksValid do for every telemetry window), and no result
/// is defined for a window that holds one.
[[nodiscard]] Result<double> PercentileInPlace(std::span<double> values,
                                               double p);

/// PercentileInPlace at p = 50: the average of the two middle order
/// statistics for even-sized input.
[[nodiscard]] Result<double> MedianInPlace(std::span<double> values);

/// Median absolute deviation (scaled by 1.4826 for consistency with the
/// standard deviation under normality). Breakdown point 50%.
[[nodiscard]] Result<double> Mad(const std::vector<double>& values);

/// MAD computed with zero allocations by overwriting `values` with the
/// absolute deviations (the input is consumed). Same result as Mad. It
/// relies only on the first median leaving the multiset intact.
[[nodiscard]] Result<double> MadInPlace(std::span<double> values);

/// Mean after discarding the `trim_fraction` smallest and largest values
/// (e.g. 0.1 trims 10% from each side). Breakdown point = trim_fraction.
[[nodiscard]] Result<double> TrimmedMean(std::vector<double> values,
                                         double trim_fraction);

/// \brief Streaming mean/variance/min/max accumulator (Welford), used where
/// keeping full samples would be too expensive.
class RunningStats {
 public:
  void Add(double value);
  void Merge(const RunningStats& other);
  void Reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace dbscale::stats

#endif  // DBSCALE_STATS_ROBUST_H_
