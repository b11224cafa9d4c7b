// Theil-Sen robust trend estimation (Section 3.2.1 of the paper).
//
// Least-squares regression has a breakdown point of 0: one large outlier
// moves the fitted slope arbitrarily. The Theil-Sen estimator — the median
// of the O(n^2) pairwise slopes — has a breakdown point of ~29%, needs no
// tuning parameters, and is cheap at telemetry-window sizes.
//
// A trend is only *accepted* when at least `accept_fraction` (the paper's
// alpha = 70%) of the pairwise slopes agree in sign; otherwise the data is
// treated as trendless noise.

#ifndef DBSCALE_STATS_THEIL_SEN_H_
#define DBSCALE_STATS_THEIL_SEN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/result.h"

namespace dbscale::stats {

/// Hard cap on the number of points per fit. The pairwise-slope pass needs
/// n*(n-1)/2 doubles of scratch — quadratic in the window — so an unbounded
/// n would let a misconfigured window silently demand gigabytes (at the cap
/// the slope buffer is ~67 MB). Telemetry trend windows are tens to a few
/// hundred samples; anything beyond the cap is a configuration error and
/// Fit returns InvalidArgument.
inline constexpr std::size_t kMaxTheilSenPoints = 4096;

/// Direction of an accepted trend.
enum class TrendDirection : uint8_t { kNone, kIncreasing, kDecreasing };

const char* TrendDirectionToString(TrendDirection d);

/// Outcome of a Theil-Sen fit.
struct TrendResult {
  /// Median pairwise slope (units of y per unit of x).
  double slope = 0.0;
  /// Median intercept: median(y_i - slope * x_i).
  double intercept = 0.0;
  /// Fraction of pairwise slopes that are strictly positive / negative.
  double fraction_positive = 0.0;
  double fraction_negative = 0.0;
  /// True when the sign-agreement test passed.
  bool significant = false;
  /// Direction when significant, kNone otherwise.
  TrendDirection direction = TrendDirection::kNone;
};

/// Reusable buffers for the O(n^2) pairwise-slope computation. One scratch
/// per caller thread; hand the same instance to every Fit call so the
/// buffers are allocated once per simulation instead of per interval.
///
/// Memory bound: `slopes` grows to n*(n-1)/2 doubles for the largest window
/// ever fitted — quadratic in the window size, capped by kMaxTheilSenPoints
/// (Fit rejects larger inputs).
struct TheilSenScratch {
  std::vector<double> slopes;
  std::vector<double> intercepts;
};

/// \brief Theil-Sen estimator with a sign-agreement significance test.
///
/// Thread-compatible: a const estimator may be shared across threads, but
/// each thread must bring its own TheilSenScratch.
class TheilSenEstimator {
 public:
  /// \param accept_fraction fraction (0.5, 1.0] of pairwise slopes that must
  ///        share a sign for a trend to be declared significant. The paper
  ///        uses 0.70. Validated here, once; an out-of-range value makes
  ///        every Fit return the error.
  explicit TheilSenEstimator(double accept_fraction = 0.70);

  /// Fits y against x. Requires at least 3 points and matching sizes;
  /// pairs with duplicate x values contribute no slope. With a scratch the
  /// call performs no allocations beyond scratch growth.
  Result<TrendResult> Fit(const std::vector<double>& x,
                          const std::vector<double>& y,
                          TheilSenScratch* scratch = nullptr) const;

  /// Fit with implicit x = 0, 1, ..., n-1 (evenly spaced samples). The x
  /// sequence is never materialized.
  Result<TrendResult> FitSequence(const std::vector<double>& y,
                                  TheilSenScratch* scratch = nullptr) const;

  double accept_fraction() const { return accept_fraction_; }

  /// Constructor-time validation outcome of accept_fraction.
  Status Validate() const { return config_status_; }

 private:
  /// x == nullptr means implicit x_i = i.
  Result<TrendResult> FitImpl(const std::vector<double>* x,
                              const std::vector<double>& y,
                              TheilSenScratch* scratch) const;

  double accept_fraction_;
  Status config_status_;
};

}  // namespace dbscale::stats

#endif  // DBSCALE_STATS_THEIL_SEN_H_
