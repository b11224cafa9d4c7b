#include "src/stats/theil_sen.h"

#include <algorithm>
#include <cmath>

#include "src/stats/robust.h"

namespace dbscale::stats {

namespace {

/// Intercept of one point given the fitted slope: y - slope * x.
double InterceptAt(double y, double x, double slope) {
  return y - slope * x;
}

/// Applies the alpha sign-agreement test: fills fraction_positive /
/// fraction_negative / significant / direction from the slope-sign counts.
void ClassifySignAgreement(std::size_t positive, std::size_t negative,
                           std::size_t total_slopes, double accept_fraction,
                           TrendResult* result) {
  const double total = static_cast<double>(total_slopes);
  result->fraction_positive = static_cast<double>(positive) / total;
  result->fraction_negative = static_cast<double>(negative) / total;
  if (result->fraction_positive >= accept_fraction) {
    result->significant = true;
    result->direction = TrendDirection::kIncreasing;
  } else if (result->fraction_negative >= accept_fraction) {
    result->significant = true;
    result->direction = TrendDirection::kDecreasing;
  } else {
    // Noise: do not report a trend even though the median slope is nonzero.
    result->significant = false;
    result->direction = TrendDirection::kNone;
  }
}

}  // namespace

const char* TrendDirectionToString(TrendDirection d) {
  switch (d) {
    case TrendDirection::kNone:
      return "none";
    case TrendDirection::kIncreasing:
      return "increasing";
    case TrendDirection::kDecreasing:
      return "decreasing";
  }
  return "?";
}

TheilSenEstimator::TheilSenEstimator(double accept_fraction)
    : accept_fraction_(accept_fraction),
      config_status_(accept_fraction > 0.5 && accept_fraction <= 1.0
                         ? Status::OK()
                         : Status::OutOfRange(
                               "accept_fraction must be in (0.5, 1.0]")) {}

Result<TrendResult> TheilSenEstimator::Fit(const std::vector<double>& x,
                                           const std::vector<double>& y,
                                           TheilSenScratch* scratch) const {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("x and y sizes differ");
  }
  return FitImpl(&x, y, scratch);
}

Result<TrendResult> TheilSenEstimator::FitSequence(
    const std::vector<double>& y, TheilSenScratch* scratch) const {
  return FitImpl(nullptr, y, scratch);
}

Result<TrendResult> TheilSenEstimator::FitImpl(
    const std::vector<double>* x, const std::vector<double>& y,
    TheilSenScratch* scratch) const {
  if (!config_status_.ok()) return config_status_;
  if (y.size() < 3) {
    return Status::InvalidArgument("Theil-Sen needs at least 3 points");
  }
  if (y.size() > kMaxTheilSenPoints) {
    // The pairwise pass needs n*(n-1)/2 slope doubles of scratch; beyond
    // the cap that quadratic bound is a configuration error, not a fit.
    return Status::InvalidArgument("Theil-Sen window exceeds "
                                   "kMaxTheilSenPoints");
  }
  TheilSenScratch local;
  if (scratch == nullptr) scratch = &local;

  const size_t n = y.size();
  std::vector<double>& slopes = scratch->slopes;
  slopes.clear();
  // Grows the scratch once; steady-state calls reuse capacity.
  slopes.reserve(n * (n - 1) / 2);  // dbscale-lint: allow(alloc-hot-path)
  size_t positive = 0;
  size_t negative = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double dx = x != nullptr
                            ? (*x)[j] - (*x)[i]
                            : static_cast<double>(j) - static_cast<double>(i);
      if (dx == 0.0) continue;  // vertical pair carries no slope information
      double slope = (y[j] - y[i]) / dx;
      slopes.push_back(slope);
      if (slope > 0.0) {
        ++positive;
      } else if (slope < 0.0) {
        ++negative;
      }
    }
  }
  if (slopes.empty()) {
    return Status::InvalidArgument("all x values identical");
  }

  TrendResult result;
  DBSCALE_ASSIGN_OR_RETURN(result.slope, MedianInPlace(slopes));
  std::vector<double>& intercepts = scratch->intercepts;
  intercepts.clear();
  intercepts.reserve(n);  // dbscale-lint: allow(alloc-hot-path)
  for (size_t i = 0; i < n; ++i) {
    const double xi = x != nullptr ? (*x)[i] : static_cast<double>(i);
    intercepts.push_back(InterceptAt(y[i], xi, result.slope));
  }
  DBSCALE_ASSIGN_OR_RETURN(result.intercept, MedianInPlace(intercepts));

  ClassifySignAgreement(positive, negative, slopes.size(), accept_fraction_,
                        &result);
  return result;
}

}  // namespace dbscale::stats
