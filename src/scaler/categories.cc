#include "src/scaler/categories.h"

#include <algorithm>
#include <cmath>

namespace dbscale::scaler {

namespace {

Level Categorize3(double value, double low, double high) {
  if (value < low) return Level::kLow;
  if (value >= high) return Level::kHigh;
  return Level::kMedium;
}

}  // namespace

const char* LatencyCategoryToString(LatencyCategory c) {
  return c == LatencyCategory::kGood ? "GOOD" : "BAD";
}

CategorizedSignals Categorize(const telemetry::SignalSnapshot& signals,
                              const SignalThresholds& thresholds,
                              const std::optional<LatencyGoal>& goal,
                              const CategorizeOptions& options) {
  CategorizedSignals out;
  out.valid = signals.valid;
  if (!signals.valid) return out;

  out.has_latency_goal = goal.has_value();
  if (goal.has_value()) {
    out.latency =
        signals.latency_ms > goal->target_ms * options.latency_bad_fraction
            ? LatencyCategory::kBad
            : LatencyCategory::kGood;
    out.latency_ratio =
        goal->target_ms > 0.0 ? signals.latency_ms / goal->target_ms : 1.0;
    // Degrading: a significant increasing trend whose projection crosses
    // the goal within the horizon. The trend slope is per sample-index; a
    // sample spans (snapshot) period seconds, but treating the horizon in
    // samples keeps this robust to period changes: project over the trend
    // window length again.
    if (out.latency != LatencyCategory::kBad &&
        signals.latency_trend.significant &&
        signals.latency_trend.direction ==
            stats::TrendDirection::kIncreasing) {
      const double horizon_samples =
          std::max(1.0, options.latency_projection_sec / 5.0);
      const double projected =
          signals.latency_ms +
          signals.latency_trend.slope * horizon_samples;
      out.latency_degrading = projected > goal->target_ms;
    }
  }

  for (container::ResourceKind kind : container::kAllResources) {
    const ResourceThresholds& t = thresholds.For(kind);
    const telemetry::ResourceSignals& s = signals.resource(kind);
    ResourceCategories& r =
        out.resources[static_cast<size_t>(kind)];

    r.utilization =
        Categorize3(s.utilization_pct, t.util_low_pct, t.util_high_pct);
    r.utilization_extreme =
        s.utilization_pct >=
        std::min(95.0, t.util_high_pct +
                           (100.0 - t.util_high_pct) * 0.66);
    r.utilization_very_low = s.utilization_pct < t.util_low_pct / 2.0;
    r.wait_magnitude = Categorize3(s.wait_ms_per_request,
                                   t.wait_low_ms_per_req,
                                   t.wait_high_ms_per_req);
    r.wait_extreme = s.wait_ms_per_request >=
                     t.wait_high_ms_per_req * thresholds.extreme_factor;
    r.wait_very_low = s.wait_ms_per_request < t.wait_low_ms_per_req / 2.0;
    r.wait_share = s.wait_pct >= t.wait_pct_significant
                       ? Significance::kSignificant
                       : Significance::kNotSignificant;
    r.utilization_trend = s.utilization_trend.significant
                              ? s.utilization_trend.direction
                              : stats::TrendDirection::kNone;
    r.wait_trend = s.wait_trend.significant ? s.wait_trend.direction
                                            : stats::TrendDirection::kNone;
    r.wait_latency_correlation =
        std::fabs(s.wait_latency_correlation) >=
                thresholds.correlation_significant
            ? Significance::kSignificant
            : Significance::kNotSignificant;
  }
  return out;
}

}  // namespace dbscale::scaler
