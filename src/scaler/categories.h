// Categorization of continuous signals (Figure 5 / Section 4.1).
//
// Applying thresholds moves signals from a continuous domain to a
// categorical one with easy-to-understand semantics — the property that
// makes the paper's rule hierarchy constructible, debuggable, and
// explainable.

#ifndef DBSCALE_SCALER_CATEGORIES_H_
#define DBSCALE_SCALER_CATEGORIES_H_

#include <array>
#include <cstdint>
#include <optional>

#include "src/scaler/knobs.h"
#include "src/scaler/thresholds.h"
#include "src/stats/theil_sen.h"
#include "src/telemetry/manager.h"

namespace dbscale::scaler {

enum class LatencyCategory : uint8_t { kGood, kBad };
enum class Level : uint8_t { kLow, kMedium, kHigh };
enum class Significance : uint8_t { kNotSignificant, kSignificant };

const char* LatencyCategoryToString(LatencyCategory c);

/// Categorized signals for one resource dimension.
struct ResourceCategories {
  Level utilization = Level::kLow;
  /// True when utilization exceeds the extreme bar (2-step demand hint).
  bool utilization_extreme = false;
  /// True when utilization sits below half the LOW bar (2-step shrink hint).
  bool utilization_very_low = false;
  Level wait_magnitude = Level::kLow;
  bool wait_extreme = false;
  bool wait_very_low = false;
  Significance wait_share = Significance::kNotSignificant;
  stats::TrendDirection utilization_trend = stats::TrendDirection::kNone;
  stats::TrendDirection wait_trend = stats::TrendDirection::kNone;
  /// Wait-vs-latency Spearman correlation significance.
  Significance wait_latency_correlation = Significance::kNotSignificant;

  bool AnyIncreasingTrend() const {
    return utilization_trend == stats::TrendDirection::kIncreasing ||
           wait_trend == stats::TrendDirection::kIncreasing;
  }
};

/// The complete categorical view handed to the rule hierarchy.
struct CategorizedSignals {
  bool valid = false;
  /// Latency vs. the tenant goal. kGood when no goal is specified (scaling
  /// then rests purely on demand, per Section 2.3).
  LatencyCategory latency = LatencyCategory::kGood;
  bool has_latency_goal = false;
  /// Significant increasing latency trend whose projection crosses the goal.
  bool latency_degrading = false;
  /// observed latency / goal (1.0 when no goal); the Util baseline scales
  /// its step count with this.
  double latency_ratio = 1.0;

  std::array<ResourceCategories, container::kNumResources> resources{};

  const ResourceCategories& resource(container::ResourceKind kind) const {
    return resources[static_cast<size_t>(kind)];
  }
};

/// Options for categorization.
struct CategorizeOptions {
  /// Seconds ahead to project the latency trend when deciding "degrading".
  double latency_projection_sec = 120.0;
  /// Safety buffer (Section 7.3: "both techniques... keep a buffer for
  /// performance"): latency counts as BAD above this fraction of the goal,
  /// so the scaler reacts before the goal is actually violated.
  double latency_bad_fraction = 0.92;
};

/// Applies `thresholds` (and the optional latency goal) to a signal
/// snapshot.
CategorizedSignals Categorize(const telemetry::SignalSnapshot& signals,
                              const SignalThresholds& thresholds,
                              const std::optional<LatencyGoal>& goal,
                              const CategorizeOptions& options = {});

}  // namespace dbscale::scaler

#endif  // DBSCALE_SCALER_CATEGORIES_H_
