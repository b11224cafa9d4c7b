// TelemetryManager (Section 3 of the paper): transforms raw telemetry
// samples into the robust signals the demand estimator consumes.
//
// Per resource dimension it produces
//   * robust aggregates — median utilization, median wait-time magnitude,
//     wait share of total waits — over an aggregation window;
//   * Theil-Sen trends (alpha sign-agreement test) of utilization and waits
//     over a trend window;
//   * Spearman rank correlation between the resource's waits / utilization
//     and latency over a correlation window.
// Plus workload-level signals: latency aggregate (average or p95 per the
// tenant's goal type), latency trend, throughput.

#ifndef DBSCALE_TELEMETRY_MANAGER_H_
#define DBSCALE_TELEMETRY_MANAGER_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/obs/pipeline.h"
#include "src/stats/spearman.h"
#include "src/stats/theil_sen.h"
#include "src/telemetry/store.h"

namespace dbscale::telemetry {

/// Which latency aggregate the tenant's goal (and therefore the latency
/// signal) is defined over.
enum class LatencyAggregate { kAverage, kP95 };

const char* LatencyAggregateToString(LatencyAggregate agg);

/// Per-resource-dimension signals.
struct ResourceSignals {
  /// Median percent utilization over the aggregation window.
  double utilization_pct = 0.0;
  /// Median per-sample wait magnitude (ms) attributed to this resource.
  double wait_ms = 0.0;
  /// Median wait magnitude per completed request (ms/request) — the
  /// container-size-independent form the demand estimator thresholds.
  double wait_ms_per_request = 0.0;
  /// This resource's share (0..100) of all waits over the window.
  double wait_pct = 0.0;
  /// Trends over the trend window.
  stats::TrendResult utilization_trend;
  stats::TrendResult wait_trend;
  /// Spearman rho of (resource wait, latency) and (utilization, latency)
  /// over the correlation window; 0 when not computable.
  double wait_latency_correlation = 0.0;
  double utilization_latency_correlation = 0.0;
};

/// The full signal snapshot handed to the demand estimator each decision.
struct SignalSnapshot {
  SimTime time;
  bool valid = false;  ///< false when there is not enough telemetry yet

  /// Latency signal in the tenant's goal aggregate (ms), median over the
  /// aggregation window of per-sample aggregates.
  double latency_ms = 0.0;
  stats::TrendResult latency_trend;
  LatencyAggregate latency_aggregate = LatencyAggregate::kP95;

  std::array<ResourceSignals, container::kNumResources> resources{};

  /// Share of waits per wait class (0..100) over the window; feeds
  /// explanations and the Figure 13(c) drill-down.
  std::array<double, kNumWaitClasses> wait_pct_by_class{};
  /// Median per-sample total wait (ms).
  double total_wait_ms = 0.0;

  double throughput_rps = 0.0;
  double memory_used_mb = 0.0;
  double physical_reads_per_sec = 0.0;
  container::ResourceVector allocation;

  /// Fraction (0..1] of the aggregation window's time span covered by
  /// samples. Dropped or rejected samples leave time gaps, so this is the
  /// completeness of the evidence behind the aggregates; 1.0 on a gapless
  /// window.
  double confidence = 1.0;
  /// True when confidence fell below the manager's min_confidence: the
  /// signals were computed over an incomplete window and must not drive
  /// scaling (the consumer holds with a degraded-telemetry explanation).
  bool degraded = false;

  const ResourceSignals& resource(container::ResourceKind kind) const {
    return resources[static_cast<size_t>(kind)];
  }

  std::string ToString() const;
};

/// Window configuration, expressed in number of samples.
struct TelemetryManagerOptions {
  /// Robust-aggregate window (the paper: minutes of 5-second samples).
  size_t aggregation_samples = 12;
  /// Trend window; must be >= 3 for Theil-Sen.
  size_t trend_samples = 24;
  /// Correlation window.
  size_t correlation_samples = 24;
  /// Theil-Sen sign-agreement acceptance fraction (paper: 0.70).
  double trend_accept_fraction = 0.70;
  /// Latency aggregate for the latency signal.
  LatencyAggregate latency_aggregate = LatencyAggregate::kP95;
  /// Minimum aggregation-window coverage below which the snapshot is
  /// flagged degraded (graceful degradation under telemetry faults).
  double min_confidence = 0.7;

  /// The largest of the three windows: no signal reads a sample older
  /// than the newest `widest_window()` ones.
  size_t widest_window() const {
    return std::max({aggregation_samples, trend_samples, correlation_samples});
  }
};

/// Reusable buffers for Compute. The per-interval signal path is hot at
/// fleet scale (one Compute per tenant-interval); handing the same scratch
/// to every call makes Compute allocation-free after the first interval.
/// Compute clears every buffer before use, so one scratch may serve any
/// number of stores; one scratch per caller thread — never share across
/// threads.
struct SignalScratch {
  std::vector<const SampleRow*> agg_window;
  std::vector<const SampleRow*> trend_window;
  std::vector<const SampleRow*> corr_window;
  /// General per-window value buffers (cleared and refilled per signal).
  std::vector<double> values_a;
  std::vector<double> values_b;
  std::vector<double> values_c;
  std::vector<double> values_d;
  /// Latency over the correlation window; alive across the resource loop.
  std::vector<double> corr_latency;
  stats::TheilSenScratch theil_sen;
  stats::SpearmanScratch spearman;
};

/// \brief Computes SignalSnapshots from a TelemetryStore.
class TelemetryManager {
 public:
  explicit TelemetryManager(TelemetryManagerOptions options = {});

  /// Validates option consistency (window sizes, fractions).
  Status Validate() const;

  /// Computes the signal snapshot as of `now`. If fewer than 2 samples are
  /// available the snapshot is returned with valid = false. Passing the
  /// same `scratch` every interval eliminates all per-call heap
  /// allocations; nullptr falls back to call-local buffers. Every signal is
  /// recomputed from the store's current windows, so results never depend
  /// on which scratch served the call.
  ///
  /// `sink` (when enabled) counts computes, invalid snapshots, and degraded
  /// windows — allocation-free, like the rest of Compute.
  SignalSnapshot Compute(const TelemetryStore& store, SimTime now,
                         SignalScratch* scratch = nullptr,
                         const obs::Sink& sink = obs::Sink()) const;

  const TelemetryManagerOptions& options() const { return options_; }

 private:
  /// The signal pass itself: one recomputation over the store's windows.
  SignalSnapshot ComputeBatch(const TelemetryStore& store, SimTime now,
                              SignalScratch* scratch) const;

  TelemetryManagerOptions options_;
  stats::TheilSenEstimator trend_estimator_;
};

}  // namespace dbscale::telemetry

#endif  // DBSCALE_TELEMETRY_MANAGER_H_
