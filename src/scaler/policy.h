// ScalingPolicy: the interface between the simulation's billing-interval
// loop and any container-sizing strategy (the paper's Auto plus every
// baseline in Section 7.2).

#ifndef DBSCALE_SCALER_POLICY_H_
#define DBSCALE_SCALER_POLICY_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/container/catalog.h"
#include "src/fault/actuator.h"
#include "src/obs/pipeline.h"
#include "src/scaler/explanation.h"
#include "src/telemetry/manager.h"

namespace dbscale::scaler {

/// The actuation vocabulary policies speak (one surface for local resizes
/// and migrations — see src/fault/actuator.h). The harness drives the
/// asynchronous lifecycle (Pending -> Applied | Failed) and reports the
/// most recent transition in PolicyInput.actuation before each Decide;
/// policies that ignore it simply keep requesting their preferred target.
using ActuationFeedback = fault::ActuationOutcome;
using fault::ActuationKind;
using fault::ActuationPhase;

/// The per-resource vector type policies reason in (CPU cores, memory MB,
/// disk IOPS, log MB/s): a fixed 4-dim POD with per-dimension ops and an
/// FNV digest fold (ResourceVector::Fold).
using ResourceVector = container::ResourceVector;

/// What the scaler may know about its tenant's placement when a host plane
/// is attached (absent = the pre-host "infinite capacity" world).
struct PlacementView {
  bool present = false;
  int host_id = -1;
  /// Per-resource headroom left on the tenant's host (capacity *
  /// overcommit - allocated - reserved).
  ResourceVector free;
  /// Deterministic wait-inflation factor currently applied to the host's
  /// tenants (1.0 = no interference).
  double throttle_factor = 1.0;
  /// CPU pressure at or beyond the interference knee.
  bool saturated = false;
};

/// What a policy sees at the end of each billing interval.
struct PolicyInput {
  SimTime now;
  /// Signals computed by the telemetry manager; may be !valid early on.
  telemetry::SignalSnapshot signals;
  /// Container in effect during the interval that just ended.
  container::ContainerSpec current;
  /// Zero-based index of the interval that just ended.
  int interval_index = 0;
  /// Price billed for the interval that just ended (<= 0: nothing was
  /// billed, e.g. a dry run). Budget-aware policies account for it at the
  /// top of Decide() — there is no separate charge callback.
  double charged_cost = 0.0;
  /// Mean absolute per-resource usage over the interval that just ended
  /// (cores, active MB, IOPS, log MB/s). Filled by harnesses with engine
  /// truth (the sim loop); zero when the harness only has signals — demand
  /// estimators must fall back to utilization x allocation then.
  ResourceVector usage;
  /// Actuation-lifecycle feedback for the previously requested change
  /// (local resize or migration).
  ActuationFeedback actuation;
  /// The tenant's placement (host id, headroom, interference) when a host
  /// plane is attached; `placement.present == false` otherwise.
  PlacementView placement;
  /// Observability handle (no-ops when disabled). Policies record decision
  /// metrics and nest spans under `obs.trace.parent`.
  obs::Sink obs;
};

/// A policy's choice for the next billing interval.
struct ScalingDecision {
  container::ContainerSpec target;
  /// The per-resource demand estimate behind the decision, in absolute
  /// units (zero where the policy had no per-resource estimate). The
  /// diagonal scaler always fills it; Auto fills it on scale-ups.
  ResourceVector demand;
  /// Structured reason for the decision; Explanation::ToString() renders
  /// the text the paper surfaces to tenants.
  Explanation explanation;
  /// Balloon override for effective memory; the harness forwards it to
  /// DatabaseEngine::SetMemoryLimitMb. nullopt leaves memory alone.
  std::optional<double> memory_limit_mb;

  bool Changed(const container::ContainerSpec& current) const {
    return target.id != current.id;
  }
};

/// \brief Abstract container-sizing strategy.
class ScalingPolicy {
 public:
  virtual ~ScalingPolicy() = default;

  /// Decides the container for the next interval. `input.charged_cost`
  /// carries the price of the interval that just ended.
  virtual ScalingDecision Decide(const PolicyInput& input) = 0;

  /// Policy display name ("Auto", "Util", "Peak", ...).
  virtual std::string name() const = 0;
};

}  // namespace dbscale::scaler

#endif  // DBSCALE_SCALER_POLICY_H_
