// SimConfig: one validated bundle for a full closed-loop run.
//
// Before this type, a complete experiment scattered its knobs across four
// structs (SimulationOptions, TelemetryManagerOptions, TenantKnobs, the
// scaler's GuardrailOptions) plus the fault plan, each validated — or not —
// at a different layer. SimConfig folds them into a single value with one
// Validate() covering every cross-cutting constraint (trace vs interval,
// latency-goal aggregate vs telemetry aggregate, fault probabilities,
// the scaler's guardrail options, budget feasibility via
// AutoScaler::Create).

#ifndef DBSCALE_SIM_SIM_CONFIG_H_
#define DBSCALE_SIM_SIM_CONFIG_H_

#include <memory>

#include "src/scaler/autoscaler.h"
#include "src/scaler/knobs.h"
#include "src/sim/simulation.h"

namespace dbscale::sim {

/// A finished SimConfig::Run(): the run outcome plus the scaler that drove
/// it (kept alive so its audit log / budget state stay inspectable).
struct SimConfigRun {
  RunResult result;
  std::unique_ptr<scaler::AutoScaler> scaler;
};

/// \brief Everything one closed-loop Auto run needs, validated as a whole.
struct SimConfig {
  /// Harness options — catalog, workload, trace, telemetry, fault plan,
  /// host plane.
  SimulationOptions simulation;
  /// Tenant-facing knobs (budget, latency goal, sensitivity).
  scaler::TenantKnobs knobs;
  /// The scaler's settable options: signal thresholds, estimator ablation
  /// switches and budget strategy.
  scaler::GuardrailOptions scaler;

  /// Validates every layer and the constraints that span them. A default
  /// SimConfig fails only on the empty trace/workload.
  Status Validate() const;

  /// `simulation` with derived consistency applied: the telemetry latency
  /// aggregate follows the latency goal's aggregate when a goal is set.
  SimulationOptions EffectiveSimulationOptions() const;

  /// Validates, then builds the Auto policy for `simulation.catalog`.
  Result<std::unique_ptr<scaler::AutoScaler>> MakeAutoScaler() const;

  /// Validates, builds the scaler, and runs the closed loop.
  Result<SimConfigRun> Run() const;
};

}  // namespace dbscale::sim

namespace dbscale {
using sim::SimConfig;  // The canonical spelling is dbscale::SimConfig.
}  // namespace dbscale

#endif  // DBSCALE_SIM_SIM_CONFIG_H_
