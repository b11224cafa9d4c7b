// The end-to-end auto-scaling logic (Section 6 of the paper), combining the
// telemetry-derived signals, the demand estimator, the budget manager, and
// ballooning into one closed loop:
//
//   * Scale UP only when latency is BAD (or significantly degrading toward
//     the goal) AND the estimator finds demand for a resource AND the budget
//     allows — latency violations without resource demand (lock-bound
//     workloads) do not scale.
//   * If the latency goal is met, hold even when demand is high — the goal
//     knob converts latency slack into savings.
//   * Scale DOWN when latency is GOOD and demand is LOW for several
//     consecutive intervals (patience set by the sensitivity knob). Memory
//     only shrinks after a balloon pass confirms low memory demand.
//   * Without a latency goal, scaling rests purely on estimated demand.
//   * The chosen container is the cheapest catalog entry dominating the
//     desired resources within the interval's token-bucket budget; if the
//     desired container does not fit, the most expensive affordable one is
//     taken ("Scale-up constrained by budget").

#ifndef DBSCALE_SCALER_AUTOSCALER_H_
#define DBSCALE_SCALER_AUTOSCALER_H_

#include <memory>
#include <string>

#include "src/container/catalog.h"
#include "src/scaler/audit.h"
#include "src/scaler/balloon.h"
#include "src/scaler/budget_manager.h"
#include "src/scaler/categories.h"
#include "src/scaler/demand_estimator.h"
#include "src/scaler/guardrails.h"
#include "src/scaler/knobs.h"
#include "src/scaler/policy.h"

namespace dbscale::scaler {

struct AutoScalerOptions {
  /// Signal interpretation, patience, cooldowns, budget strategy and
  /// resize resilience — shared with every policy's guardrails.
  GuardrailOptions guardrails;
  BalloonOptions balloon;
  bool enable_ballooning = true;
};

/// \brief The paper's "Auto" policy.
class AutoScaler : public ScalingPolicy {
 public:
  /// Errors if knobs or options are invalid or the budget cannot cover the
  /// period.
  static Result<std::unique_ptr<AutoScaler>> Create(
      const container::Catalog& catalog, const TenantKnobs& knobs,
      const AutoScalerOptions& options = {});

  /// Charges `input.charged_cost` against the token bucket, runs the
  /// closed-loop logic, then clamps the result to the available budget (a
  /// hold is forcibly downsized if its price no longer fits — the budget
  /// is a hard constraint, Section 2.3).
  ScalingDecision Decide(const PolicyInput& input) override;
  std::string name() const override { return "Auto"; }

  /// Introspection (tests, drill-down experiments).
  const BudgetManager* budget() const { return guardrails_.budget(); }
  const BalloonController& balloon() const { return balloon_; }
  const DemandEstimator& estimator() const { return estimator_; }
  const TenantKnobs& knobs() const { return knobs_; }
  /// Signals categorized during the last Decide (for explanation benches).
  const CategorizedSignals& last_categories() const { return last_cats_; }
  const DemandEstimate& last_estimate() const { return last_estimate_; }
  /// Full decision history (Section 4's explanations + diagnostics).
  const AuditLog& audit() const { return guardrails_.audit(); }

 private:
  AutoScaler(const container::Catalog& catalog, const TenantKnobs& knobs,
             const AutoScalerOptions& options, Guardrails guardrails);

  ScalingDecision DecideUnclamped(const PolicyInput& input);
  /// Finishes a "balloon" trace span and bumps the tick/abort/completion
  /// counters for one advice.
  static void RecordBalloonAdvice(const BalloonController::Advice& advice,
                                  obs::SpanId span,
                                  const PolicyInput& input);

  container::Catalog catalog_;
  TenantKnobs knobs_;
  AutoScalerOptions options_;
  DemandEstimator estimator_;
  Guardrails guardrails_;
  BalloonController balloon_;

  int low_streak_ = 0;
  int bad_streak_ = 0;
  /// Interval index of the last scale-up (-1000: none yet).
  int last_up_interval_ = -1000;
  /// Set when a balloon pass reached the next-smaller container's memory.
  bool memory_low_confirmed_ = false;

  CategorizedSignals last_cats_;
  DemandEstimate last_estimate_;
};

}  // namespace dbscale::scaler

#endif  // DBSCALE_SCALER_AUTOSCALER_H_
