// The paper's Auto policy (Section 6): the shared decision cycle of
// Guardrails — warm-up and degraded holds, the up trigger and cooldown,
// the latency-not-resource and goal-met holds, down patience and the
// saturation guard — sized on the lock-step rung ladder:
//
//   * Scale UP to the rung steps the estimator's rules ask for, bought as
//     the cheapest catalog entry dominating the desired resources within
//     the interval's token-bucket budget; if that does not fit, the most
//     expensive affordable one is taken ("Scale-up constrained by
//     budget").
//   * Scale DOWN one rung (or the rules' steps) per move. Memory only
//     shrinks after a balloon pass (Section 4.3) confirms low memory
//     demand; demand returning mid-balloon cancels it and restores the
//     allocation.

#ifndef DBSCALE_SCALER_AUTOSCALER_H_
#define DBSCALE_SCALER_AUTOSCALER_H_

#include <memory>
#include <string>

#include "src/container/catalog.h"
#include "src/scaler/audit.h"
#include "src/scaler/balloon.h"
#include "src/scaler/budget_manager.h"
#include "src/scaler/guardrails.h"
#include "src/scaler/knobs.h"
#include "src/scaler/policy.h"

namespace dbscale::scaler {

/// \brief The paper's "Auto" policy.
class AutoScaler : public ScalingPolicy {
 public:
  /// Errors if knobs or options are invalid or the budget cannot cover the
  /// period.
  static Result<std::unique_ptr<AutoScaler>> Create(
      const container::Catalog& catalog, const TenantKnobs& knobs,
      const GuardrailOptions& options = {});

  /// Charges `input.charged_cost` against the token bucket, runs the
  /// closed-loop logic, then clamps the result to the available budget (a
  /// hold is forcibly downsized if its price no longer fits — the budget
  /// is a hard constraint, Section 2.3).
  ScalingDecision Decide(const PolicyInput& input) override;
  std::string name() const override { return "Auto"; }

  /// Introspection (tests, drill-down experiments).
  const BudgetManager* budget() const { return guardrails_.budget(); }
  const BalloonController& balloon() const { return balloon_; }
  /// Full decision history (Section 4's explanations + diagnostics).
  const AuditLog& audit() const { return guardrails_.audit(); }

 private:
  AutoScaler(const container::Catalog& catalog, Guardrails guardrails);

  ScalingDecision DecideUnclamped(const PolicyInput& input);
  /// Whether any container fits `budget`. Decide asks first, so the
  /// catalog's budgeted lookups never fail: their error Status would
  /// allocate on every unaffordable decision.
  bool AnyAffordable(double budget) const {
    return catalog_.smallest().price_per_interval <= budget;
  }
  /// Finishes a "balloon" trace span and bumps the tick/abort/completion
  /// counters for one advice.
  static void RecordBalloonAdvice(const BalloonController::Advice& advice,
                                  obs::SpanId span,
                                  const PolicyInput& input);

  container::Catalog catalog_;
  Guardrails guardrails_;
  BalloonController balloon_;
  /// Set when a balloon pass reached the next-smaller container's memory.
  bool memory_low_confirmed_ = false;
};

}  // namespace dbscale::scaler

#endif  // DBSCALE_SCALER_AUTOSCALER_H_
