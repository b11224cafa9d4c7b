// The operational guardrails every demand-driven policy runs inside
// (Sections 5-6 of the paper, plus the asynchronous-resize resilience of
// src/fault/ and the host plane's migrations):
//
//   * the token-bucket budget: the interval's price is charged at the top
//     of Decide, and the decision is clamped to the tokens left (even a
//     hold must fit — the budget is a hard constraint, Section 2.3);
//   * the actuation-feedback state machine: a pending request holds the
//     one actuation channel, a failed one waits out an exponential backoff
//     and retries the same target until `resize_max_attempts`, and a
//     rejected target is refused for a cooldown;
//   * the migration note on scale-ups the tenant's host cannot absorb;
//   * the decision audit log (Section 4's explanations + diagnostics).
//
// AutoScaler and DiagonalScaler each compose one Guardrails and keep only
// their own demand rules.

#ifndef DBSCALE_SCALER_GUARDRAILS_H_
#define DBSCALE_SCALER_GUARDRAILS_H_

#include <memory>
#include <optional>
#include <string>

#include "src/container/catalog.h"
#include "src/scaler/audit.h"
#include "src/scaler/budget_manager.h"
#include "src/scaler/categories.h"
#include "src/scaler/demand_estimator.h"
#include "src/scaler/knobs.h"
#include "src/scaler/policy.h"
#include "src/scaler/thresholds.h"

namespace dbscale::scaler {

/// The options both policies share: signal interpretation, patience and
/// cooldowns, the budget strategy, and resize-lifecycle resilience.
struct GuardrailOptions {
  SignalThresholds thresholds = SignalThresholds::Default();
  DemandEstimatorOptions estimator;
  CategorizeOptions categorize;
  /// Consecutive low-demand intervals required before scaling down, by
  /// sensitivity.
  int down_patience_high = 5;
  int down_patience_medium = 3;
  int down_patience_low = 1;
  /// With LOW sensitivity, consecutive BAD intervals required to scale up.
  int up_patience_low_sensitivity = 2;
  /// Latency-slack scale-down (Section 2.3: meet the goal with a smaller
  /// container even when demand is high): when latency stays at or below
  /// this fraction of the goal, try shrinking one step even without
  /// low-demand signals. <= 0 disables.
  double down_latency_slack_ratio = 0.5;
  /// Intervals to wait after a scale-up before scaling up again: a resize
  /// takes effect online but queued backlog and the robust-aggregation
  /// window keep latency looking bad for a little while; reacting to that
  /// stale signal overshoots.
  int up_cooldown_intervals = 2;
  /// Scale-down saturation guard: a dimension only shrinks if its projected
  /// utilization on the smaller allocation (current usage / new allocation)
  /// stays below this percentage. Prevents shrinking straight into a
  /// queueing cliff (the "buffer for performance" both online techniques
  /// keep, Section 7.3).
  double down_projected_util_guard_pct = 75.0;
  BudgetStrategy budget_strategy = BudgetStrategy::kAggressive;
  int budget_conservative_k = 4;
  /// Resize-lifecycle resilience (fault injection, Section 5 operational
  /// notes): total attempts per target before the scaler abandons the
  /// resize, and the exponential backoff (in billing intervals) between
  /// attempts: base * multiplier^(failures-1), capped at the max.
  int resize_max_attempts = 4;
  int resize_backoff_base_intervals = 1;
  double resize_backoff_multiplier = 2.0;
  int resize_backoff_max_intervals = 8;
  /// Intervals a permanently-rejected target stays off-limits before the
  /// scaler may request it again.
  int resize_rejection_cooldown_intervals = 10;

  Status Validate() const;

  /// Consecutive low-demand intervals required before scaling down.
  int DownPatience(Sensitivity sensitivity) const;
};

/// \brief One policy instance's guardrails: budget, actuation feedback,
/// migration note and audit log. Decide() runs BeginDecision(), then
/// HandleFeedback() (a non-null result preempts the policy's own rules),
/// then the policy's rules, then FinishDecision().
class Guardrails {
 public:
  /// Validates `options` and, when `knobs` carry a budget, builds its token
  /// bucket over `catalog`'s price range (errors if the budget cannot
  /// cover the period).
  static Result<Guardrails> Create(const container::Catalog& catalog,
                                   const TenantKnobs& knobs,
                                   const GuardrailOptions& options);

  /// Charges `input.charged_cost`, the price of the interval that just
  /// ended, against the token bucket.
  void BeginDecision(const PolicyInput& input);

  /// Processes `input.actuation` lifecycle feedback (local resizes and
  /// migrations alike): a hold (pending / backoff / rejected / abandoned /
  /// saturated), the due retry of a failed target, or nullopt when the
  /// policy's own decision cycle should proceed.
  std::optional<ScalingDecision> HandleFeedback(const PolicyInput& input);

  /// The rejected-target guard: a kHoldResizeRejected hold while `target`
  /// is inside a permanent rejection's cooldown (re-requesting it would
  /// just burn attempts), nullopt otherwise.
  std::optional<ScalingDecision> RefuseRejected(
      const PolicyInput& input, const container::ContainerSpec& target) const;

  /// Tokens available for the upcoming interval (infinity without budget).
  double AvailableBudget() const;

  /// Everything after the policy's own rules, in order: the budget_check
  /// span — when `d` costs more than AvailableBudget(), `clamp(d->target,
  /// budget)` returns the policy's forced target, or nullopt to keep `d`
  /// (no affordable container would mean Create() admitted an infeasible
  /// budget) — then the migration note and the audit record. Returns true
  /// when the budget forced the target.
  template <typename Clamp>
  bool FinishDecision(const PolicyInput& input, const CategorizedSignals& cats,
                      const DemandEstimate& estimate, ScalingDecision* d,
                      Clamp&& clamp) {
    const obs::SpanId span = input.obs.trace.Start("budget_check", input.now);
    const double budget = AvailableBudget();
    std::optional<container::ContainerSpec> forced;
    if (d->target.price_per_interval > budget) {
      forced = clamp(d->target, budget);
    }
    return Finish(input, cats, estimate, span, budget, std::move(forced), d);
  }

  const BudgetManager* budget() const { return budget_.get(); }
  const AuditLog& audit() const { return audit_; }

 private:
  Guardrails() = default;

  bool Finish(const PolicyInput& input, const CategorizedSignals& cats,
              const DemandEstimate& estimate, obs::SpanId budget_span,
              double budget, std::optional<container::ContainerSpec> forced,
              ScalingDecision* d);
  /// Backoff before attempt `failed_attempts + 1`, in intervals (>= 1).
  int BackoffIntervals(int failed_attempts) const;

  GuardrailOptions options_;
  std::unique_ptr<BudgetManager> budget_;

  /// Scheduled retry after a transient resize failure.
  struct RetryPlan {
    container::ContainerSpec target;
    int failed_attempts = 0;
    /// Interval index at which the retry is due.
    int retry_at_interval = 0;
  };
  std::optional<RetryPlan> retry_;
  /// Permanently-rejected target and the interval its cooldown expires.
  int rejected_target_id_ = -1;
  int rejected_until_interval_ = -1000;
  /// Attempt number carried by the decision being audited (retries > 1).
  int decision_attempt_ = 1;
  AuditLog audit_;
};

/// A decision keeping the tenant's current container.
ScalingDecision HoldCurrent(const PolicyInput& input, Explanation explanation);

/// The wait class holding the largest share of waits (first on ties).
struct DominantWait {
  telemetry::WaitClass wait_class = telemetry::WaitClass::kSystem;
  double pct = -1.0;
};
DominantWait FindDominantWait(const telemetry::SignalSnapshot& signals);

/// Dominant wait class summary ("dominant waits: Lock 92%"), used in
/// not-scaling explanations.
std::string DominantWaitNote(const telemetry::SignalSnapshot& signals);

}  // namespace dbscale::scaler

#endif  // DBSCALE_SCALER_GUARDRAILS_H_
