// The Section 6 decision cycle every demand-driven policy runs, and the
// operational guardrails around it (Sections 5-6 of the paper, plus the
// asynchronous-resize resilience of src/fault/ and the host plane's
// migrations):
//
//   * the token-bucket budget: the interval's price is charged when the
//     cycle opens, and the decision is clamped to the tokens left (even a
//     hold must fit — the budget is a hard constraint, Section 2.3);
//   * the actuation-feedback state machine: a pending request holds the
//     one actuation channel, a failed one waits out an exponential backoff
//     and retries the same target until kResizeMaxAttempts, and a rejected
//     target is refused for a cooldown;
//   * the cycle itself: hold through warm-up or degraded telemetry,
//     categorize and estimate, scale up only on bad (or degrading) latency
//     with demand and outside the up-cooldown, hold when latency is not a
//     resource problem or the goal is met, and scale down only after low
//     demand has lasted the sensitivity's patience, under the projected
//     utilization guard;
//   * the migration note on scale-ups the tenant's host cannot absorb;
//   * the decision audit log (Section 4's explanations + diagnostics).
//
// AutoScaler and DiagonalScaler each compose one Guardrails and keep only
// how they size a move. The cycle's patience, cooldowns, guards and resize
// resilience are constants in guardrails.cc.

#ifndef DBSCALE_SCALER_GUARDRAILS_H_
#define DBSCALE_SCALER_GUARDRAILS_H_

#include <memory>
#include <optional>

#include "src/container/catalog.h"
#include "src/scaler/audit.h"
#include "src/scaler/budget_manager.h"
#include "src/scaler/categories.h"
#include "src/scaler/demand_estimator.h"
#include "src/scaler/knobs.h"
#include "src/scaler/policy.h"
#include "src/scaler/thresholds.h"

namespace dbscale::scaler {

/// What a caller may set on either policy: how signals are read (the
/// thresholds and the estimator's ablation switches) and the budget
/// strategy.
struct GuardrailOptions {
  SignalThresholds thresholds = SignalThresholds::Default();
  DemandEstimatorOptions estimator;
  /// Section 5's burst strategies: aggressive spends the bucket early,
  /// conservative keeps `budget_conservative_k` max-cost intervals of
  /// headroom and smooths the rest.
  BudgetStrategy budget_strategy = BudgetStrategy::kAggressive;
  int budget_conservative_k = 4;

  Status Validate() const;
};

/// \brief One policy instance's decision cycle and guardrails. Decide()
/// runs Open() (a non-null result is the decision), then the policy's
/// sizing through the cycle's steps — BeginUp()/NoteScaleUp() on the way
/// up, HoldWithoutUpMove(), then HoldWithoutShrinkEvidence() and
/// HoldForDownPatience() on the way down — then FinishDecision().
class Guardrails {
 public:
  /// Validates `knobs` and `options` and, when `knobs` carry a budget,
  /// builds its token bucket over `catalog`'s price range (errors if the
  /// budget cannot cover the period).
  static Result<Guardrails> Create(const container::Catalog& catalog,
                                   const TenantKnobs& knobs,
                                   const GuardrailOptions& options);

  /// Opens the cycle: charges `input.charged_cost`, the price of the
  /// interval that just ended, then returns the decision when the cycle
  /// stops before the policy's rules — actuation feedback (a hold, or the
  /// due retry of a failed target), warm-up, or degraded telemetry.
  /// Otherwise categorizes the signals, estimates demand, derives the up
  /// trigger and returns nullopt.
  std::optional<ScalingDecision> Open(const PolicyInput& input);

  /// The policy wants to scale up: ends the low-demand streak, and returns
  /// the kHoldUpCooldown hold while the last scale-up is too recent.
  std::optional<ScalingDecision> BeginUp(const PolicyInput& input);
  /// A scale-up was issued: ends the low-demand streak and starts the
  /// up-cooldown.
  void NoteScaleUp(const PolicyInput& input);

  /// With no up move: kHoldLatencyNotResource when latency is bad or
  /// degrading (more resources would not help), kHoldGoalMetSavings when
  /// the goal is met despite demand, nullopt otherwise.
  std::optional<ScalingDecision> HoldWithoutUpMove(const PolicyInput& input);
  /// kHoldDemandSteady unless an estimator shrink, latency slack or the
  /// policy's own `policy_evidence` says demand is low.
  std::optional<ScalingDecision> HoldWithoutShrinkEvidence(
      const PolicyInput& input, bool policy_evidence);
  /// Extends the low-demand streak; kHoldDownPatience until it reaches the
  /// sensitivity's patience.
  std::optional<ScalingDecision> HoldForDownPatience(const PolicyInput& input);
  /// Ends the low-demand streak (a shrink was taken, or the policy vetoed
  /// one).
  void ResetLowStreak() { low_streak_ = 0; }

  /// The saturation guard on a shrink (the "buffer for performance" both
  /// online techniques keep, Section 7.3): raises `level` toward `current`
  /// until `usage` projects under the guard utilization of
  /// `alloc_at(level)`, so a dimension never shrinks into a queueing
  /// cliff.
  template <typename AllocAt>
  static int GuardShrink(int level, int current, double usage,
                         AllocAt&& alloc_at) {
    while (level < current && !ShrinkFits(usage, alloc_at(level))) ++level;
    return level;
  }

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
  /// (and ends the low-demand streak) when the budget forced the target.
  template <typename Clamp>
  bool FinishDecision(const PolicyInput& input, ScalingDecision* d,
                      Clamp&& clamp) {
    const obs::SpanId span = input.obs.trace.Start("budget_check", input.now);
    const double budget = AvailableBudget();
    std::optional<container::ContainerSpec> forced;
    if (d->target.price_per_interval > budget) {
      forced = clamp(d->target, budget);
    }
    return Finish(input, span, budget, std::move(forced), d);
  }

  /// The open cycle's reading (valid after Open() returned nullopt).
  const DemandEstimate& estimate() const { return estimate_; }
  /// The up trigger: no latency goal, LOW sensitivity's persistent
  /// violation, or bad or degrading latency.
  bool perf_trigger() const { return perf_trigger_; }
  bool latency_bad() const { return latency_bad_; }
  /// Latency sits comfortably under the goal (set by
  /// HoldWithoutShrinkEvidence).
  bool slack_low() const { return slack_low_; }

  const TenantKnobs& knobs() const { return knobs_; }
  const BudgetManager* budget() const { return budget_.get(); }
  const AuditLog& audit() const { return audit_; }

 private:
  Guardrails(const TenantKnobs& knobs, const GuardrailOptions& options);

  /// Processes `input.actuation` lifecycle feedback (local resizes and
  /// migrations alike): a hold (pending / backoff / rejected / abandoned /
  /// saturated), the due retry of a failed target, or nullopt when the
  /// cycle should proceed.
  std::optional<ScalingDecision> HandleFeedback(const PolicyInput& input);
  bool Finish(const PolicyInput& input, obs::SpanId budget_span,
              double budget, std::optional<container::ContainerSpec> forced,
              ScalingDecision* d);
  /// Whether `usage` stays under the guard utilization of `alloc`.
  static bool ShrinkFits(double usage, double alloc);

  GuardrailOptions options_;
  TenantKnobs knobs_;
  DemandEstimator estimator_;
  std::unique_ptr<BudgetManager> budget_;

  /// The cycle's reading of the current decision.
  CategorizedSignals cats_;
  DemandEstimate estimate_;
  bool latency_bad_ = false;
  bool degrading_ = false;
  bool perf_trigger_ = false;
  bool slack_low_ = false;
  /// Consecutive low-demand and BAD-latency intervals.
  int low_streak_ = 0;
  int bad_streak_ = 0;
  /// Interval index of the last scale-up (-1000: none yet).
  int last_up_interval_ = -1000;

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
DominantWait FindDominantWait(const telemetry::SignalSnapshot& signals);

}  // namespace dbscale::scaler

#endif  // DBSCALE_SCALER_GUARDRAILS_H_
