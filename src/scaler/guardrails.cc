#include "src/scaler/guardrails.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/telemetry/wait_class.h"

namespace dbscale::scaler {

using container::ContainerSpec;

namespace {

// Categorization runs at CategorizeOptions' defaults: the 120 s latency
// projection and the 0.92 BAD fraction of the goal (Section 7.3's buffer
// for performance).
constexpr CategorizeOptions kCategorize{};

/// Consecutive low-demand intervals required before scaling down, by
/// sensitivity.
constexpr int kDownPatienceHigh = 5;
constexpr int kDownPatienceMedium = 3;
constexpr int kDownPatienceLow = 1;
/// With LOW sensitivity, consecutive BAD intervals required to scale up.
constexpr int kUpPatienceLowSensitivity = 2;
/// Latency-slack scale-down (Section 2.3: meet the goal with a smaller
/// container even when demand is high): when latency stays at or below
/// this fraction of the goal, try shrinking one step even without
/// low-demand signals.
constexpr double kDownLatencySlackRatio = 0.5;
/// Intervals to wait after a scale-up before scaling up again: a resize
/// takes effect online but queued backlog and the robust-aggregation
/// window keep latency looking bad for a little while; reacting to that
/// stale signal overshoots.
constexpr int kUpCooldownIntervals = 2;
/// Scale-down saturation guard: a dimension only shrinks if its projected
/// utilization on the smaller allocation (current usage / new allocation)
/// stays below this percentage. Prevents shrinking straight into a
/// queueing cliff (the "buffer for performance" both online techniques
/// keep, Section 7.3).
constexpr double kDownProjectedUtilGuardPct = 75.0;
/// Resize-lifecycle resilience (fault injection, Section 5 operational
/// notes): total attempts per target before the scaler abandons the
/// resize, and the exponential backoff (in billing intervals) between
/// attempts: base * multiplier^(failures-1), capped at the max.
constexpr int kResizeMaxAttempts = 4;
constexpr int kResizeBackoffBaseIntervals = 1;
constexpr double kResizeBackoffMultiplier = 2.0;
constexpr int kResizeBackoffMaxIntervals = 8;
/// Intervals a permanently-rejected target stays off-limits before the
/// scaler may request it again.
constexpr int kResizeRejectionCooldownIntervals = 10;

/// Consecutive low-demand intervals required before scaling down.
int DownPatience(Sensitivity sensitivity) {
  switch (sensitivity) {
    case Sensitivity::kHigh:
      return kDownPatienceHigh;
    case Sensitivity::kMedium:
      return kDownPatienceMedium;
    case Sensitivity::kLow:
      return kDownPatienceLow;
  }
  return kDownPatienceMedium;
}

/// Backoff before attempt `failed_attempts + 1`, in intervals (>= 1).
int BackoffIntervals(int failed_attempts) {
  double intervals = static_cast<double>(kResizeBackoffBaseIntervals);
  for (int i = 1; i < failed_attempts; ++i) {
    intervals *= kResizeBackoffMultiplier;
  }
  intervals =
      std::min(intervals, static_cast<double>(kResizeBackoffMaxIntervals));
  return std::max(1, static_cast<int>(intervals));
}

}  // namespace

Status GuardrailOptions::Validate() const {
  DBSCALE_RETURN_IF_ERROR(thresholds.Validate());
  if (budget_conservative_k < 1) {
    return Status::InvalidArgument("budget_conservative_k must be >= 1");
  }
  return Status::OK();
}

Result<Guardrails> Guardrails::Create(const container::Catalog& catalog,
                                      const TenantKnobs& knobs,
                                      const GuardrailOptions& options) {
  DBSCALE_RETURN_IF_ERROR(knobs.Validate());
  DBSCALE_RETURN_IF_ERROR(options.Validate());
  Guardrails guardrails(knobs, options);
  if (knobs.budget.has_value()) {
    BudgetManagerOptions bm;
    bm.total_budget = knobs.budget->total_budget;
    bm.num_intervals = knobs.budget->num_intervals;
    bm.min_cost = catalog.smallest().price_per_interval;
    bm.max_cost = catalog.largest().price_per_interval;
    bm.strategy = options.budget_strategy;
    bm.conservative_k = options.budget_conservative_k;
    DBSCALE_ASSIGN_OR_RETURN(BudgetManager manager,
                             BudgetManager::Create(bm));
    guardrails.budget_ = std::make_unique<BudgetManager>(std::move(manager));
  }
  return guardrails;
}

// Validation happens in Create(); this constructor is private and only
// reachable through it.
// dbscale-lint: allow(options-validate)
Guardrails::Guardrails(const TenantKnobs& knobs,
                       const GuardrailOptions& options)
    : options_(options), knobs_(knobs), estimator_(options.estimator) {}

// dbscale-hot: opens every decision; no heap once the audit log is full.
std::optional<ScalingDecision> Guardrails::Open(const PolicyInput& input) {
  if (budget_ && input.charged_cost > 0.0) {
    // The price of the interval that just ended arrives with the decision
    // cycle; Decide() sizes within available(), so a failed charge is a
    // harness bug.
    const Status status = budget_->ChargeAndRefill(input.charged_cost);
    if (!status.ok()) {
      DBSCALE_LOG(kError) << "budget charge failed: " << status.ToString();
    }
  }
  decision_attempt_ = 1;
  // Until Categorize runs, this decision has no reading of its own: the
  // audit record of a hold below carries no categories or estimate.
  cats_.valid = false;

  // Actuation-lifecycle feedback first: an in-flight, backing-off, rejected
  // or abandoned resize/migration preempts the signal-driven cycle.
  if (std::optional<ScalingDecision> d = HandleFeedback(input)) {
    low_streak_ = 0;
    return d;
  }
  const telemetry::SignalSnapshot& signals = input.signals;
  if (!signals.valid) {
    return HoldCurrent(input, Explanation(ExplanationCode::kHoldWarmup));
  }
  if (signals.degraded) {
    // Graceful degradation: an incomplete telemetry window (dropped or
    // rejected samples) cannot support a demand estimate — force demand to
    // 0 and hold rather than act on partial data.
    low_streak_ = 0;
    bad_streak_ = 0;
    return HoldCurrent(
        input, Explanation(ExplanationCode::kHoldDegradedTelemetry,
                           100.0 * signals.confidence));
  }

  const obs::Sink& sink = input.obs;
  const obs::SpanId cat_span = sink.trace.Start("categorize", input.now);
  cats_ = Categorize(signals, options_.thresholds, knobs_.latency_goal,
                     kCategorize);
  estimate_ = estimator_.Estimate(cats_);
  sink.trace.AttrStr(cat_span, "latency",
                     LatencyCategoryToString(cats_.latency));
  sink.trace.End(cat_span, input.now);

  const bool has_goal = knobs_.latency_goal.has_value();
  latency_bad_ = has_goal && cats_.latency == LatencyCategory::kBad;
  degrading_ = has_goal && cats_.latency_degrading;
  bad_streak_ = latency_bad_ ? bad_streak_ + 1 : 0;
  if (!has_goal) {
    // No latency goal: scale purely on demand (Section 2.3).
    perf_trigger_ = true;
  } else if (knobs_.sensitivity == Sensitivity::kLow) {
    // LOW sensitivity: slow to scale up — require persistent violations,
    // and ignore mere degradation trends.
    perf_trigger_ = latency_bad_ && bad_streak_ >= kUpPatienceLowSensitivity;
  } else {
    perf_trigger_ = latency_bad_ || degrading_;
  }
  return std::nullopt;
}

std::optional<ScalingDecision> Guardrails::BeginUp(const PolicyInput& input) {
  low_streak_ = 0;
  if (input.interval_index - last_up_interval_ < kUpCooldownIntervals) {
    return HoldCurrent(input, Explanation(ExplanationCode::kHoldUpCooldown));
  }
  return std::nullopt;
}

void Guardrails::NoteScaleUp(const PolicyInput& input) {
  low_streak_ = 0;
  last_up_interval_ = input.interval_index;
}

std::optional<ScalingDecision> Guardrails::HoldWithoutUpMove(
    const PolicyInput& input) {
  if (latency_bad_ || degrading_) {
    // Latency violated without resource demand: more resources will not
    // help (poor application code, lock contention, ...). Do not scale
    // (Section 2.3: latency goals are a knob, not a guarantee).
    low_streak_ = 0;
    return HoldCurrent(input,
                       Explanation::WithWait(
                           ExplanationCode::kHoldLatencyNotResource,
                           DetailKind::kDominantWait,
                           FindDominantWait(input.signals)));
  }
  if (knobs_.latency_goal.has_value() && estimate_.AnyIncrease()) {
    // Latency goal met: convert slack into savings by not chasing demand.
    low_streak_ = 0;
    return HoldCurrent(
        input, Explanation::WithDemand(ExplanationCode::kHoldGoalMetSavings,
                                       DetailKind::kIncrease,
                                       estimate_.rules));
  }
  return std::nullopt;
}

std::optional<ScalingDecision> Guardrails::HoldWithoutShrinkEvidence(
    const PolicyInput& input, bool policy_evidence) {
  // Latency slack (Section 2.3): when the goal is comfortably met, a
  // smaller container may still meet it — try shrinking even when the
  // estimator sees demand that is merely "not high".
  slack_low_ = knobs_.latency_goal.has_value() &&
               input.signals.latency_ms <=
                   kDownLatencySlackRatio * knobs_.latency_goal->target_ms;
  if (estimate_.SuggestsShrink() || slack_low_ || policy_evidence) {
    return std::nullopt;
  }
  low_streak_ = 0;
  return HoldCurrent(input, Explanation(ExplanationCode::kHoldDemandSteady));
}

std::optional<ScalingDecision> Guardrails::HoldForDownPatience(
    const PolicyInput& input) {
  ++low_streak_;
  const int patience = DownPatience(knobs_.sensitivity);
  if (low_streak_ < patience) {
    return HoldCurrent(input, Explanation(ExplanationCode::kHoldDownPatience,
                                          static_cast<double>(low_streak_),
                                          static_cast<double>(patience)));
  }
  return std::nullopt;
}

bool Guardrails::ShrinkFits(double usage, double alloc) {
  return alloc <= 0.0 || 100.0 * usage / alloc <= kDownProjectedUtilGuardPct;
}

double Guardrails::AvailableBudget() const {
  return budget_ ? budget_->available()
                 : std::numeric_limits<double>::infinity();
}

std::optional<ScalingDecision> Guardrails::HandleFeedback(
    const PolicyInput& input) {
  const ActuationFeedback& fb = input.actuation;
  const bool migration = fb.kind == ActuationKind::kMigration;
  switch (fb.phase) {
    case ActuationPhase::kNone:
      break;
    case ActuationPhase::kApplied:
      retry_.reset();
      audit_.NoteResizeOutcome(ResizeOutcome::kApplied, fb.attempt);
      break;  // The normal decision cycle proceeds from the new container.
    case ActuationPhase::kPending:
      // One actuation channel: never issue another request while one is in
      // flight. A pending migration gets its own code so tenants (and the
      // per-code counters) see the copy + blackout, not a generic resize.
      if (migration) {
        return HoldCurrent(
            input, Explanation(ExplanationCode::kHoldMigrationPending,
                               static_cast<double>(fb.attempt),
                               static_cast<double>(fb.downtime_intervals)));
      }
      return HoldCurrent(input,
                         Explanation(ExplanationCode::kHoldResizePending,
                                     static_cast<double>(fb.attempt)));
    case ActuationPhase::kRejected: {
      retry_.reset();
      audit_.NoteResizeOutcome(ResizeOutcome::kRejected, fb.attempt);
      rejected_target_id_ = fb.target.id;
      rejected_until_interval_ =
          input.interval_index + kResizeRejectionCooldownIntervals;
      // A rejected migration means no host in the fleet had capacity —
      // same cooldown bookkeeping, distinct explanation.
      Explanation e = Explanation::WithContainer(
          migration ? ExplanationCode::kHoldHostSaturated
                    : ExplanationCode::kHoldResizeRejected,
          fb.target.name);
      e.args[0] = static_cast<double>(kResizeRejectionCooldownIntervals);
      return HoldCurrent(input, std::move(e));
    }
    case ActuationPhase::kFailed: {
      if (fb.attempt >= kResizeMaxAttempts) {
        retry_.reset();
        audit_.NoteResizeOutcome(ResizeOutcome::kAbandoned, fb.attempt);
        return HoldCurrent(
            input, Explanation(ExplanationCode::kHoldResizeAbandoned,
                               static_cast<double>(fb.attempt)));
      }
      audit_.NoteResizeOutcome(ResizeOutcome::kFailed, fb.attempt);
      const int backoff = BackoffIntervals(fb.attempt);
      retry_ =
          RetryPlan{fb.target, fb.attempt, input.interval_index + backoff};
      return HoldCurrent(input,
                         Explanation(ExplanationCode::kHoldResizeBackoff,
                                     static_cast<double>(fb.attempt),
                                     static_cast<double>(backoff)));
    }
  }

  if (retry_.has_value()) {
    if (input.interval_index < retry_->retry_at_interval) {
      return HoldCurrent(
          input,
          Explanation(ExplanationCode::kHoldResizeBackoff,
                      static_cast<double>(retry_->failed_attempts),
                      static_cast<double>(retry_->retry_at_interval -
                                          input.interval_index)));
    }
    const RetryPlan plan = *retry_;
    retry_.reset();
    const int attempt = plan.failed_attempts + 1;
    const obs::Sink& sink = input.obs;
    const obs::SpanId retry_span = sink.trace.Start("decide.retry", input.now);
    sink.trace.Attr(retry_span, "attempt", attempt);
    sink.trace.Attr(retry_span, "target_rung", plan.target.base_rung);
    sink.trace.End(retry_span, input.now);
    if (sink.pipeline != nullptr) {
      sink.metrics.Add(sink.pipeline->resize_retries_total, 1.0);
    }
    decision_attempt_ = attempt;
    ScalingDecision d;
    d.target = plan.target;
    d.explanation = Explanation::WithContainer(
        ExplanationCode::kScaleRetryResize, plan.target.name);
    d.explanation.args[0] = static_cast<double>(attempt);
    return d;
  }
  return std::nullopt;
}

std::optional<ScalingDecision> Guardrails::RefuseRejected(
    const PolicyInput& input, const ContainerSpec& target) const {
  if (target.id != rejected_target_id_ ||
      input.interval_index >= rejected_until_interval_) {
    return std::nullopt;
  }
  Explanation e = Explanation::WithContainer(
      ExplanationCode::kHoldResizeRejected, target.name);
  e.args[0] =
      static_cast<double>(rejected_until_interval_ - input.interval_index);
  return HoldCurrent(input, std::move(e));
}

// dbscale-hot: closes every decision; no heap once the audit log is full.
bool Guardrails::Finish(const PolicyInput& input, obs::SpanId budget_span,
                        double budget, std::optional<ContainerSpec> forced,
                        ScalingDecision* d) {
  const obs::Sink& sink = input.obs;
  const bool clamped = forced.has_value();
  if (clamped) {
    low_streak_ = 0;
    d->target = *std::move(forced);
    // The overridden decision's resource, args and detail stay in place and
    // render as the parenthesized reason.
    Explanation& e = d->explanation;
    e.overridden = e.code;
    e.code = ExplanationCode::kScaleDownForcedByBudget;
    e.budget = budget;
  }
  if (budget_) sink.trace.Attr(budget_span, "available", budget);
  sink.trace.Attr(budget_span, "price", d->target.price_per_interval);
  sink.trace.Attr(budget_span, "clamped", clamped ? 1.0 : 0.0);
  sink.trace.End(budget_span, input.now);
  if (sink.pipeline != nullptr && budget_ != nullptr) {
    sink.metrics.Set(sink.pipeline->budget_available, budget_->available());
    sink.metrics.Set(sink.pipeline->budget_spent, budget_->spent());
    if (clamped) sink.metrics.Add(sink.pipeline->budget_clamps_total, 1.0);
  }

  if (input.placement.present && d->target.id != input.current.id &&
      d->target.price_per_interval > input.current.price_per_interval) {
    // With a host plane attached, a scale-up whose resource delta exceeds
    // the host's headroom will be actuated as a migration. The target
    // stands — placement is the harness's job — but the explanation says
    // what the tenant is in for (copy latency + blackout).
    bool fits_locally = true;
    for (const auto kind : container::kAllResources) {
      const double delta = d->target.resources.Get(kind) -
                           input.current.resources.Get(kind);
      if (delta > input.placement.free.Get(kind)) {
        fits_locally = false;
        break;
      }
    }
    if (!fits_locally) {
      Explanation e = Explanation::WithContainer(
          ExplanationCode::kScaleTriggersMigration, d->target.name);
      e.args[0] = static_cast<double>(d->target.base_rung);
      d->explanation = std::move(e);
    }
  }

  audit_.Record(input, cats_, estimate_, *d, decision_attempt_);
  return clamped;
}

ScalingDecision HoldCurrent(const PolicyInput& input,
                            Explanation explanation) {
  ScalingDecision d;
  d.target = input.current;
  d.explanation = std::move(explanation);
  return d;
}

DominantWait FindDominantWait(const telemetry::SignalSnapshot& signals) {
  DominantWait dominant{telemetry::WaitClass::kSystem, -1.0};
  for (telemetry::WaitClass wc : telemetry::kAllWaitClasses) {
    const double pct = signals.wait_pct_by_class[static_cast<size_t>(wc)];
    if (pct > dominant.pct) {
      dominant.pct = pct;
      dominant.wait_class = wc;
    }
  }
  return dominant;
}

}  // namespace dbscale::scaler
