#include "src/scaler/guardrails.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/telemetry/wait_class.h"

namespace dbscale::scaler {

using container::ContainerSpec;

Status GuardrailOptions::Validate() const {
  DBSCALE_RETURN_IF_ERROR(thresholds.Validate());
  if (down_latency_slack_ratio >= 1.0) {
    return Status::InvalidArgument(
        "down_latency_slack_ratio must be < 1 (<= 0 disables)");
  }
  if (down_patience_high < 1 || down_patience_medium < 1 ||
      down_patience_low < 1) {
    return Status::InvalidArgument("down patience values must be >= 1");
  }
  if (up_patience_low_sensitivity < 1) {
    return Status::InvalidArgument(
        "up_patience_low_sensitivity must be >= 1");
  }
  if (up_cooldown_intervals < 0) {
    return Status::InvalidArgument("up_cooldown_intervals must be >= 0");
  }
  if (down_projected_util_guard_pct <= 0.0 ||
      down_projected_util_guard_pct > 100.0) {
    return Status::InvalidArgument(
        "down_projected_util_guard_pct must be in (0, 100]");
  }
  if (budget_conservative_k < 1) {
    return Status::InvalidArgument("budget_conservative_k must be >= 1");
  }
  if (resize_max_attempts < 1) {
    return Status::InvalidArgument("resize_max_attempts must be >= 1");
  }
  if (resize_backoff_base_intervals < 1 || resize_backoff_multiplier < 1.0 ||
      resize_backoff_max_intervals < resize_backoff_base_intervals) {
    return Status::InvalidArgument("invalid resize backoff options");
  }
  if (resize_rejection_cooldown_intervals < 0) {
    return Status::InvalidArgument(
        "resize_rejection_cooldown_intervals must be >= 0");
  }
  return Status::OK();
}

int GuardrailOptions::DownPatience(Sensitivity sensitivity) const {
  switch (sensitivity) {
    case Sensitivity::kHigh:
      return down_patience_high;
    case Sensitivity::kMedium:
      return down_patience_medium;
    case Sensitivity::kLow:
      return down_patience_low;
  }
  return down_patience_medium;
}

Result<Guardrails> Guardrails::Create(const container::Catalog& catalog,
                                      const TenantKnobs& knobs,
                                      const GuardrailOptions& options) {
  DBSCALE_RETURN_IF_ERROR(options.Validate());
  Guardrails guardrails;
  guardrails.options_ = options;
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

void Guardrails::BeginDecision(const PolicyInput& input) {
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
}

double Guardrails::AvailableBudget() const {
  return budget_ ? budget_->available()
                 : std::numeric_limits<double>::infinity();
}

int Guardrails::BackoffIntervals(int failed_attempts) const {
  double intervals =
      static_cast<double>(options_.resize_backoff_base_intervals);
  for (int i = 1; i < failed_attempts; ++i) {
    intervals *= options_.resize_backoff_multiplier;
  }
  intervals = std::min(
      intervals, static_cast<double>(options_.resize_backoff_max_intervals));
  return std::max(1, static_cast<int>(intervals));
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
          input.interval_index + options_.resize_rejection_cooldown_intervals;
      // A rejected migration means no host in the fleet had capacity —
      // same cooldown bookkeeping, distinct explanation.
      Explanation e(migration ? ExplanationCode::kHoldHostSaturated
                              : ExplanationCode::kHoldResizeRejected,
                    fb.target.name);
      e.args[0] =
          static_cast<double>(options_.resize_rejection_cooldown_intervals);
      return HoldCurrent(input, std::move(e));
    }
    case ActuationPhase::kFailed: {
      if (fb.attempt >= options_.resize_max_attempts) {
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
    d.explanation =
        Explanation(ExplanationCode::kScaleRetryResize, plan.target.name);
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
  Explanation e(ExplanationCode::kHoldResizeRejected, target.name);
  e.args[0] =
      static_cast<double>(rejected_until_interval_ - input.interval_index);
  return HoldCurrent(input, std::move(e));
}

bool Guardrails::Finish(const PolicyInput& input,
                        const CategorizedSignals& cats,
                        const DemandEstimate& estimate,
                        obs::SpanId budget_span, double budget,
                        std::optional<ContainerSpec> forced,
                        ScalingDecision* d) {
  const obs::Sink& sink = input.obs;
  const bool clamped = forced.has_value();
  if (clamped) {
    d->target = *std::move(forced);
    Explanation e(ExplanationCode::kScaleDownForcedByBudget, budget);
    e.detail = d->explanation.ToString();
    d->explanation = std::move(e);
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
      Explanation e(ExplanationCode::kScaleTriggersMigration,
                    d->target.name);
      e.args[0] = static_cast<double>(d->target.base_rung);
      d->explanation = std::move(e);
    }
  }

  audit_.Record(input, cats, estimate, *d, decision_attempt_);
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
  DominantWait dominant;
  for (telemetry::WaitClass wc : telemetry::kAllWaitClasses) {
    const double pct = signals.wait_pct_by_class[static_cast<size_t>(wc)];
    if (pct > dominant.pct) {
      dominant.pct = pct;
      dominant.wait_class = wc;
    }
  }
  return dominant;
}

std::string DominantWaitNote(const telemetry::SignalSnapshot& signals) {
  const DominantWait dominant = FindDominantWait(signals);
  if (dominant.pct <= 0.0) return "no waits observed";
  return StrFormat("dominant waits: %s %.0f%%",
                   telemetry::WaitClassToString(dominant.wait_class),
                   dominant.pct);
}

}  // namespace dbscale::scaler
