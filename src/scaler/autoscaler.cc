#include "src/scaler/autoscaler.h"

#include <algorithm>

#include "src/common/check.h"

namespace dbscale::scaler {

using container::ContainerSpec;
using container::ResourceKind;
using container::ResourceVector;

Result<std::unique_ptr<AutoScaler>> AutoScaler::Create(
    const container::Catalog& catalog, const TenantKnobs& knobs,
    const AutoScalerOptions& options) {
  DBSCALE_RETURN_IF_ERROR(knobs.Validate());
  DBSCALE_ASSIGN_OR_RETURN(
      Guardrails guardrails,
      Guardrails::Create(catalog, knobs, options.guardrails));
  return std::unique_ptr<AutoScaler>(
      new AutoScaler(catalog, knobs, options, std::move(guardrails)));
}

AutoScaler::AutoScaler(const container::Catalog& catalog,
                       const TenantKnobs& knobs,
                       const AutoScalerOptions& options,
                       Guardrails guardrails)
    : catalog_(catalog),
      knobs_(knobs),
      options_(options),
      estimator_(options.guardrails.estimator),
      guardrails_(std::move(guardrails)),
      balloon_(options.balloon) {}

void AutoScaler::RecordBalloonAdvice(const BalloonController::Advice& advice,
                                     obs::SpanId span,
                                     const PolicyInput& input) {
  const obs::Sink& sink = input.obs;
  sink.trace.AttrStr(span, "outcome",
                     advice.aborted      ? "aborted"
                     : advice.completed  ? "completed"
                                         : "shrinking");
  if (advice.memory_limit_mb.has_value()) {
    sink.trace.Attr(span, "limit_mb", *advice.memory_limit_mb);
  }
  sink.trace.End(span, input.now);
  if (sink.pipeline != nullptr) {
    sink.metrics.Add(sink.pipeline->balloon_ticks_total, 1.0);
    if (advice.aborted) {
      sink.metrics.Add(sink.pipeline->balloon_aborts_total, 1.0);
    }
    if (advice.completed) {
      sink.metrics.Add(sink.pipeline->balloon_completions_total, 1.0);
    }
  }
}

ScalingDecision AutoScaler::Decide(const PolicyInput& input) {
  guardrails_.BeginDecision(input);
  ScalingDecision d = DecideUnclamped(input);
  const bool clamped = guardrails_.FinishDecision(
      input, last_cats_, last_estimate_, &d,
      [this](const ContainerSpec&,
             double budget) -> std::optional<ContainerSpec> {
        // Downsize to the most expensive affordable container.
        auto affordable = catalog_.MostExpensiveWithin(budget);
        if (!affordable.ok()) return std::nullopt;
        return *affordable;
      });
  if (clamped) {
    balloon_.Reset();
    memory_low_confirmed_ = false;
    low_streak_ = 0;
  }
  return d;
}

ScalingDecision AutoScaler::DecideUnclamped(const PolicyInput& input) {
  const telemetry::SignalSnapshot& signals = input.signals;
  const obs::Sink& sink = input.obs;
  // Actuation-lifecycle feedback first: an in-flight, backing-off, rejected
  // or abandoned resize/migration preempts the signal-driven cycle.
  if (std::optional<ScalingDecision> d = guardrails_.HandleFeedback(input)) {
    if (input.actuation.phase == ActuationPhase::kFailed) {
      // A failed resize aborts ballooning mid-flight: the memory override
      // was staged toward a container that will not arrive.
      if (balloon_.active()) {
        balloon_.Reset();
        d->memory_limit_mb = input.current.resources.memory_mb;
      }
      memory_low_confirmed_ = false;
    }
    low_streak_ = 0;
    return *std::move(d);
  }
  if (!signals.valid) {
    return HoldCurrent(input,
                       Explanation(ExplanationCode::kHoldWarmup));
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

  const obs::SpanId cat_span = sink.trace.Start("categorize", input.now);
  last_cats_ = Categorize(signals, options_.guardrails.thresholds,
                          knobs_.latency_goal, options_.guardrails.categorize);
  last_estimate_ = estimator_.Estimate(last_cats_);
  sink.trace.AttrStr(cat_span, "latency",
                     LatencyCategoryToString(last_cats_.latency));
  sink.trace.End(cat_span, input.now);
  if (sink.trace.enabled()) {
    // One rule_eval span per resource: which Section 4 rule fired (if any)
    // and the demand steps it implied.
    for (ResourceKind kind : container::kAllResources) {
      const ResourceDemand& rd = last_estimate_.For(kind);
      const obs::SpanId rule_span = sink.trace.Start("rule_eval", input.now);
      sink.trace.AttrStr(rule_span, "resource",
                         container::ResourceKindToString(kind));
      sink.trace.Attr(rule_span, "steps", rd.steps);
      sink.trace.AttrStr(rule_span, "code",
                         ExplanationCodeToken(rd.explanation.code));
      sink.trace.End(rule_span, input.now);
    }
  }
  const CategorizedSignals& cats = last_cats_;
  const DemandEstimate& est = last_estimate_;

  const bool has_goal = knobs_.latency_goal.has_value();
  const bool latency_bad =
      has_goal && cats.latency == LatencyCategory::kBad;
  const bool degrading = has_goal && cats.latency_degrading;
  bad_streak_ = latency_bad ? bad_streak_ + 1 : 0;

  const int cur_rung = input.current.base_rung;

  // -------- Scale-up path --------
  bool perf_trigger = false;
  if (!has_goal) {
    // No latency goal: scale purely on demand (Section 2.3).
    perf_trigger = true;
  } else if (knobs_.sensitivity == Sensitivity::kLow) {
    // LOW sensitivity: slow to scale up — require persistent violations,
    // and ignore mere degradation trends.
    perf_trigger =
        latency_bad &&
        bad_streak_ >= options_.guardrails.up_patience_low_sensitivity;
  } else {
    perf_trigger = latency_bad || degrading;
  }

  const bool in_up_cooldown =
      input.interval_index - last_up_interval_ <
      options_.guardrails.up_cooldown_intervals;
  if (perf_trigger && est.AnyIncrease() && in_up_cooldown) {
    low_streak_ = 0;
    return HoldCurrent(input,
                       Explanation(ExplanationCode::kHoldUpCooldown));
  }

  if (perf_trigger && est.AnyIncrease()) {
    low_streak_ = 0;
    std::optional<double> memory_restore;
    if (balloon_.active()) {
      // Demand returned mid-balloon: cancel and restore the allocation.
      balloon_.Reset();
      memory_restore = input.current.resources.memory_mb;
    }
    memory_low_confirmed_ = false;

    ResourceVector desired = input.current.resources;
    for (ResourceKind kind : container::kAllResources) {
      const int steps = est.For(kind).steps;
      if (steps > 0) {
        const int rung = catalog_.ClampRung(cur_rung + steps);
        desired.Set(kind, catalog_.rung(rung).resources.Get(kind));
      }
    }

    auto within_budget =
        catalog_.CheapestDominating(desired, guardrails_.AvailableBudget());
    if (!within_budget.ok()) {
      ScalingDecision d = HoldCurrent(
          input,
          Explanation(ExplanationCode::kHoldNoAffordableContainer));
      d.memory_limit_mb = memory_restore;
      return d;
    }
    const ContainerSpec unconstrained = catalog_.CheapestDominating(desired);

    ScalingDecision d;
    d.target = *within_budget;
    d.demand = desired;
    d.memory_limit_mb = memory_restore;
    if (d.target.id != input.current.id) {
      if (std::optional<ScalingDecision> hold =
              guardrails_.RefuseRejected(input, d.target)) {
        hold->memory_limit_mb = memory_restore;
        return *std::move(hold);
      }
      last_up_interval_ = input.interval_index;
    }
    if (d.target.id == input.current.id) {
      d.explanation = Explanation(ExplanationCode::kHoldNoLargerAffordable,
                                  est.SummaryIncrease());
    } else if (within_budget->id != unconstrained.id) {
      d.explanation =
          Explanation(ExplanationCode::kScaleUpBudgetConstrained,
                      unconstrained.name);
      d.explanation.args[0] = unconstrained.price_per_interval;
      d.explanation.args[1] = guardrails_.AvailableBudget();
    } else {
      d.explanation = Explanation(ExplanationCode::kScaleUpDemand,
                                  est.SummaryIncrease());
    }
    return d;
  }

  if (latency_bad || degrading) {
    // Latency violated without resource demand: more resources will not
    // help (poor application code, lock contention, ...). Do not scale
    // (Section 2.3: latency goals are a knob, not a guarantee).
    low_streak_ = 0;
    return HoldCurrent(
        input, Explanation(ExplanationCode::kHoldLatencyNotResource,
                           DominantWaitNote(signals)));
  }

  if (has_goal && est.AnyIncrease()) {
    // Latency goal met: convert slack into savings by not chasing demand.
    low_streak_ = 0;
    if (balloon_.active()) {
      balloon_.Reset();
      ScalingDecision d = HoldCurrent(
          input, Explanation(ExplanationCode::kHoldBalloonRevert));
      d.memory_limit_mb = input.current.resources.memory_mb;
      return d;
    }
    return HoldCurrent(input,
                       Explanation(ExplanationCode::kHoldGoalMetSavings,
                                   est.SummaryIncrease()));
  }

  // -------- Balloon progression --------
  if (balloon_.active()) {
    const obs::SpanId balloon_span = sink.trace.Start("balloon", input.now);
    BalloonController::Advice advice =
        balloon_.Tick(signals.physical_reads_per_sec, input.interval_index);
    RecordBalloonAdvice(advice, balloon_span, input);
    if (advice.completed) {
      memory_low_confirmed_ = true;
      // Fall through: the scale-down path can now shrink memory.
    } else {
      ScalingDecision d = HoldCurrent(input, advice.explanation);
      d.memory_limit_mb = advice.memory_limit_mb;
      return d;
    }
  }

  // -------- Scale-down path --------
  // Latency slack (Section 2.3): when the goal is comfortably met, a
  // smaller container may still meet it — try one rung down even when the
  // estimator sees demand that is merely "not high".
  const double slack_ratio = options_.guardrails.down_latency_slack_ratio;
  const bool slack_low =
      has_goal && slack_ratio > 0.0 &&
      signals.latency_ms <= slack_ratio * knobs_.latency_goal->target_ms;
  const bool demand_low =
      est.SuggestsShrink() || memory_low_confirmed_ || slack_low;
  if (!demand_low) {
    low_streak_ = 0;
    return HoldCurrent(input,
                       Explanation(ExplanationCode::kHoldDemandSteady));
  }
  ++low_streak_;
  const int patience = options_.guardrails.DownPatience(knobs_.sensitivity);
  if (low_streak_ < patience) {
    return HoldCurrent(input, Explanation(ExplanationCode::kHoldDownPatience,
                                          static_cast<double>(low_streak_),
                                          static_cast<double>(patience)));
  }

  ResourceVector desired = input.current.resources;
  for (ResourceKind kind : container::kAllResources) {
    if (kind == ResourceKind::kMemory) continue;
    int target_rung = cur_rung + std::min(est.For(kind).steps, 0);
    if (slack_low) target_rung = std::min(target_rung, cur_rung - 1);
    target_rung = catalog_.ClampRung(target_rung);
    // Saturation guard: raise the target rung until the dimension's
    // current usage fits under the guard utilization.
    const double usage = signals.resource(kind).utilization_pct / 100.0 *
                         input.current.resources.Get(kind);
    while (target_rung < cur_rung) {
      const double alloc = catalog_.rung(target_rung).resources.Get(kind);
      if (alloc <= 0.0 ||
          100.0 * usage / alloc <=
              options_.guardrails.down_projected_util_guard_pct) {
        break;
      }
      ++target_rung;
    }
    if (target_rung < cur_rung) {
      desired.Set(kind, catalog_.rung(target_rung).resources.Get(kind));
    }
  }
  // Memory shrinks one rung at a time, and (with ballooning enabled) only
  // after a balloon pass confirmed the working set survives it.
  const bool memory_may_shrink =
      memory_low_confirmed_ || !options_.enable_ballooning;
  if (memory_may_shrink && cur_rung > 0) {
    desired.Set(ResourceKind::kMemory,
                catalog_.rung(cur_rung - 1).resources.memory_mb);
  }

  auto chosen =
      catalog_.CheapestDominating(desired, guardrails_.AvailableBudget());
  if (chosen.ok()) {
    if (std::optional<ScalingDecision> hold =
            guardrails_.RefuseRejected(input, *chosen)) {
      return *std::move(hold);
    }
  }
  if (chosen.ok() && chosen->price_per_interval <
                         input.current.price_per_interval) {
    const bool memory_was_confirmed = memory_low_confirmed_;
    low_streak_ = 0;
    memory_low_confirmed_ = false;
    balloon_.Reset();
    ScalingDecision d;
    d.target = *chosen;
    if (est.AnyDecrease() || memory_was_confirmed) {
      d.explanation = Explanation(
          memory_was_confirmed
              ? ExplanationCode::kScaleDownMemoryReclaimable
              : ExplanationCode::kScaleDownDemand,
          est.SummaryDecrease());
    } else {
      d.explanation =
          Explanation(ExplanationCode::kScaleDownLatencySlack,
                      signals.latency_ms, knobs_.latency_goal->target_ms);
    }
    return d;
  }

  // A cheaper container is blocked by memory: validate low memory demand
  // with a balloon pass before touching it. (If a pass already confirmed
  // low memory demand, the shrink is merely waiting on the other
  // dimensions — do not balloon again.)
  if (options_.enable_ballooning && cur_rung > 0 &&
      !memory_low_confirmed_ && balloon_.CanStart(input.interval_index)) {
    const double target_mb =
        catalog_.rung(cur_rung - 1).resources.memory_mb;
    const double start_mb = input.current.resources.memory_mb;
    if (target_mb < start_mb) {
      // Margin scaled to the container's disk capacity: cold-page churn on
      // a large container is not a meaningful I/O increase.
      const double margin = std::max(
          options_.balloon.io_abort_margin_rps,
          0.05 * input.current.resources.disk_iops);
      const Status started =
          balloon_.Start(start_mb, target_mb,
                         signals.physical_reads_per_sec,
                         input.interval_index, margin);
      if (started.ok()) {
        const obs::SpanId balloon_span =
            sink.trace.Start("balloon", input.now);
        BalloonController::Advice advice = balloon_.Tick(
            signals.physical_reads_per_sec, input.interval_index);
        RecordBalloonAdvice(advice, balloon_span, input);
        ScalingDecision d = HoldCurrent(input, advice.explanation);
        d.memory_limit_mb = advice.memory_limit_mb;
        return d;
      }
    }
  }
  return HoldCurrent(
      input, Explanation(ExplanationCode::kHoldMemoryUnvalidated));
}

}  // namespace dbscale::scaler
