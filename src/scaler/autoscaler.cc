#include "src/scaler/autoscaler.h"

#include <algorithm>

#include "src/common/check.h"

namespace dbscale::scaler {

using container::ContainerSpec;
using container::ResourceKind;
using container::ResourceVector;

namespace {

// Auto balloons at BalloonOptions' defaults: a third of the gap per tick,
// abort on reads above 1.5x the baseline plus a margin (25/s, or 5% of
// the container's disk IOPS when larger), and 10 ticks of cooldown after
// an abort.
constexpr BalloonOptions kBalloon{};

}  // namespace

// Knobs and options are validated by Guardrails::Create.
// dbscale-lint: allow(options-validate)
Result<std::unique_ptr<AutoScaler>> AutoScaler::Create(
    const container::Catalog& catalog, const TenantKnobs& knobs,
    const GuardrailOptions& options) {
  DBSCALE_ASSIGN_OR_RETURN(Guardrails guardrails,
                           Guardrails::Create(catalog, knobs, options));
  return std::unique_ptr<AutoScaler>(
      new AutoScaler(catalog, std::move(guardrails)));
}

AutoScaler::AutoScaler(const container::Catalog& catalog,
                       Guardrails guardrails)
    : catalog_(catalog),
      guardrails_(std::move(guardrails)),
      balloon_(kBalloon) {}

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
  ScalingDecision d = DecideUnclamped(input);
  const bool clamped = guardrails_.FinishDecision(
      input, &d,
      [this](const ContainerSpec&,
             double budget) -> std::optional<ContainerSpec> {
        // Downsize to the most expensive affordable container.
        if (!AnyAffordable(budget)) return std::nullopt;
        return *catalog_.MostExpensiveWithin(budget);
      });
  if (clamped) {
    balloon_.Reset();
    memory_low_confirmed_ = false;
  }
  return d;
}

ScalingDecision AutoScaler::DecideUnclamped(const PolicyInput& input) {
  const telemetry::SignalSnapshot& signals = input.signals;
  const obs::Sink& sink = input.obs;
  if (std::optional<ScalingDecision> hold = guardrails_.Open(input)) {
    if (input.actuation.phase == ActuationPhase::kFailed) {
      // A failed resize aborts ballooning mid-flight: the memory override
      // was staged toward a container that will not arrive.
      if (balloon_.active()) {
        balloon_.Reset();
        hold->memory_limit_mb = input.current.resources.memory_mb;
      }
      memory_low_confirmed_ = false;
    }
    return *std::move(hold);
  }
  const DemandEstimate& est = guardrails_.estimate();
  if (sink.trace.enabled()) {
    // One rule_eval span per resource: which Section 4 rule fired (if any)
    // and the demand steps it implied.
    for (ResourceKind kind : container::kAllResources) {
      const ResourceDemand& rd = est.For(kind);
      const obs::SpanId rule_span = sink.trace.Start("rule_eval", input.now);
      sink.trace.AttrStr(rule_span, "resource",
                         container::ResourceKindToString(kind));
      sink.trace.Attr(rule_span, "steps", rd.steps);
      sink.trace.AttrStr(rule_span, "code",
                         ExplanationCodeToken(rd.explanation.code));
      sink.trace.End(rule_span, input.now);
    }
  }

  const int cur_rung = input.current.base_rung;

  // -------- Scale-up path --------
  if (guardrails_.perf_trigger() && est.AnyIncrease()) {
    if (std::optional<ScalingDecision> hold = guardrails_.BeginUp(input)) {
      return *std::move(hold);
    }
    std::optional<double> memory_restore;
    if (balloon_.active()) {
      // Demand returned mid-balloon: cancel and restore the allocation.
      balloon_.Reset();
      memory_restore = input.current.resources.memory_mb;
    }
    memory_low_confirmed_ = false;

    ResourceVector desired = input.current.resources;
    for (ResourceKind kind : container::kAllResources) {
      const int steps = est.Steps(kind);
      if (steps > 0) {
        const int rung = catalog_.ClampRung(cur_rung + steps);
        desired.Set(kind, catalog_.rung(rung).resources.Get(kind));
      }
    }

    const double budget = guardrails_.AvailableBudget();
    if (!AnyAffordable(budget)) {
      ScalingDecision d = HoldCurrent(
          input,
          Explanation(ExplanationCode::kHoldNoAffordableContainer));
      d.memory_limit_mb = memory_restore;
      return d;
    }
    const ContainerSpec within_budget =
        *catalog_.CheapestDominating(desired, budget);
    const ContainerSpec unconstrained = catalog_.CheapestDominating(desired);

    ScalingDecision d;
    d.target = within_budget;
    d.demand = desired;
    d.memory_limit_mb = memory_restore;
    if (d.target.id != input.current.id) {
      if (std::optional<ScalingDecision> hold =
              guardrails_.RefuseRejected(input, d.target)) {
        hold->memory_limit_mb = memory_restore;
        return *std::move(hold);
      }
      guardrails_.NoteScaleUp(input);
    }
    if (d.target.id == input.current.id) {
      d.explanation = Explanation::WithDemand(
          ExplanationCode::kHoldNoLargerAffordable, DetailKind::kIncrease,
          est.rules);
    } else if (within_budget.id != unconstrained.id) {
      d.explanation = Explanation::WithContainer(
          ExplanationCode::kScaleUpBudgetConstrained, unconstrained.name);
      d.explanation.args[0] = unconstrained.price_per_interval;
      d.explanation.args[1] = budget;
    } else {
      d.explanation = Explanation::WithDemand(
          ExplanationCode::kScaleUpDemand, DetailKind::kIncrease, est.rules);
    }
    return d;
  }

  if (std::optional<ScalingDecision> hold =
          guardrails_.HoldWithoutUpMove(input)) {
    if (hold->explanation.code == ExplanationCode::kHoldGoalMetSavings &&
        balloon_.active()) {
      // Demand returned mid-balloon with the goal met: no scale-up, but
      // cancel the balloon and restore the allocation.
      balloon_.Reset();
      hold = HoldCurrent(input,
                         Explanation(ExplanationCode::kHoldBalloonRevert));
      hold->memory_limit_mb = input.current.resources.memory_mb;
    }
    return *std::move(hold);
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
  if (std::optional<ScalingDecision> hold =
          guardrails_.HoldWithoutShrinkEvidence(input, memory_low_confirmed_)) {
    return *std::move(hold);
  }
  if (std::optional<ScalingDecision> hold =
          guardrails_.HoldForDownPatience(input)) {
    return *std::move(hold);
  }

  // Latency slack shrinks one rung even when the estimator's demand is
  // merely "not high".
  const bool slack_low = guardrails_.slack_low();
  ResourceVector desired = input.current.resources;
  for (ResourceKind kind : container::kAllResources) {
    if (kind == ResourceKind::kMemory) continue;
    int target_rung = cur_rung + std::min(est.Steps(kind), 0);
    if (slack_low) target_rung = std::min(target_rung, cur_rung - 1);
    target_rung = catalog_.ClampRung(target_rung);
    const double usage = signals.resource(kind).utilization_pct / 100.0 *
                         input.current.resources.Get(kind);
    target_rung = Guardrails::GuardShrink(
        target_rung, cur_rung, usage, [&](int rung) {
          return catalog_.rung(rung).resources.Get(kind);
        });
    if (target_rung < cur_rung) {
      desired.Set(kind, catalog_.rung(target_rung).resources.Get(kind));
    }
  }
  // Memory shrinks one rung at a time, and only after a balloon pass
  // confirmed the working set survives it.
  if (memory_low_confirmed_ && cur_rung > 0) {
    desired.Set(ResourceKind::kMemory,
                catalog_.rung(cur_rung - 1).resources.memory_mb);
  }

  const double budget = guardrails_.AvailableBudget();
  std::optional<ContainerSpec> chosen;
  if (AnyAffordable(budget)) {
    chosen = *catalog_.CheapestDominating(desired, budget);
    if (std::optional<ScalingDecision> hold =
            guardrails_.RefuseRejected(input, *chosen)) {
      return *std::move(hold);
    }
  }
  if (chosen.has_value() && chosen->price_per_interval <
                                input.current.price_per_interval) {
    const bool memory_was_confirmed = memory_low_confirmed_;
    guardrails_.ResetLowStreak();
    memory_low_confirmed_ = false;
    balloon_.Reset();
    ScalingDecision d;
    d.target = *chosen;
    if (est.AnyDecrease() || memory_was_confirmed) {
      d.explanation = Explanation::WithDemand(
          memory_was_confirmed
              ? ExplanationCode::kScaleDownMemoryReclaimable
              : ExplanationCode::kScaleDownDemand,
          DetailKind::kDecrease, est.rules);
    } else {
      d.explanation =
          Explanation(ExplanationCode::kScaleDownLatencySlack,
                      signals.latency_ms,
                      guardrails_.knobs().latency_goal->target_ms);
    }
    return d;
  }

  // A cheaper container is blocked by memory: validate low memory demand
  // with a balloon pass before touching it. (If a pass already confirmed
  // low memory demand, the shrink is merely waiting on the other
  // dimensions — do not balloon again.)
  if (cur_rung > 0 && !memory_low_confirmed_ &&
      balloon_.CanStart(input.interval_index)) {
    const double target_mb =
        catalog_.rung(cur_rung - 1).resources.memory_mb;
    const double start_mb = input.current.resources.memory_mb;
    if (target_mb < start_mb) {
      // Margin scaled to the container's disk capacity: cold-page churn on
      // a large container is not a meaningful I/O increase.
      const double margin =
          std::max(kBalloon.io_abort_margin_rps,
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
