#include "src/scaler/explanation.h"

#include "src/common/check.h"
#include "src/common/string_util.h"
#include "src/scaler/demand_estimator.h"

namespace dbscale::scaler {

namespace {

const char* ResourceName(const Explanation& e) {
  // kRule* codes are per-resource by construction; default defensively so
  // a mis-built Explanation still renders.
  const std::optional<container::ResourceKind> resource = e.resource();
  return resource.has_value() ? container::ResourceKindToString(*resource)
                              : "resource";
}

}  // namespace

const char* ExplanationCodeToken(ExplanationCode code) {
  switch (code) {
    case ExplanationCode::kUnset:
      return "unset";
    case ExplanationCode::kNote:
      return "note";
    case ExplanationCode::kHoldWarmup:
      return "hold_warmup";
    case ExplanationCode::kHoldUpCooldown:
      return "hold_up_cooldown";
    case ExplanationCode::kHoldNoAffordableContainer:
      return "hold_no_affordable_container";
    case ExplanationCode::kHoldNoLargerAffordable:
      return "hold_no_larger_affordable";
    case ExplanationCode::kScaleUpBudgetConstrained:
      return "scale_up_budget_constrained";
    case ExplanationCode::kScaleUpDemand:
      return "scale_up_demand";
    case ExplanationCode::kHoldLatencyNotResource:
      return "hold_latency_not_resource";
    case ExplanationCode::kHoldBalloonRevert:
      return "hold_balloon_revert";
    case ExplanationCode::kHoldGoalMetSavings:
      return "hold_goal_met_savings";
    case ExplanationCode::kHoldBalloonShrinking:
      return "hold_balloon_shrinking";
    case ExplanationCode::kHoldBalloonAborted:
      return "hold_balloon_aborted";
    case ExplanationCode::kBalloonCompleted:
      return "balloon_completed";
    case ExplanationCode::kHoldDemandSteady:
      return "hold_demand_steady";
    case ExplanationCode::kHoldDownPatience:
      return "hold_down_patience";
    case ExplanationCode::kHoldMemoryUnvalidated:
      return "hold_memory_unvalidated";
    case ExplanationCode::kScaleDownDemand:
      return "scale_down_demand";
    case ExplanationCode::kScaleDownMemoryReclaimable:
      return "scale_down_memory_reclaimable";
    case ExplanationCode::kScaleDownLatencySlack:
      return "scale_down_latency_slack";
    case ExplanationCode::kScaleDownForcedByBudget:
      return "scale_down_forced_by_budget";
    case ExplanationCode::kHoldResizePending:
      return "hold_resize_pending";
    case ExplanationCode::kHoldResizeBackoff:
      return "hold_resize_backoff";
    case ExplanationCode::kScaleRetryResize:
      return "scale_retry_resize";
    case ExplanationCode::kHoldResizeRejected:
      return "hold_resize_rejected";
    case ExplanationCode::kHoldResizeAbandoned:
      return "hold_resize_abandoned";
    case ExplanationCode::kHoldDegradedTelemetry:
      return "hold_degraded_telemetry";
    case ExplanationCode::kRuleSevereBottleneck:
      return "rule_severe_bottleneck";
    case ExplanationCode::kRuleHighUtilHighWait:
      return "rule_high_util_high_wait";
    case ExplanationCode::kRuleHighUtilHighWaitTrend:
      return "rule_high_util_high_wait_trend";
    case ExplanationCode::kRuleHighUtilMedWaitTrend:
      return "rule_high_util_med_wait_trend";
    case ExplanationCode::kRuleHighUtilCorrelation:
      return "rule_high_util_correlation";
    case ExplanationCode::kRuleWaitLedDemand:
      return "rule_wait_led_demand";
    case ExplanationCode::kRuleIdle:
      return "rule_idle";
    case ExplanationCode::kRuleLowUtilLowWait:
      return "rule_low_util_low_wait";
    case ExplanationCode::kRuleUtilOnlyExtreme:
      return "rule_util_only_extreme";
    case ExplanationCode::kRuleUtilOnlyHigh:
      return "rule_util_only_high";
    case ExplanationCode::kRuleUtilOnlyLow:
      return "rule_util_only_low";
    case ExplanationCode::kBaselineStatic:
      return "baseline_static";
    case ExplanationCode::kBaselineTraceSchedule:
      return "baseline_trace_schedule";
    case ExplanationCode::kUtilHold:
      return "util_hold";
    case ExplanationCode::kUtilWarmup:
      return "util_warmup";
    case ExplanationCode::kUtilScaleUp:
      return "util_scale_up";
    case ExplanationCode::kUtilAtMaxContainer:
      return "util_at_max_container";
    case ExplanationCode::kUtilScaleDown:
      return "util_scale_down";
    case ExplanationCode::kUtilDownCooldown:
      return "util_down_cooldown";
    case ExplanationCode::kHoldMigrationPending:
      return "hold_migration_pending";
    case ExplanationCode::kScaleTriggersMigration:
      return "scale_triggers_migration";
    case ExplanationCode::kHoldHostSaturated:
      return "hold_host_saturated";
    case ExplanationCode::kScaleDiagonalUp:
      return "scale_diagonal_up";
    case ExplanationCode::kScaleDiagonalDown:
      return "scale_diagonal_down";
    case ExplanationCode::kScaleDiagonalRebalance:
      return "scale_diagonal_rebalance";
    case ExplanationCode::kHoldBudgetBindingDimension:
      return "hold_budget_binding_dimension";
  }
  return "unknown";
}

std::string DemandSummary(const DemandRules& rules, int sign) {
  std::string out;
  for (container::ResourceKind kind : container::kAllResources) {
    const ExplanationCode rule = rules[static_cast<size_t>(kind)];
    const int steps = RuleSteps(rule);
    if (steps != 0 && (sign > 0) == (steps > 0)) {
      if (!out.empty()) out += "; ";
      out += StrFormat("%s %+d (%s)", container::ResourceKindToString(kind),
                       steps, Explanation(rule, kind).ToString().c_str());
    }
  }
  return out.empty() ? "no demand change" : out;
}

Explanation Explanation::WithContainer(ExplanationCode c,
                                       std::string_view name) {
  Explanation e(c);
  e.detail = DetailKind::kContainer;
  e.container = container::ContainerName(name);
  return e;
}

Explanation Explanation::WithDemand(ExplanationCode c, DetailKind summary,
                                    const DemandRules& rules) {
  DBSCALE_CHECK(summary == DetailKind::kIncrease ||
                summary == DetailKind::kDecrease);
  Explanation e(c);
  e.detail = summary;
  e.rules = rules;
  return e;
}

Explanation Explanation::WithWait(ExplanationCode c, DetailKind kind,
                                  DominantWait wait) {
  DBSCALE_CHECK(kind == DetailKind::kDominantWait ||
                kind == DetailKind::kWaitDirected);
  Explanation e(c);
  e.detail = kind;
  e.wait = wait;
  return e;
}

std::string Explanation::DetailText() const {
  switch (detail) {
    case DetailKind::kNone:
      return "";
    case DetailKind::kNote:
      return note;
    case DetailKind::kContainer:
      return std::string(container.view());
    case DetailKind::kIncrease:
      return DemandSummary(rules, +1);
    case DetailKind::kDecrease:
      return DemandSummary(rules, -1);
    case DetailKind::kDominantWait:
      if (wait.pct <= 0.0) return "no waits observed";
      return StrFormat("dominant waits: %s %.0f%%",
                       telemetry::WaitClassToString(wait.wait_class),
                       wait.pct);
    case DetailKind::kWaitDirected:
      return StrFormat("wait-directed: %s %.0f%% of waits",
                       telemetry::WaitClassToString(wait.wait_class),
                       wait.pct);
  }
  return "";
}

std::string Explanation::ToString() const {
  switch (code) {
    case ExplanationCode::kUnset:
      return "(no explanation)";
    case ExplanationCode::kNote:
      return DetailText();

    case ExplanationCode::kHoldWarmup:
      return "Hold: warming up (insufficient telemetry)";
    case ExplanationCode::kHoldUpCooldown:
      return "Hold: recent scale-up still taking effect (cooldown)";
    case ExplanationCode::kHoldNoAffordableContainer:
      return "Hold: scale-up needed but no container fits the available "
             "budget";
    case ExplanationCode::kHoldNoLargerAffordable:
      return StrFormat(
          "Hold: demand high (%s) but no larger affordable container",
          DetailText().c_str());
    case ExplanationCode::kScaleUpBudgetConstrained:
      return StrFormat(
          "Scale-up constrained by budget: wanted %s (%.1f) but budget "
          "allows %.1f",
          DetailText().c_str(), args[0], args[1]);
    case ExplanationCode::kScaleUpDemand:
      return DetailText();
    case ExplanationCode::kHoldLatencyNotResource:
      return StrFormat(
          "Hold: latency above goal but no resource demand (%s) — scaling "
          "would not help",
          DetailText().c_str());
    case ExplanationCode::kHoldBalloonRevert:
      return "Hold: demand returned during balloon — reverting memory";
    case ExplanationCode::kHoldGoalMetSavings:
      return StrFormat(
          "Hold: demand high (%s) but latency goal met — holding for cost",
          DetailText().c_str());
    case ExplanationCode::kHoldBalloonShrinking:
      return StrFormat("Hold: balloon shrinking to %.0f MB (target %.0f)",
                       args[0], args[1]);
    case ExplanationCode::kHoldBalloonAborted:
      return StrFormat(
          "Hold: balloon aborted at %.0f MB: reads %.0f/s vs baseline "
          "%.0f/s",
          args[0], args[1], args[2]);
    case ExplanationCode::kBalloonCompleted:
      return StrFormat("balloon reached %.0f MB with no I/O increase",
                       args[0]);
    case ExplanationCode::kHoldDemandSteady:
      return "Hold: demand steady";
    case ExplanationCode::kHoldDownPatience:
      return StrFormat(
          "Hold: demand low (%d/%d intervals before scale-down)",
          static_cast<int>(args[0]), static_cast<int>(args[1]));
    case ExplanationCode::kHoldMemoryUnvalidated:
      return "Hold: demand low but memory shrink not yet validated";
    case ExplanationCode::kScaleDownDemand:
      return StrFormat("Scale-down: %s", DetailText().c_str());
    case ExplanationCode::kScaleDownMemoryReclaimable:
      return StrFormat("Scale-down: memory reclaimable; %s",
                       DetailText().c_str());
    case ExplanationCode::kScaleDownLatencySlack:
      return StrFormat(
          "Scale-down: latency %.0fms well within goal %.0fms — smaller "
          "container suffices",
          args[0], args[1]);
    case ExplanationCode::kScaleDownForcedByBudget: {
      Explanation inner = *this;
      inner.code = overridden;
      inner.overridden = ExplanationCode::kUnset;
      return StrFormat(
          "Scale-down forced by budget: %.1f/interval available (%s)",
          budget, inner.ToString().c_str());
    }
    case ExplanationCode::kHoldResizePending:
      return StrFormat("Hold: resize in flight (attempt %d)",
                       static_cast<int>(args[0]));
    case ExplanationCode::kHoldResizeBackoff:
      return StrFormat(
          "Hold: resize attempt %d failed — backing off %d intervals "
          "before retry",
          static_cast<int>(args[0]), static_cast<int>(args[1]));
    case ExplanationCode::kScaleRetryResize:
      return StrFormat("Retry resize to %s (attempt %d)", DetailText().c_str(),
                       static_cast<int>(args[0]));
    case ExplanationCode::kHoldResizeRejected:
      return StrFormat(
          "Hold: resize to %s rejected by the service — cooling down %d "
          "intervals",
          DetailText().c_str(), static_cast<int>(args[0]));
    case ExplanationCode::kHoldResizeAbandoned:
      return StrFormat(
          "Hold: resize abandoned after %d failed attempts",
          static_cast<int>(args[0]));
    case ExplanationCode::kHoldDegradedTelemetry:
      return StrFormat(
          "Hold: telemetry degraded (window %.0f%% complete) — demand "
          "forced to 0",
          args[0]);

    case ExplanationCode::kRuleSevereBottleneck:
      return StrFormat(
          "Scale-up by 2: severe %s bottleneck (extreme utilization and "
          "waits)",
          ResourceName(*this));
    case ExplanationCode::kRuleHighUtilHighWait:
      return StrFormat(
          "Scale-up: %s bottleneck (high utilization and waits)",
          ResourceName(*this));
    case ExplanationCode::kRuleHighUtilHighWaitTrend:
      return StrFormat(
          "Scale-up: %s pressure rising (high utilization/waits trending "
          "up)",
          ResourceName(*this));
    case ExplanationCode::kRuleHighUtilMedWaitTrend:
      return StrFormat(
          "Scale-up: %s demand growing (medium waits, significant share, "
          "trending up)",
          ResourceName(*this));
    case ExplanationCode::kRuleHighUtilCorrelation:
      return StrFormat("Scale-up: %s waits correlate with latency",
                       ResourceName(*this));
    case ExplanationCode::kRuleWaitLedDemand:
      return StrFormat("Scale-up: %s waits high and correlated with latency",
                       ResourceName(*this));
    case ExplanationCode::kRuleIdle:
      return StrFormat("Scale-down by 2: %s essentially idle",
                       ResourceName(*this));
    case ExplanationCode::kRuleLowUtilLowWait:
      return StrFormat("Scale-down: %s utilization and waits low",
                       ResourceName(*this));
    case ExplanationCode::kRuleUtilOnlyExtreme:
      return StrFormat("Scale-up: %s utilization extremely high",
                       ResourceName(*this));
    case ExplanationCode::kRuleUtilOnlyHigh:
      return StrFormat("Scale-up: %s utilization high", ResourceName(*this));
    case ExplanationCode::kRuleUtilOnlyLow:
      return StrFormat("Scale-down: %s utilization low",
                       ResourceName(*this));

    case ExplanationCode::kBaselineStatic:
      return "static container";
    case ExplanationCode::kBaselineTraceSchedule:
      return "trace schedule";
    case ExplanationCode::kUtilHold:
      return "hold";
    case ExplanationCode::kUtilWarmup:
      return "warming up";
    case ExplanationCode::kUtilScaleUp:
      return StrFormat(
          "Scale-up: latency %.0fms over goal %.0fms with utilization "
          "%.0f%%",
          args[0], args[1], args[2]);
    case ExplanationCode::kUtilAtMaxContainer:
      return "latency bad but already at the largest container";
    case ExplanationCode::kUtilScaleDown:
      return StrFormat(
          "Scale-down: latency %.0fms within goal and utilization low",
          args[0]);
    case ExplanationCode::kUtilDownCooldown:
      return "cooldown before scale-down";

    case ExplanationCode::kHoldMigrationPending:
      return StrFormat(
          "Hold: migration in flight (attempt %d, %d downtime intervals so "
          "far)",
          static_cast<int>(args[0]), static_cast<int>(args[1]));
    case ExplanationCode::kScaleTriggersMigration:
      return StrFormat(
          "Scale-up to %s does not fit on the current host — migrating "
          "(target rung %d)",
          DetailText().c_str(), static_cast<int>(args[0]));
    case ExplanationCode::kHoldHostSaturated:
      return StrFormat(
          "Hold: no host has capacity for %s — cooling down %d intervals",
          DetailText().c_str(), static_cast<int>(args[0]));

    case ExplanationCode::kScaleDiagonalUp:
      return StrFormat(
          "Diagonal scale-up: %s (%.1f -> %.1f units/interval)",
          DetailText().c_str(), args[1], args[0]);
    case ExplanationCode::kScaleDiagonalDown:
      return StrFormat(
          "Diagonal scale-down: %s (%.1f -> %.1f units/interval)",
          DetailText().c_str(), args[1], args[0]);
    case ExplanationCode::kScaleDiagonalRebalance:
      return StrFormat(
          "Diagonal rebalance to %s: %d dimension(s) up, %d down",
          DetailText().c_str(), static_cast<int>(args[0]),
          static_cast<int>(args[1]));
    case ExplanationCode::kHoldBudgetBindingDimension:
      return StrFormat(
          "Hold: budget %.1f binds on %s (%d grid step(s) short of demand)",
          args[1], ResourceName(*this), static_cast<int>(args[0]));
  }
  return "(no explanation)";
}

obs::MetricId RegisterDecisionCounters(obs::MetricRegistry* registry) {
  obs::MetricId base = 0;
  for (size_t c = 0; c < kNumExplanationCodes; ++c) {
    const std::string name =
        StrFormat("dbscale_decisions_total{code=\"%s\"}",
                  ExplanationCodeToken(static_cast<ExplanationCode>(c)));
    const obs::MetricId id = registry->Counter(
        name, "Scaling decisions by explanation code");
    if (c == 0) {
      base = id;
    } else {
      // The per-code counter block must stay contiguous so recording is
      // base + code; interleaved registration would break that.
      DBSCALE_CHECK(id == base + static_cast<obs::MetricId>(c));
    }
  }
  return base;
}

}  // namespace dbscale::scaler
