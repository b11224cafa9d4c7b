#include "src/scaler/demand_estimator.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/string_util.h"

namespace dbscale::scaler {

using container::ResourceKind;

bool DemandRule::Matches(const ResourceCategories& r) const {
  if (utilization.has_value() && r.utilization != *utilization) return false;
  if (wait_magnitude.has_value() && r.wait_magnitude != *wait_magnitude) {
    return false;
  }
  if (wait_share.has_value() && r.wait_share != *wait_share) return false;
  if (correlation.has_value() && r.wait_latency_correlation != *correlation) {
    return false;
  }
  if (require_increasing_trend && !r.AnyIncreasingTrend()) return false;
  if (forbid_increasing_trend && r.AnyIncreasingTrend()) return false;
  if (require_extreme) {
    if (steps > 0 && !(r.utilization_extreme || r.wait_extreme)) {
      return false;
    }
    if (steps < 0 && !(r.utilization_very_low && r.wait_very_low)) {
      return false;
    }
  }
  return true;
}

bool DemandEstimate::AnyIncrease() const {
  for (const ResourceDemand& d : demand) {
    if (d.steps > 0) return true;
  }
  return false;
}

bool DemandEstimate::AnyDecrease() const {
  for (const ResourceDemand& d : demand) {
    if (d.steps < 0) return true;
  }
  return false;
}

bool DemandEstimate::NoneIncrease() const { return !AnyIncrease(); }

bool DemandEstimate::SuggestsShrink() const {
  return NoneIncrease() && AnyDecrease();
}

namespace {

std::string SummarizeSign(const DemandEstimate& estimate, int sign) {
  std::string out;
  for (ResourceKind kind : container::kAllResources) {
    const ResourceDemand& d = estimate.For(kind);
    if (d.steps != 0 && (sign > 0) == (d.steps > 0)) {
      if (!out.empty()) out += "; ";
      out += StrFormat("%s %+d (%s)",
                       container::ResourceKindToString(kind), d.steps,
                       d.explanation.ToString().c_str());
    }
  }
  return out.empty() ? "no demand change" : out;
}

}  // namespace

std::string DemandEstimate::SummaryIncrease() const {
  return SummarizeSign(*this, +1);
}

std::string DemandEstimate::SummaryDecrease() const {
  return SummarizeSign(*this, -1);
}

DemandEstimator::DemandEstimator(DemandEstimatorOptions options)
    : options_(options) {
  BuildRules();
}

void DemandEstimator::BuildRules() {
  const auto kHigh = Level::kHigh;
  const auto kMedium = Level::kMedium;
  const auto kLow = Level::kLow;
  const auto kSig = Significance::kSignificant;
  const auto kNotSig = Significance::kNotSignificant;

  high_rules_.clear();
  low_rules_.clear();

  if (!options_.use_waits) {
    // Ablated to a utilization-only estimator (what the Util baseline's
    // demand model looks like; kept here for the ablation bench).
    high_rules_.push_back(DemandRule{
        "util-extreme", kHigh, std::nullopt, std::nullopt, std::nullopt,
        false, false, /*require_extreme=*/true, +2,
        ExplanationCode::kRuleUtilOnlyExtreme});
    high_rules_.push_back(DemandRule{
        "util-high", kHigh, std::nullopt, std::nullopt, std::nullopt,
        false, false, false, +1, ExplanationCode::kRuleUtilOnlyHigh});
    DemandRule down{"util-low", kLow, std::nullopt, std::nullopt,
                    std::nullopt, false, options_.use_trends, false, -1,
                    ExplanationCode::kRuleUtilOnlyLow};
    low_rules_.push_back(down);
    return;
  }

  // ---- High-demand hierarchy (Section 4.2), most specific first. ----
  // (0) Overwhelming evidence on both axes: 2-step demand.
  high_rules_.push_back(DemandRule{
      "severe-bottleneck", kHigh, kHigh, kSig, std::nullopt, false, false,
      /*require_extreme=*/true, +2, ExplanationCode::kRuleSevereBottleneck});
  // (a) High utilization + high waits + significant share.
  high_rules_.push_back(DemandRule{
      "high-util-high-wait", kHigh, kHigh, kSig, std::nullopt, false, false,
      false, +1, ExplanationCode::kRuleHighUtilHighWait});
  if (options_.use_trends) {
    // (b) High utilization + high waits, share not significant, but the
    // pressure is building.
    high_rules_.push_back(DemandRule{
        "high-util-high-wait-trend", kHigh, kHigh, kNotSig, std::nullopt,
        /*require_increasing_trend=*/true, false, false, +1,
        ExplanationCode::kRuleHighUtilHighWaitTrend});
    // (c) High utilization + medium waits + significant share + trend.
    high_rules_.push_back(DemandRule{
        "high-util-med-wait-trend", kHigh, kMedium, kSig, std::nullopt,
        /*require_increasing_trend=*/true, false, false, +1,
        ExplanationCode::kRuleHighUtilMedWaitTrend});
  }
  if (options_.use_correlation) {
    // (d) High utilization + medium waits whose magnitude tracks latency.
    high_rules_.push_back(DemandRule{
        "high-util-corr", kHigh, kMedium, kSig, kSig, false, false, false,
        +1, ExplanationCode::kRuleHighUtilCorrelation});
    // (e) Waits leading utilization: medium utilization but high,
    // significant, latency-correlated waits.
    high_rules_.push_back(DemandRule{
        "wait-led-demand", kMedium, kHigh, kSig, kSig, false, false, false,
        +1, ExplanationCode::kRuleWaitLedDemand});
  }

  // ---- Low-demand rules (Section 4.3): the other end of the spectrum. ----
  // Both axes near zero: 2-step shrink.
  low_rules_.push_back(DemandRule{
      "idle", kLow, kLow, std::nullopt, std::nullopt, false,
      /*forbid_increasing_trend=*/options_.use_trends,
      /*require_extreme=*/true, -2, ExplanationCode::kRuleIdle});
  low_rules_.push_back(DemandRule{
      "low-util-low-wait", kLow, kLow, std::nullopt, std::nullopt, false,
      /*forbid_increasing_trend=*/options_.use_trends, false, -1,
      ExplanationCode::kRuleLowUtilLowWait});
}

DemandEstimate DemandEstimator::Estimate(
    const CategorizedSignals& signals) const {
  DemandEstimate estimate;
  if (!signals.valid) return estimate;

  for (ResourceKind kind : container::kAllResources) {
    const ResourceCategories& r = signals.resource(kind);
    ResourceDemand& d = estimate.demand[static_cast<size_t>(kind)];

    for (const DemandRule& rule : high_rules_) {
      if (rule.Matches(r)) {
        d.steps = std::clamp(rule.steps, -kMaxDemandSteps, kMaxDemandSteps);
        d.rule = rule.name;
        d.explanation = Explanation(rule.code, kind);
        break;
      }
    }
    if (d.steps != 0) continue;

    // Low-memory demand cannot be read off utilization and waits: the
    // buffer pool keeps memory utilization high and waits low even when the
    // memory could be reclaimed (Section 4.3). Only ballooning — driven by
    // the auto-scaler — may conclude memory demand is low.
    if (kind == ResourceKind::kMemory) continue;

    for (const DemandRule& rule : low_rules_) {
      if (rule.Matches(r)) {
        d.steps = std::clamp(rule.steps, -kMaxDemandSteps, kMaxDemandSteps);
        d.rule = rule.name;
        d.explanation = Explanation(rule.code, kind);
        break;
      }
    }
  }
  return estimate;
}

}  // namespace dbscale::scaler
