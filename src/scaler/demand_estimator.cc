#include "src/scaler/demand_estimator.h"

#include <iterator>

#include "src/common/check.h"

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

namespace {

constexpr auto kHigh = Level::kHigh;
constexpr auto kMedium = Level::kMedium;
constexpr auto kLow = Level::kLow;
constexpr auto kSig = Significance::kSignificant;
constexpr auto kNotSig = Significance::kNotSignificant;
constexpr auto kAny = std::nullopt;

// The static rule table: every rule of the hierarchy in ExplanationCode
// order, so a matched rule's code indexes it. Estimators select and adjust
// entries per ablation switch (BuildRules); ResourceDemand::rule views the
// names here.
constexpr DemandRule kRuleTable[] = {
    // ---- High-demand hierarchy (Section 4.2), most specific first. ----
    // (0) Overwhelming evidence on both axes: 2-step demand.
    {"severe-bottleneck", kHigh, kHigh, kSig, kAny, false, false,
     /*require_extreme=*/true, +2, ExplanationCode::kRuleSevereBottleneck},
    // (a) High utilization + high waits + significant share.
    {"high-util-high-wait", kHigh, kHigh, kSig, kAny, false, false, false,
     +1, ExplanationCode::kRuleHighUtilHighWait},
    // (b) High utilization + high waits, share not significant, but the
    // pressure is building.
    {"high-util-high-wait-trend", kHigh, kHigh, kNotSig, kAny,
     /*require_increasing_trend=*/true, false, false, +1,
     ExplanationCode::kRuleHighUtilHighWaitTrend},
    // (c) High utilization + medium waits + significant share + trend.
    {"high-util-med-wait-trend", kHigh, kMedium, kSig, kAny,
     /*require_increasing_trend=*/true, false, false, +1,
     ExplanationCode::kRuleHighUtilMedWaitTrend},
    // (d) High utilization + medium waits whose magnitude tracks latency.
    {"high-util-corr", kHigh, kMedium, kSig, kSig, false, false, false, +1,
     ExplanationCode::kRuleHighUtilCorrelation},
    // (e) Waits leading utilization: medium utilization but high,
    // significant, latency-correlated waits.
    {"wait-led-demand", kMedium, kHigh, kSig, kSig, false, false, false, +1,
     ExplanationCode::kRuleWaitLedDemand},
    // ---- Low-demand rules (Section 4.3): the other end of the spectrum.
    // Both axes near zero: 2-step shrink. BuildRules sets
    // forbid_increasing_trend when trends are in use.
    {"idle", kLow, kLow, kAny, kAny, false, false, /*require_extreme=*/true,
     -2, ExplanationCode::kRuleIdle},
    {"low-util-low-wait", kLow, kLow, kAny, kAny, false, false, false, -1,
     ExplanationCode::kRuleLowUtilLowWait},
    // ---- Waits ablated: a utilization-only estimator (what the Util
    // baseline's demand model looks like; kept for the ablation bench).
    {"util-extreme", kHigh, kAny, kAny, kAny, false, false,
     /*require_extreme=*/true, +2, ExplanationCode::kRuleUtilOnlyExtreme},
    {"util-high", kHigh, kAny, kAny, kAny, false, false, false, +1,
     ExplanationCode::kRuleUtilOnlyHigh},
    {"util-low", kLow, kAny, kAny, kAny, false, false, false, -1,
     ExplanationCode::kRuleUtilOnlyLow},
};

constexpr ExplanationCode kFirstRule = ExplanationCode::kRuleSevereBottleneck;
constexpr size_t kNumRules = std::size(kRuleTable);

constexpr bool RuleTableIsCodeIndexed() {
  for (size_t i = 0; i < kNumRules; ++i) {
    const DemandRule& rule = kRuleTable[i];
    const size_t code = static_cast<size_t>(rule.code);
    if (code != static_cast<size_t>(kFirstRule) + i || rule.steps == 0 ||
        rule.steps < -kMaxDemandSteps || rule.steps > kMaxDemandSteps) {
      return false;
    }
  }
  return true;
}
static_assert(RuleTableIsCodeIndexed(),
              "kRuleTable lists the kRule* codes in order, each with "
              "nonzero steps within kMaxDemandSteps");

/// The table entry for a kRule* code; nullptr for any other code.
const DemandRule* RuleFor(ExplanationCode code) {
  const size_t i = static_cast<size_t>(code) - static_cast<size_t>(kFirstRule);
  return code >= kFirstRule && i < kNumRules ? &kRuleTable[i] : nullptr;
}

const DemandRule& TableRule(ExplanationCode code) {
  const DemandRule* rule = RuleFor(code);
  DBSCALE_CHECK(rule != nullptr);
  return *rule;
}

}  // namespace

int RuleSteps(ExplanationCode code) {
  const DemandRule* rule = RuleFor(code);
  return rule != nullptr ? rule->steps : 0;
}

ResourceDemand DemandEstimate::For(ResourceKind kind) const {
  ResourceDemand d;
  const DemandRule* rule = RuleFor(rules[static_cast<size_t>(kind)]);
  if (rule != nullptr) {
    d.steps = rule->steps;
    d.rule = rule->name;
    d.explanation = Explanation(rule->code, kind);
  }
  return d;
}

bool DemandEstimate::AnyIncrease() const {
  for (ResourceKind kind : container::kAllResources) {
    if (Steps(kind) > 0) return true;
  }
  return false;
}

bool DemandEstimate::AnyDecrease() const {
  for (ResourceKind kind : container::kAllResources) {
    if (Steps(kind) < 0) return true;
  }
  return false;
}

bool DemandEstimate::NoneIncrease() const { return !AnyIncrease(); }

bool DemandEstimate::SuggestsShrink() const {
  return NoneIncrease() && AnyDecrease();
}

std::string DemandEstimate::SummaryIncrease() const {
  return DemandSummary(rules, +1);
}

std::string DemandEstimate::SummaryDecrease() const {
  return DemandSummary(rules, -1);
}

DemandEstimator::DemandEstimator(DemandEstimatorOptions options)
    : options_(options) {
  BuildRules();
}

void DemandEstimator::BuildRules() {
  high_rules_.clear();
  low_rules_.clear();
  auto add_low = [&](ExplanationCode code) {
    DemandRule rule = TableRule(code);
    rule.forbid_increasing_trend = options_.use_trends;
    low_rules_.push_back(rule);
  };

  if (!options_.use_waits) {
    high_rules_.push_back(TableRule(ExplanationCode::kRuleUtilOnlyExtreme));
    high_rules_.push_back(TableRule(ExplanationCode::kRuleUtilOnlyHigh));
    add_low(ExplanationCode::kRuleUtilOnlyLow);
    return;
  }

  high_rules_.push_back(TableRule(ExplanationCode::kRuleSevereBottleneck));
  high_rules_.push_back(TableRule(ExplanationCode::kRuleHighUtilHighWait));
  if (options_.use_trends) {
    high_rules_.push_back(
        TableRule(ExplanationCode::kRuleHighUtilHighWaitTrend));
    high_rules_.push_back(
        TableRule(ExplanationCode::kRuleHighUtilMedWaitTrend));
  }
  if (options_.use_correlation) {
    high_rules_.push_back(TableRule(ExplanationCode::kRuleHighUtilCorrelation));
    high_rules_.push_back(TableRule(ExplanationCode::kRuleWaitLedDemand));
  }
  add_low(ExplanationCode::kRuleIdle);
  add_low(ExplanationCode::kRuleLowUtilLowWait);
}

// dbscale-hot: runs once per decision; the estimate is four rule codes.
DemandEstimate DemandEstimator::Estimate(
    const CategorizedSignals& signals) const {
  DemandEstimate estimate;
  if (!signals.valid) return estimate;

  for (ResourceKind kind : container::kAllResources) {
    const ResourceCategories& r = signals.resource(kind);
    ExplanationCode& matched = estimate.rules[static_cast<size_t>(kind)];

    for (const DemandRule& rule : high_rules_) {
      if (rule.Matches(r)) {
        matched = rule.code;
        break;
      }
    }
    if (matched != ExplanationCode::kUnset) continue;

    // Low-memory demand cannot be read off utilization and waits: the
    // buffer pool keeps memory utilization high and waits low even when the
    // memory could be reclaimed (Section 4.3). Only ballooning — driven by
    // the auto-scaler — may conclude memory demand is low.
    if (kind == ResourceKind::kMemory) continue;

    for (const DemandRule& rule : low_rules_) {
      if (rule.Matches(r)) {
        matched = rule.code;
        break;
      }
    }
  }
  return estimate;
}

}  // namespace dbscale::scaler
