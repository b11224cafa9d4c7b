// Structured scaling-decision explanations.
//
// Every ScalingDecision carries an Explanation: a stable ExplanationCode
// (covering the Section 4 rule hierarchy plus the baseline, budget and
// balloon reasons), the resource it refers to (when per-resource), a small
// numeric payload, and a structured detail for composed summaries. The
// paper surfaces decision reasons to tenants; making them an enum (a)
// lets trace spans and metrics carry the code instead of parsing prose,
// and (b) pins the user-visible text in exactly one place:
// Explanation::ToString() is the ONLY code that renders explanation text.
//
// An Explanation is plain fixed-size data with no heap string: the detail
// holds the estimate's matched rules, a container name, the dominant wait
// or a static literal, and the prose is rendered only when someone reads
// it. So a decision, and the audit record that keeps it, cost no heap.

#ifndef DBSCALE_SCALER_EXPLANATION_H_
#define DBSCALE_SCALER_EXPLANATION_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/container/container.h"
#include "src/obs/metrics.h"
#include "src/telemetry/wait_class.h"

namespace dbscale::scaler {

/// Stable machine-readable decision reasons. Values are contiguous from 0
/// (kUnset) so they can index a per-code decision-counter block; append new
/// codes at the end of their group and update kNumExplanationCodes.
enum class ExplanationCode : uint8_t {
  kUnset = 0,
  /// Escape hatch for harness-synthesized decisions (benches, offline
  /// schedules); its detail, a static literal, is rendered verbatim.
  kNote,

  // -------- Auto scaler decision cycle --------
  kHoldWarmup,
  kHoldUpCooldown,
  kHoldNoAffordableContainer,
  kHoldNoLargerAffordable,      ///< detail = increase summary
  kScaleUpBudgetConstrained,    ///< detail = wanted name; args: wanted
                                ///  price, available budget
  kScaleUpDemand,               ///< detail = increase summary
  kHoldLatencyNotResource,      ///< detail = dominant-wait note
  kHoldBalloonRevert,
  kHoldGoalMetSavings,          ///< detail = increase summary
  kHoldBalloonShrinking,        ///< args: current limit MB, target MB
  kHoldBalloonAborted,          ///< args: limit MB, reads/s, baseline/s
  kBalloonCompleted,            ///< args: target MB
  kHoldDemandSteady,
  kHoldDownPatience,            ///< args: low streak, patience
  kHoldMemoryUnvalidated,
  kScaleDownDemand,             ///< detail = decrease summary
  kScaleDownMemoryReclaimable,  ///< detail = decrease summary
  kScaleDownLatencySlack,       ///< args: latency ms, goal ms
  kScaleDownForcedByBudget,     ///< `overridden` = the decision the budget
                                ///  overrode (its resource, args and
                                ///  detail stay); `budget` = available
  kHoldResizePending,           ///< args: attempt
  kHoldResizeBackoff,           ///< args: failed attempt, intervals until
                                ///  retry
  kScaleRetryResize,            ///< detail = target name; args: attempt
  kHoldResizeRejected,          ///< detail = target name; args: cooldown
                                ///  intervals remaining
  kHoldResizeAbandoned,         ///< args: attempts made
  kHoldDegradedTelemetry,       ///< args: window coverage %

  // -------- Section 4 demand-rule hierarchy (resource required) --------
  kRuleSevereBottleneck,
  kRuleHighUtilHighWait,
  kRuleHighUtilHighWaitTrend,
  kRuleHighUtilMedWaitTrend,
  kRuleHighUtilCorrelation,
  kRuleWaitLedDemand,
  kRuleIdle,
  kRuleLowUtilLowWait,
  kRuleUtilOnlyExtreme,  ///< waits-ablated estimator
  kRuleUtilOnlyHigh,
  kRuleUtilOnlyLow,

  // -------- Baseline policies --------
  kBaselineStatic,
  kBaselineTraceSchedule,
  kUtilHold,
  kUtilWarmup,
  kUtilScaleUp,         ///< args: latency ms, goal ms, max utilization %
  kUtilAtMaxContainer,
  kUtilScaleDown,       ///< args: latency ms
  kUtilDownCooldown,

  // -------- Host placement / migration (appended: codes index counter
  // blocks, so existing values must not shift) --------
  kHoldMigrationPending,    ///< args: attempt, downtime intervals so far
  kScaleTriggersMigration,  ///< detail = target name; args: target rung
  kHoldHostSaturated,       ///< detail = target name; args: cooldown
                            ///  intervals remaining

  // -------- Diagonal scaling (appended: codes index counter blocks, so
  // existing values must not shift) --------
  kScaleDiagonalUp,         ///< detail = demand summary; args: new price,
                            ///  old price
  kScaleDiagonalDown,       ///< detail = demand summary; args: new price,
                            ///  old price
  kScaleDiagonalRebalance,  ///< detail = target bundle name; args: dims
                            ///  scaled up, dims scaled down
  kHoldBudgetBindingDimension,  ///< resource = binding dimension; args:
                                ///  shortfall grid steps, available budget
};

inline constexpr size_t kNumExplanationCodes =
    static_cast<size_t>(ExplanationCode::kHoldBudgetBindingDimension) + 1;

/// Stable snake_case token for metrics labels / trace attributes.
const char* ExplanationCodeToken(ExplanationCode code);

/// The Section 4 rule each resource matched (kUnset: none), indexed by
/// resource: a demand estimate as data. A rule's steps follow from its code
/// (RuleSteps in demand_estimator.h).
using DemandRules = std::array<ExplanationCode, container::kNumResources>;

/// What fills the composed part of an explanation's sentence (the
/// per-code comments above say which codes have one).
enum class DetailKind : uint8_t {
  kNone,
  kNote,          ///< `note`: a static string literal, verbatim
  kContainer,     ///< `container`: the target, or the unconstrained
                  ///  "wanted" bundle
  kIncrease,      ///< `rules`: "cpu +1 (<rule explanation>); ..." over the
                  ///  resources whose demand rises ("no demand change")
  kDecrease,      ///< `rules`: the same over the resources whose demand falls
  kDominantWait,  ///< `wait`: "dominant waits: Lock 92%"
  kWaitDirected,  ///< `wait`: "wait-directed: Lock 92% of waits"
};

/// The wait class holding the largest share of waits, as FindDominantWait
/// (guardrails.h) reads it. No member initializers: it lives in
/// Explanation's detail union.
struct DominantWait {
  telemetry::WaitClass wait_class;
  double pct;
};

/// \brief One decision's reason: code + payload; ToString() renders the
/// canonical human-readable text.
struct Explanation {
  ExplanationCode code = ExplanationCode::kUnset;
  /// kScaleDownForcedByBudget: the code of the decision the budget
  /// overrode. That decision's resource, args and detail stay in this
  /// explanation and render in parentheses.
  ExplanationCode overridden = ExplanationCode::kUnset;
  /// Which payload member the composed part of the text reads.
  DetailKind detail = DetailKind::kNone;

 private:
  /// The resource, or kNoResource. One byte rather than an optional keeps
  /// AuditRecord within its size budget.
  static constexpr uint8_t kNoResource = 0xFF;
  uint8_t resource_ = kNoResource;

 public:
  /// The estimate's matched rules: the payload of kIncrease/kDecrease, and
  /// in an AuditRecord the decision's estimate.
  DemandRules rules{};
  /// Numeric payload (see per-code comments); unused slots are 0.
  std::array<double, 3> args{};
  /// kScaleDownForcedByBudget: the budget available for the interval.
  double budget = 0.0;
  /// The detail payload; `detail` says which member is set.
  union {
    container::ContainerName container = container::ContainerName();
    const char* note;
    DominantWait wait;
  };

  Explanation() = default;
  explicit Explanation(ExplanationCode c) : code(c) {}
  /// `note` is kept by pointer, so it must be a string literal.
  Explanation(ExplanationCode c, const char* note)
      : code(c), detail(DetailKind::kNote), note(note) {}
  Explanation(ExplanationCode c, container::ResourceKind r)
      : code(c), resource_(static_cast<uint8_t>(r)) {}
  Explanation(ExplanationCode c, double a0, double a1 = 0.0, double a2 = 0.0)
      : code(c), args{a0, a1, a2} {}

  /// Detail = a container name (at most kMaxContainerNameLength bytes).
  static Explanation WithContainer(ExplanationCode c, std::string_view name);
  /// Detail = the increase or decrease summary (`summary`) of `rules`.
  static Explanation WithDemand(ExplanationCode c, DetailKind summary,
                                const DemandRules& rules);
  /// Detail = a dominant-wait note (`kind` kDominantWait or kWaitDirected).
  static Explanation WithWait(ExplanationCode c, DetailKind kind,
                              DominantWait wait);

  /// The resource the code refers to (required for kRule* codes; the
  /// binding dimension of kHoldBudgetBindingDimension).
  std::optional<container::ResourceKind> resource() const {
    if (resource_ == kNoResource) return std::nullopt;
    return static_cast<container::ResourceKind>(resource_);
  }

  bool set() const { return code != ExplanationCode::kUnset; }

  /// Renders the canonical text. This is the single place explanation
  /// prose exists; every other layer stores the data or forwards the text.
  std::string ToString() const;

 private:
  /// The composed part of the text (empty for kNone).
  std::string DetailText() const;
};

static_assert(std::is_trivially_copyable_v<Explanation>);

/// "cpu +1 (<rule explanation>); ..." over the resources whose demand
/// rises (`sign` > 0) or falls (`sign` < 0) under `rules`; "no demand
/// change" when none does.
std::string DemandSummary(const DemandRules& rules, int sign);

/// Registers one counter per ExplanationCode as a contiguous id block
/// (names `dbscale_decisions_total{code="<token>"}`); returns the id for
/// code 0 — the counter for code `c` is `base + static_cast<MetricId>(c)`.
/// Idempotent; CHECKs that the block stayed contiguous.
obs::MetricId RegisterDecisionCounters(obs::MetricRegistry* registry);

}  // namespace dbscale::scaler

#endif  // DBSCALE_SCALER_EXPLANATION_H_
