// Resource demand estimator (Section 4 of the paper).
//
// Each signal is at best weakly predictive of demand; the estimator combines
// them with a manually-constructed hierarchy of rules built from domain
// knowledge of database engines. If multiple weak signals agree that demand
// is high, the likelihood of truly-high demand rises sharply.
//
// The hierarchy is a first-match-wins ordered rule table per resource. Each
// rule is a categorical precondition pattern plus an outcome in container
// *steps*: the paper constrains estimates to {0, 1, 2} steps up or down
// because 90% of observed demand changes are 1 rung and 98% are <= 2.
//
// Design choice (DESIGN.md): rules are *data*, so tests can enumerate them,
// explanations fall out of the matched rule, and ablation benchmarks can
// drop whole signal families (waits / trends / correlation).

#ifndef DBSCALE_SCALER_DEMAND_ESTIMATOR_H_
#define DBSCALE_SCALER_DEMAND_ESTIMATOR_H_

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/scaler/categories.h"
#include "src/scaler/explanation.h"

namespace dbscale::scaler {

/// Maximum container steps a single estimate may move (paper Section 4).
inline constexpr int kMaxDemandSteps = 2;

/// One rule of the hierarchy: a precondition pattern over the categorical
/// signals of a resource, and the demand steps implied when it matches.
struct DemandRule {
  /// Static storage: ResourceDemand::rule views it.
  std::string_view name;
  /// Precondition pattern; nullopt means "don't care".
  std::optional<Level> utilization;
  std::optional<Level> wait_magnitude;
  std::optional<Significance> wait_share;
  std::optional<Significance> correlation;
  /// Requires a significant increasing trend in utilization or waits.
  bool require_increasing_trend = false;
  /// Requires that neither utilization nor waits trend upward.
  bool forbid_increasing_trend = false;
  /// Requires the extreme variants (very high utilization / waits): used
  /// for 2-step rules.
  bool require_extreme = false;
  /// Demand outcome in [-kMaxDemandSteps, kMaxDemandSteps].
  int steps = 0;
  /// Stable code of this rule; rendered per-resource by
  /// Explanation::ToString().
  ExplanationCode code = ExplanationCode::kUnset;

  bool Matches(const ResourceCategories& r) const;
};

/// Demand steps of the rule with `code` in the static rule table (0 for
/// kUnset and for codes that are not rules).
int RuleSteps(ExplanationCode code);

/// Demand estimate for one resource: a view of the rule it matched.
struct ResourceDemand {
  int steps = 0;
  /// Name of the matched rule, in the static rule table (empty when no rule
  /// matched).
  std::string_view rule;
  /// Matched rule's code with `resource` filled in (kUnset: no match).
  Explanation explanation;
};
static_assert(std::is_trivially_copyable_v<ResourceDemand>);

/// \brief Demand estimate across all resources: the rule each matched.
struct DemandEstimate {
  DemandRules rules{};

  ResourceDemand For(container::ResourceKind kind) const;
  int Steps(container::ResourceKind kind) const {
    return RuleSteps(rules[static_cast<size_t>(kind)]);
  }
  bool AnyIncrease() const;
  bool AnyDecrease() const;
  /// True when no resource shows demand for more.
  bool NoneIncrease() const;
  /// True when every resource's demand is negative or zero with at least
  /// one negative.
  bool SuggestsShrink() const;

  /// DemandSummary over the resources whose demand rises (falls).
  std::string SummaryIncrease() const;
  std::string SummaryDecrease() const;
};

/// Ablation switches (each disables one signal family; used by
/// bench_ablation_signals and discussed in DESIGN.md).
struct DemandEstimatorOptions {
  bool use_waits = true;
  bool use_trends = true;
  bool use_correlation = true;
};

/// \brief Applies the rule hierarchy to categorized signals.
class DemandEstimator {
 public:
  explicit DemandEstimator(DemandEstimatorOptions options = {});

  DemandEstimate Estimate(const CategorizedSignals& signals) const;

  /// The active rule tables (after ablation transforms), for tests and
  /// debugging.
  const std::vector<DemandRule>& high_rules() const { return high_rules_; }
  const std::vector<DemandRule>& low_rules() const { return low_rules_; }

  const DemandEstimatorOptions& options() const { return options_; }

 private:
  void BuildRules();

  DemandEstimatorOptions options_;
  std::vector<DemandRule> high_rules_;
  std::vector<DemandRule> low_rules_;
};

}  // namespace dbscale::scaler

#endif  // DBSCALE_SCALER_DEMAND_ESTIMATOR_H_
