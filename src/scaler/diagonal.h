// Diagonal scaling (PAPERS.md, arxiv 2511.21612): size each resource
// dimension independently instead of walking the lock-step rung ladder.
//
// Where Auto answers "which rung?", the diagonal scaler answers "how much
// CPU, how much memory, how much disk I/O, how much log I/O?" — a
// per-resource demand vector estimated from the same Section 4 signals —
// and then buys the cheapest purchasable bundle that covers the vector
// within the interval's token-bucket budget. On a FlexibleCatalog any grid
// combination is purchasable and the optimizer searches the per-dimension
// grids exactly; on a FixedRungCatalog the purchasable set is the listed
// specs and the same optimizer degenerates to the paper's
// cheapest-dominating search.
//
// The optimizer is a small exact branch-and-bound (<= 4 dimensions x <= 41
// grid levels): when the covering bundle fits the budget it is provably the
// cheapest dominating bundle (prices are separable and per-dimension
// monotone); when the budget binds it minimizes first the total demand
// shortfall (in grid steps) and then price, reporting the binding dimension
// so the tenant's explanation names what the budget is starving.

#ifndef DBSCALE_SCALER_DIAGONAL_H_
#define DBSCALE_SCALER_DIAGONAL_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/container/catalog.h"
#include "src/scaler/audit.h"
#include "src/scaler/budget_manager.h"
#include "src/scaler/guardrails.h"
#include "src/scaler/knobs.h"
#include "src/scaler/policy.h"

namespace dbscale::scaler {

/// \brief Exact budgeted multi-dimensional bundle search over a Catalog's
/// per-dimension offer grids.
///
/// Construction snapshots the catalog's grids and price components into
/// fixed arrays; Solve() is then deterministic and allocation-free
/// (alloc-guard enforced), suitable for the per-tenant decision hot path.
class DiagonalOptimizer {
 public:
  /// The cheapest bundle covering a demand vector within a budget.
  struct Target {
    /// Per-dimension grid levels of the chosen bundle.
    container::GridLevels levels{};
    /// Listed-spec index on fixed catalogs; -1 on flexible ones.
    int spec_index = -1;
    /// Purchase price of the bundle.
    double price = 0.0;
    /// Total grid steps of unmet demand (0 when demand is fully covered).
    int shortfall_steps = 0;
    /// Dimension with the largest shortfall when the budget binds.
    container::ResourceKind binding_dimension = container::ResourceKind::kCpu;
    /// True when the budget prevented covering the full demand vector.
    bool budget_limited = false;
    /// False when not even the cheapest bundle fits the budget.
    bool feasible = false;
  };

  explicit DiagonalOptimizer(const container::Catalog& catalog);

  /// Solves for the cheapest purchasable bundle dominating `demand` with
  /// price <= `budget`; when none exists, the feasible bundle minimizing
  /// (total shortfall steps, then price). Deterministic: ties break toward
  /// the first candidate in fixed enumeration order.
  Target Solve(const container::ResourceVector& demand, double budget) const;

  /// The container for a solved target (grid bundle or listed spec).
  container::ContainerSpec Materialize(const Target& target) const;

  /// Smallest grid level covering `demand` in `kind` (top level if none).
  int LevelFor(container::ResourceKind kind, double demand) const;
  /// Largest grid level with value <= `value` ("cover" of an allocation).
  int LevelWithin(container::ResourceKind kind, double value) const;
  /// Grid value at a level.
  double ValueAt(container::ResourceKind kind, int level) const;
  int grid_size(container::ResourceKind kind) const {
    return grid_size_[static_cast<size_t>(kind)];
  }
  /// Grid levels per lock-step rung step (1 on fixed catalogs).
  int levels_per_rung() const { return levels_per_rung_; }
  bool flexible() const { return flexible_; }

 private:
  Target SolveFlexible(const container::GridLevels& need,
                       double budget) const;
  Target SolveFixed(const container::GridLevels& need, double budget) const;

  container::Catalog catalog_;
  bool flexible_ = false;
  int levels_per_rung_ = 1;
  std::array<int, container::kNumResources> grid_size_{};
  std::array<std::array<double, container::kMaxGridLevels>,
             container::kNumResources>
      grid_value_{};
  std::array<std::array<double, container::kMaxGridLevels>,
             container::kNumResources>
      dim_price_{};
  /// Cheapest completion of dimensions [d, kNumResources): sum of each
  /// remaining dimension's level-0 price component (budget lower bound).
  std::array<double, container::kNumResources + 1> min_rest_{};
  /// Fixed-path tables (empty on flexible catalogs): per listed spec
  /// (ascending price), its price and the largest grid level each
  /// dimension covers.
  std::vector<double> spec_price_;
  std::vector<container::GridLevels> spec_cover_;
};

/// \brief The diagonal scaling policy: per-resource demand vector +
/// budgeted multi-dimensional optimizer, run through the same Guardrails
/// cycle as Auto (warm-up and degraded holds, up trigger and cooldown,
/// down patience, saturation guard, budget, actuation lifecycle,
/// migration note, audit). It adds shed-floor learning, wait-directed
/// growth and a latency gate on sheds.
///
/// Differences from Auto, by design:
///   * Each dimension moves independently — one decision can grow CPU while
///     shedding disk I/O (kScaleDiagonalRebalance).
///   * Memory shrinks on the same evidence as other dimensions (projected
///     utilization under the guard); there is no balloon pass — the
///     flexible grid's fine memory steps make the probe's risk window
///     smaller than a full rung drop.
///   * When the budget binds, the decision reports the binding dimension
///     and the shortfall in grid steps (kHoldBudgetBindingDimension).
class DiagonalScaler : public ScalingPolicy {
 public:
  /// Errors if knobs or options are invalid or the budget cannot cover the
  /// period.
  static Result<std::unique_ptr<DiagonalScaler>> Create(
      const container::Catalog& catalog, const TenantKnobs& knobs,
      const GuardrailOptions& options = {});

  ScalingDecision Decide(const PolicyInput& input) override;
  std::string name() const override { return "Diagonal"; }

  /// Introspection (tests, drill-down experiments).
  const BudgetManager* budget() const { return guardrails_.budget(); }
  const AuditLog& audit() const { return guardrails_.audit(); }

 private:
  DiagonalScaler(const container::Catalog& catalog, Guardrails guardrails);

  ScalingDecision DecideUnclamped(const PolicyInput& input);
  /// Mean absolute per-resource usage for the ended interval: engine truth
  /// when the harness provides it, utilization x allocation otherwise.
  container::ResourceVector UsageVector(const PolicyInput& input) const;

  container::Catalog catalog_;
  Guardrails guardrails_;
  DiagonalOptimizer optimizer_;

  /// Shed-floor learning: the last decision that lowered any dimension,
  /// and per-dimension floors raised when latency broke within
  /// kDownBreachWindowIntervals of it. A bad shed gets probed once, not
  /// every time latency dips back under the gate.
  int last_down_interval_ = -1000;
  container::GridLevels last_down_from_{};
  container::GridLevels last_down_to_{};
  container::GridLevels down_floor_{};
  std::array<int, container::kNumResources> down_floor_until_{};

  /// Demand vector computed during the last Decide (zero before the signal
  /// window warms up); copied into every decision's `demand` field.
  container::ResourceVector last_estimate_demand_;
};

}  // namespace dbscale::scaler

#endif  // DBSCALE_SCALER_DIAGONAL_H_
