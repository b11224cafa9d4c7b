#include "src/scaler/diagonal.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"
#include "src/telemetry/wait_class.h"

namespace dbscale::scaler {

using container::ContainerSpec;
using container::GridLevels;
using container::ResourceKind;
using container::ResourceVector;

namespace {

/// Demand for a dimension is usage / (kTargetUtilizationPct / 100): the
/// allocation at which observed usage would sit at the target utilization
/// (the "buffer for performance" Section 7.3 keeps).
constexpr double kTargetUtilizationPct = 70.0;
/// No shed happens while latency exceeds this fraction of the goal: near
/// the goal, queueing at low utilization means an "idle" dimension can
/// still be load-bearing.
constexpr double kDownLatencyGateRatio = 0.65;
/// Grid levels a dimension may shed in a single down move.
constexpr int kDownMaxLevelsPerMove = 1;
/// A latency breach within this many intervals of a down move floors the
/// shed dimensions at their pre-shed levels...
constexpr int kDownBreachWindowIntervals = 3;
/// ...for this long. Floors expire so post-burst descents are not locked
/// out forever.
constexpr int kDownFloorTtlIntervals = 90;
/// Wait-directed correction: when latency is bad but no Section 4 rule
/// fires (waits pile up in a dimension whose utilization looks idle —
/// exactly the state a per-dimension shed can create), the dimension
/// behind the dominant wait class grows one grid level, provided that
/// class holds at least this share of waits.
constexpr double kWaitDirectedUpMinPct = 25.0;

}  // namespace

// ---------------------------------------------------------------------------
// DiagonalOptimizer
// ---------------------------------------------------------------------------

DiagonalOptimizer::DiagonalOptimizer(const container::Catalog& catalog)
    : catalog_(catalog), flexible_(catalog.flexible()) {
  for (ResourceKind kind : container::kAllResources) {
    const size_t d = static_cast<size_t>(kind);
    const int n = catalog.GridSize(kind);
    DBSCALE_CHECK(n >= 1 && n <= container::kMaxGridLevels);
    grid_size_[d] = n;
    for (int l = 0; l < n; ++l) {
      grid_value_[d][l] = catalog.GridValue(kind, l);
      dim_price_[d][l] = catalog.DimensionPrice(kind, l);
    }
  }
  min_rest_[container::kNumResources] = 0.0;
  for (int d = container::kNumResources - 1; d >= 0; --d) {
    min_rest_[d] = min_rest_[d + 1] + dim_price_[d][0];
  }
  if (catalog.num_rungs() > 1) {
    levels_per_rung_ =
        std::max(1, (grid_size_[0] - 1) / (catalog.num_rungs() - 1));
  }
  if (!flexible_) {
    const std::vector<ContainerSpec>& specs = catalog.specs();
    spec_price_.reserve(specs.size());
    spec_cover_.reserve(specs.size());
    for (const ContainerSpec& spec : specs) {
      spec_price_.push_back(spec.price_per_interval);
      GridLevels cover{};
      for (ResourceKind kind : container::kAllResources) {
        cover[static_cast<size_t>(kind)] =
            LevelWithin(kind, spec.resources.Get(kind));
      }
      spec_cover_.push_back(cover);
    }
  }
}

// dbscale-hot
int DiagonalOptimizer::LevelFor(ResourceKind kind, double demand) const {
  const size_t d = static_cast<size_t>(kind);
  const int n = grid_size_[d];
  for (int l = 0; l < n; ++l) {
    if (grid_value_[d][l] >= demand) return l;
  }
  return n - 1;
}

// dbscale-hot
int DiagonalOptimizer::LevelWithin(ResourceKind kind, double value) const {
  const size_t d = static_cast<size_t>(kind);
  for (int l = grid_size_[d] - 1; l >= 0; --l) {
    if (grid_value_[d][l] <= value) return l;
  }
  return 0;
}

double DiagonalOptimizer::ValueAt(ResourceKind kind, int level) const {
  const size_t d = static_cast<size_t>(kind);
  DBSCALE_CHECK(level >= 0 && level < grid_size_[d]);
  return grid_value_[d][level];
}

// dbscale-hot
DiagonalOptimizer::Target DiagonalOptimizer::Solve(
    const ResourceVector& demand, double budget) const {
  GridLevels need{};
  for (ResourceKind kind : container::kAllResources) {
    need[static_cast<size_t>(kind)] = LevelFor(kind, demand.Get(kind));
  }
  return flexible_ ? SolveFlexible(need, budget) : SolveFixed(need, budget);
}

// dbscale-hot
DiagonalOptimizer::Target DiagonalOptimizer::SolveFlexible(
    const GridLevels& need, double budget) const {
  Target t;
  // Covering bundle: because every per-dimension price component is
  // nondecreasing in level and a dominating bundle needs level >= need[d]
  // in every dimension, the bundle AT need is the cheapest dominating one.
  double cover_price = 0.0;
  for (int d = 0; d < container::kNumResources; ++d) {
    cover_price += dim_price_[d][need[d]];
  }
  if (cover_price <= budget) {
    t.levels = need;
    t.price = cover_price;
    t.feasible = true;
    return t;
  }

  // Budget binds: exact search over levels <= need for the bundle
  // minimizing (total shortfall steps, then price). Iterating each
  // dimension downward from need makes the running shortfall monotone, so
  // a partial shortfall above the best is a subtree-wide prune (break);
  // price lower bounds use the cheapest completion of the remaining
  // dimensions (min_rest_).
  int best_short = std::numeric_limits<int>::max();
  double best_price = std::numeric_limits<double>::infinity();
  GridLevels best_levels{};
  bool found = false;
  for (int l0 = need[0]; l0 >= 0; --l0) {
    const int s0 = need[0] - l0;
    if (s0 > best_short) break;
    const double q0 = dim_price_[0][l0];
    if (q0 + min_rest_[1] > budget) continue;
    if (s0 == best_short && q0 + min_rest_[1] >= best_price) continue;
    for (int l1 = need[1]; l1 >= 0; --l1) {
      const int s1 = s0 + (need[1] - l1);
      if (s1 > best_short) break;
      const double q1 = q0 + dim_price_[1][l1];
      if (q1 + min_rest_[2] > budget) continue;
      if (s1 == best_short && q1 + min_rest_[2] >= best_price) continue;
      for (int l2 = need[2]; l2 >= 0; --l2) {
        const int s2 = s1 + (need[2] - l2);
        if (s2 > best_short) break;
        const double q2 = q1 + dim_price_[2][l2];
        if (q2 + min_rest_[3] > budget) continue;
        if (s2 == best_short && q2 + min_rest_[3] >= best_price) continue;
        for (int l3 = need[3]; l3 >= 0; --l3) {
          const int s3 = s2 + (need[3] - l3);
          if (s3 > best_short) break;
          const double q3 = q2 + dim_price_[3][l3];
          if (q3 > budget) continue;
          if (s3 < best_short || (s3 == best_short && q3 < best_price)) {
            best_short = s3;
            best_price = q3;
            best_levels = {l0, l1, l2, l3};
            found = true;
          }
        }
      }
    }
  }
  if (!found) return t;  // not even the cheapest bundle fits the budget
  t.levels = best_levels;
  t.price = best_price;
  t.shortfall_steps = best_short;
  t.budget_limited = true;
  t.feasible = true;
  int worst = -1;
  for (ResourceKind kind : container::kAllResources) {
    const size_t d = static_cast<size_t>(kind);
    const int sd = need[d] - best_levels[d];
    if (sd > worst) {
      worst = sd;
      t.binding_dimension = kind;
    }
  }
  return t;
}

// dbscale-hot
DiagonalOptimizer::Target DiagonalOptimizer::SolveFixed(
    const GridLevels& need, double budget) const {
  Target t;
  const int n = static_cast<int>(spec_price_.size());
  // Fixed grids expose exactly the listed specs' per-dimension values, so
  // "spec dominates the demand" is "spec covers need in every dimension" —
  // the ascending-price scan reproduces Catalog::CheapestDominating.
  for (int i = 0; i < n; ++i) {
    if (spec_price_[i] > budget) break;  // specs are price-sorted
    const GridLevels& cover = spec_cover_[i];
    bool dominates = true;
    for (int d = 0; d < container::kNumResources; ++d) {
      if (cover[d] < need[d]) {
        dominates = false;
        break;
      }
    }
    if (dominates) {
      t.levels = cover;
      t.spec_index = i;
      t.price = spec_price_[i];
      t.feasible = true;
      return t;
    }
  }
  // Budget binds (or demand exceeds every listed spec): among affordable
  // specs minimize (total shortfall steps, then price). Ascending price
  // order makes the first spec at a given shortfall the cheapest.
  int best_short = std::numeric_limits<int>::max();
  int best_index = -1;
  for (int i = 0; i < n; ++i) {
    if (spec_price_[i] > budget) break;
    const GridLevels& cover = spec_cover_[i];
    int short_steps = 0;
    for (int d = 0; d < container::kNumResources; ++d) {
      short_steps += std::max(0, need[d] - cover[d]);
    }
    if (short_steps < best_short) {
      best_short = short_steps;
      best_index = i;
    }
  }
  if (best_index < 0) return t;
  t.levels = spec_cover_[best_index];
  t.spec_index = best_index;
  t.price = spec_price_[best_index];
  t.shortfall_steps = best_short;
  t.budget_limited = best_short > 0;
  t.feasible = true;
  int worst = -1;
  for (ResourceKind kind : container::kAllResources) {
    const size_t d = static_cast<size_t>(kind);
    const int sd = std::max(0, need[d] - t.levels[d]);
    if (sd > worst) {
      worst = sd;
      t.binding_dimension = kind;
    }
  }
  return t;
}

ContainerSpec DiagonalOptimizer::Materialize(const Target& target) const {
  DBSCALE_CHECK(target.feasible);
  if (target.spec_index >= 0) {
    return catalog_.specs()[static_cast<size_t>(target.spec_index)];
  }
  return catalog_.BundleAt(target.levels);
}

// ---------------------------------------------------------------------------
// DiagonalScaler
// ---------------------------------------------------------------------------

// Knobs and options are validated by Guardrails::Create.
// dbscale-lint: allow(options-validate)
Result<std::unique_ptr<DiagonalScaler>> DiagonalScaler::Create(
    const container::Catalog& catalog, const TenantKnobs& knobs,
    const GuardrailOptions& options) {
  DBSCALE_ASSIGN_OR_RETURN(Guardrails guardrails,
                           Guardrails::Create(catalog, knobs, options));
  return std::unique_ptr<DiagonalScaler>(
      new DiagonalScaler(catalog, std::move(guardrails)));
}

DiagonalScaler::DiagonalScaler(const container::Catalog& catalog,
                               Guardrails guardrails)
    : catalog_(catalog),
      guardrails_(std::move(guardrails)),
      optimizer_(catalog) {}

ResourceVector DiagonalScaler::UsageVector(const PolicyInput& input) const {
  if (input.usage.AnyPositive()) return input.usage;
  ResourceVector usage;
  for (ResourceKind kind : container::kAllResources) {
    usage.Set(kind, input.signals.resource(kind).utilization_pct / 100.0 *
                        input.current.resources.Get(kind));
  }
  return usage;
}

ScalingDecision DiagonalScaler::Decide(const PolicyInput& input) {
  const obs::Sink& sink = input.obs;
  const obs::SpanId diag_span = sink.trace.Start("decide.diagonal", input.now);
  ScalingDecision d = DecideUnclamped(input);
  d.demand = last_estimate_demand_;
  sink.trace.AttrStr(diag_span, "code",
                     ExplanationCodeToken(d.explanation.code));
  sink.trace.AttrStr(diag_span, "backend", catalog_.backend().backend_name());
  sink.trace.Attr(diag_span, "price", d.target.price_per_interval);
  sink.trace.End(diag_span, input.now);

  guardrails_.FinishDecision(
      input, &d,
      [this](const ContainerSpec& target,
             double budget) -> std::optional<ContainerSpec> {
        // Re-solve for the target's resources under the remaining budget —
        // on a flexible catalog this sheds exactly the binding dimensions
        // instead of dropping a whole rung.
        const DiagonalOptimizer::Target forced =
            optimizer_.Solve(target.resources, budget);
        if (!forced.feasible) return std::nullopt;
        return optimizer_.Materialize(forced);
      });

  // Remember any move that lowered a dimension (rule shed, slack shed,
  // rebalance, budget clamp): if latency breaks inside the breach window,
  // DecideUnclamped floors the shed dimensions at their pre-move levels.
  if (d.target.id != input.current.id) {
    container::GridLevels from{};
    container::GridLevels to{};
    bool any_down = false;
    for (ResourceKind kind : container::kAllResources) {
      const size_t dd = static_cast<size_t>(kind);
      from[dd] = optimizer_.LevelWithin(kind, input.current.resources.Get(kind));
      to[dd] = optimizer_.LevelWithin(kind, d.target.resources.Get(kind));
      if (to[dd] < from[dd]) any_down = true;
    }
    if (any_down) {
      last_down_interval_ = input.interval_index;
      last_down_from_ = from;
      last_down_to_ = to;
    }
  }
  return d;
}

ScalingDecision DiagonalScaler::DecideUnclamped(const PolicyInput& input) {
  const telemetry::SignalSnapshot& signals = input.signals;
  last_estimate_demand_ = ResourceVector{};

  if (std::optional<ScalingDecision> hold = guardrails_.Open(input)) {
    return *std::move(hold);
  }
  const DemandEstimate& est = guardrails_.estimate();

  // The per-resource demand vector: the allocation at which current usage
  // would sit at the target utilization. This is what the optimizer covers;
  // the Section 4 rule steps steer how far past it an up-move reaches.
  const ResourceVector usage = UsageVector(input);
  ResourceVector demand;
  for (ResourceKind kind : container::kAllResources) {
    demand.Set(kind, usage.Get(kind) / (kTargetUtilizationPct / 100.0));
  }
  last_estimate_demand_ = demand;

  GridLevels cur{};
  GridLevels util_level{};
  for (ResourceKind kind : container::kAllResources) {
    const size_t d = static_cast<size_t>(kind);
    cur[d] = optimizer_.LevelWithin(kind, input.current.resources.Get(kind));
    util_level[d] = optimizer_.LevelFor(kind, demand.Get(kind));
  }
  const int step = optimizer_.levels_per_rung();

  // Floor learning: a breach right after a down move indicts the shed
  // dimensions. Floor them at their pre-shed levels for the TTL — the
  // probe is not repeated the next time latency dips under the gate —
  // and revert immediately rather than recovering one corrective level
  // at a time (every extra interval of recovery is a missed goal).
  if (guardrails_.latency_bad() &&
      input.interval_index - last_down_interval_ <=
          kDownBreachWindowIntervals) {
    GridLevels revert = cur;
    bool grew = false;
    for (int d = 0; d < container::kNumResources; ++d) {
      if (last_down_to_[d] < last_down_from_[d]) {
        down_floor_[d] = std::max(down_floor_[d], last_down_from_[d]);
        down_floor_until_[d] = input.interval_index + kDownFloorTtlIntervals;
        const int top =
            optimizer_.grid_size(static_cast<ResourceKind>(d)) - 1;
        revert[d] = std::max(revert[d], std::min(top, last_down_from_[d]));
        if (revert[d] > cur[d]) grew = true;
      }
    }
    last_down_interval_ = -1000;
    if (grew) {
      ResourceVector want;
      for (ResourceKind kind : container::kAllResources) {
        want.Set(kind,
                 optimizer_.ValueAt(kind, revert[static_cast<size_t>(kind)]));
      }
      const DiagonalOptimizer::Target solved =
          optimizer_.Solve(want, guardrails_.AvailableBudget());
      if (solved.feasible) {
        ScalingDecision d;
        d.target = optimizer_.Materialize(solved);
        if (d.target.id != input.current.id &&
            !guardrails_.RefuseRejected(input, d.target)) {
          guardrails_.NoteScaleUp(input);
          d.explanation = Explanation(ExplanationCode::kScaleDiagonalUp,
                                      "revert: latency broke after shed");
          d.explanation.args[0] = d.target.price_per_interval;
          d.explanation.args[1] = input.current.price_per_interval;
          return d;
        }
      }
    }
  }
  // Expired floors drop back to zero.
  for (int d = 0; d < container::kNumResources; ++d) {
    if (input.interval_index >= down_floor_until_[d]) down_floor_[d] = 0;
  }

  // -------- Scale-up / rebalance path --------
  const bool perf_trigger = guardrails_.perf_trigger();
  // Wait-directed correction: per-dimension sheds can manufacture a state
  // the Section 4 rules never see on the rung ladder — latency bad, waits
  // piled on one resource, yet that resource's utilization low because the
  // queue ahead of it throttles throughput. When no rule fires, grow the
  // dimension behind the dominant wait class by one grid level.
  const DominantWait dominant = FindDominantWait(signals);
  std::optional<ResourceKind> wait_dim =
      telemetry::WaitClassResource(dominant.wait_class);
  const bool wait_directed =
      perf_trigger && !est.AnyIncrease() && wait_dim.has_value() &&
      dominant.pct >= kWaitDirectedUpMinPct &&
      cur[static_cast<size_t>(*wait_dim)] <
          optimizer_.grid_size(*wait_dim) - 1;
  const bool wants_up = perf_trigger && (est.AnyIncrease() || wait_directed);

  if (wants_up) {
    if (std::optional<ScalingDecision> hold = guardrails_.BeginUp(input)) {
      return *std::move(hold);
    }
    GridLevels need = cur;
    for (ResourceKind kind : container::kAllResources) {
      const size_t d = static_cast<size_t>(kind);
      const int top = optimizer_.grid_size(kind) - 1;
      const int steps = est.Steps(kind);
      if (wait_directed && kind == *wait_dim) {
        // One corrective level (or up to the utilization-implied demand):
        // small because it is inference from waits, not a rule hit, and
        // the next interval re-evaluates.
        need[d] = std::min(top, std::max(cur[d] + 1, util_level[d]));
      } else if (steps > 0) {
        // Grow: the rule's rung steps, or further if the utilization-implied
        // demand already sits above that.
        need[d] = std::min(top, std::max(cur[d] + steps * step, util_level[d]));
      } else if (steps == 0) {
        // A dimension without a rule hit still rises to its utilization-
        // implied level while latency is bad: bursts push several
        // dimensions at once and the rules rarely flag them all in the
        // same interval.
        need[d] = std::min(top, std::max(cur[d], util_level[d]));
      } else if (steps < 0 && util_level[d] < cur[d]) {
        // Rebalance: a dimension with an explicit low-demand rule hit may
        // shed while others grow — guarded by projected utilization.
        int cand = std::max(util_level[d], cur[d] + steps * step);
        cand = std::max(cand, std::min(cur[d], down_floor_[d]));
        cand = std::max(0, cand);
        need[d] = Guardrails::GuardShrink(
            cand, cur[d], usage.Get(kind),
            [&](int level) { return optimizer_.ValueAt(kind, level); });
      }
    }

    ResourceVector want;
    for (ResourceKind kind : container::kAllResources) {
      want.Set(kind,
               optimizer_.ValueAt(kind, need[static_cast<size_t>(kind)]));
    }
    const DiagonalOptimizer::Target solved =
        optimizer_.Solve(want, guardrails_.AvailableBudget());
    if (!solved.feasible) {
      return HoldCurrent(
          input, Explanation(ExplanationCode::kHoldNoAffordableContainer));
    }
    ScalingDecision d;
    d.target = optimizer_.Materialize(solved);
    if (d.target.id == input.current.id) {
      if (solved.budget_limited) {
        Explanation e(ExplanationCode::kHoldBudgetBindingDimension,
                      solved.binding_dimension);
        e.args[0] = static_cast<double>(solved.shortfall_steps);
        e.args[1] = guardrails_.AvailableBudget();
        return HoldCurrent(input, std::move(e));
      }
      return HoldCurrent(
          input, Explanation::WithDemand(
                     ExplanationCode::kHoldNoLargerAffordable,
                     DetailKind::kIncrease, est.rules));
    }
    if (std::optional<ScalingDecision> hold =
            guardrails_.RefuseRejected(input, d.target)) {
      return *std::move(hold);
    }
    guardrails_.NoteScaleUp(input);
    int ups = 0;
    int downs = 0;
    for (int dd = 0; dd < container::kNumResources; ++dd) {
      if (solved.levels[dd] > cur[dd]) ++ups;
      if (solved.levels[dd] < cur[dd]) ++downs;
    }
    if (solved.budget_limited) {
      const DiagonalOptimizer::Target unconstrained =
          optimizer_.Solve(want, std::numeric_limits<double>::infinity());
      d.explanation = Explanation::WithContainer(
          ExplanationCode::kScaleUpBudgetConstrained,
          optimizer_.Materialize(unconstrained).name);
      d.explanation.args[0] = unconstrained.price;
      d.explanation.args[1] = guardrails_.AvailableBudget();
    } else if (ups > 0 && downs > 0) {
      d.explanation = Explanation::WithContainer(
          ExplanationCode::kScaleDiagonalRebalance, d.target.name);
      d.explanation.args[0] = static_cast<double>(ups);
      d.explanation.args[1] = static_cast<double>(downs);
    } else {
      d.explanation =
          wait_directed
              ? Explanation::WithWait(ExplanationCode::kScaleDiagonalUp,
                                      DetailKind::kWaitDirected, dominant)
              : Explanation::WithDemand(ExplanationCode::kScaleDiagonalUp,
                                        DetailKind::kIncrease, est.rules);
      d.explanation.args[0] = d.target.price_per_interval;
      d.explanation.args[1] = input.current.price_per_interval;
    }
    return d;
  }

  if (std::optional<ScalingDecision> hold =
          guardrails_.HoldWithoutUpMove(input)) {
    return *std::move(hold);
  }

  // -------- Scale-down path --------
  // Utilization headroom is low-demand evidence of its own here: with
  // per-dimension pricing, every grid step of headroom is money on the
  // table even when no Section 4 shrink rule fires.
  bool util_at_or_below = true;
  bool util_strictly_below = false;
  for (int d = 0; d < container::kNumResources; ++d) {
    if (util_level[d] > cur[d]) util_at_or_below = false;
    if (util_level[d] < cur[d]) util_strictly_below = true;
  }
  if (std::optional<ScalingDecision> hold =
          guardrails_.HoldWithoutShrinkEvidence(
              input, util_at_or_below && util_strictly_below)) {
    return *std::move(hold);
  }
  // Shedding is only safe with latency headroom: near the goal, even a
  // one-level shed of an "idle" dimension can tip p95 over (queueing at
  // low utilization — the engine's bursty arrivals). Declining the saving
  // here is what keeps attainment at Auto's level while costing less.
  const std::optional<LatencyGoal>& goal = guardrails_.knobs().latency_goal;
  if (goal.has_value() &&
      signals.latency_ms > kDownLatencyGateRatio * goal->target_ms) {
    guardrails_.ResetLowStreak();
    return HoldCurrent(input,
                       Explanation(ExplanationCode::kHoldGoalMetSavings,
                                   "keeping latency headroom"));
  }
  if (std::optional<ScalingDecision> hold =
          guardrails_.HoldForDownPatience(input)) {
    return *std::move(hold);
  }

  // Memory shrinks on the same per-dimension evidence as everything else:
  // no balloon pass — the flexible grid's fine steps (and the projected
  // utilization guard below) bound the risk a full rung drop would carry.
  GridLevels need = cur;
  for (ResourceKind kind : container::kAllResources) {
    const size_t d = static_cast<size_t>(kind);
    int cand = cur[d];
    const int steps = est.Steps(kind);
    if (steps < 0) cand = cur[d] + steps * step;
    if (guardrails_.slack_low()) cand = std::min(cand, cur[d] - step);
    if (util_level[d] < cur[d]) {
      // Pure utilization headroom sheds at most one rung-step at a time.
      cand = std::min(cand, std::max(util_level[d], cur[d] - step));
    }
    // Sub-rung grids make small sheds cheap to take and cheap to undo;
    // descending one grid level per move keeps each step's latency impact
    // observable before the next.
    cand = std::max(cand, cur[d] - kDownMaxLevelsPerMove);
    cand = std::max(cand, std::min(cur[d], down_floor_[d]));
    cand = std::max(0, std::min(cand, cur[d]));
    need[d] = Guardrails::GuardShrink(
        cand, cur[d], usage.Get(kind),
        [&](int level) { return optimizer_.ValueAt(kind, level); });
  }

  ResourceVector want;
  for (ResourceKind kind : container::kAllResources) {
    want.Set(kind, optimizer_.ValueAt(kind, need[static_cast<size_t>(kind)]));
  }
  const DiagonalOptimizer::Target solved =
      optimizer_.Solve(want, guardrails_.AvailableBudget());
  if (!solved.feasible) {
    return HoldCurrent(
        input, Explanation(ExplanationCode::kHoldNoAffordableContainer));
  }
  ScalingDecision d;
  d.target = optimizer_.Materialize(solved);
  if (d.target.id != input.current.id) {
    if (std::optional<ScalingDecision> hold =
            guardrails_.RefuseRejected(input, d.target)) {
      return *std::move(hold);
    }
  }
  if (d.target.id == input.current.id ||
      d.target.price_per_interval >= input.current.price_per_interval) {
    return HoldCurrent(input,
                       Explanation(ExplanationCode::kHoldDemandSteady));
  }
  guardrails_.ResetLowStreak();
  d.explanation =
      est.AnyDecrease()
          ? Explanation::WithDemand(ExplanationCode::kScaleDiagonalDown,
                                    DetailKind::kDecrease, est.rules)
          : Explanation(ExplanationCode::kScaleDiagonalDown, "latency slack");
  d.explanation.args[0] = d.target.price_per_interval;
  d.explanation.args[1] = input.current.price_per_interval;
  return d;
}

}  // namespace dbscale::scaler
