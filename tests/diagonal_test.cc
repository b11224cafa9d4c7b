// Diagonal scaling: optimizer exactness against brute force, fixed-path
// equivalence with Catalog::CheapestDominating, the catalog-backend
// equivalence contract (a coupled FlexibleCatalog is bit-identical to
// MakeLockStep under Auto), Validate() rejections, determinism of full
// diagonal runs, and pinned decision trails of both policies through
// every guardrail branch.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/fnv.h"
#include "src/container/catalog.h"
#include "src/obs/export.h"
#include "src/obs/pipeline.h"
#include "src/scaler/autoscaler.h"
#include "src/scaler/diagonal.h"
#include "src/sim/experiment.h"
#include "src/sim/sim_config.h"
#include "src/workload/mix.h"
#include "src/workload/paper_traces.h"

namespace dbscale {
namespace {

using container::Catalog;
using container::ContainerSpec;
using container::FlexibleCatalogOptions;
using container::GridLevels;
using container::ResourceKind;
using container::ResourceVector;
using scaler::DiagonalOptimizer;
using scaler::DiagonalScaler;
using scaler::ExplanationCode;

// ---------------------------------------------------------------------------
// Optimizer exactness.
// ---------------------------------------------------------------------------

struct BruteResult {
  int shortfall = 0;
  double price = 0.0;
  bool feasible = false;
  bool budget_limited = false;
};

// Exhaustive reference: enumerate every grid combination, keep the
// cheapest dominating bundle within budget, else the affordable bundle
// minimizing (total shortfall steps, then price).
BruteResult BruteForce(const Catalog& catalog, const ResourceVector& demand,
                       double budget) {
  GridLevels need{};
  for (ResourceKind kind : container::kAllResources) {
    need[static_cast<size_t>(kind)] = catalog.GridLevelFor(
        kind, demand.Get(kind));
  }
  BruteResult best;
  int best_short = std::numeric_limits<int>::max();
  double best_price = std::numeric_limits<double>::infinity();
  const int n = catalog.GridSize(ResourceKind::kCpu);
  GridLevels levels{};
  for (levels[0] = 0; levels[0] < n; ++levels[0]) {
    for (levels[1] = 0; levels[1] < n; ++levels[1]) {
      for (levels[2] = 0; levels[2] < n; ++levels[2]) {
        for (levels[3] = 0; levels[3] < n; ++levels[3]) {
          const double price = catalog.BundlePrice(levels);
          if (price > budget) continue;
          int shortfall = 0;
          for (int d = 0; d < container::kNumResources; ++d) {
            shortfall += std::max(0, need[d] - levels[d]);
          }
          if (shortfall < best_short ||
              (shortfall == best_short && price < best_price)) {
            best_short = shortfall;
            best_price = price;
            best.feasible = true;
          }
        }
      }
    }
  }
  if (!best.feasible) return best;
  best.shortfall = best_short;
  best.price = best_price;
  best.budget_limited = best_short > 0;
  return best;
}

TEST(DiagonalOptimizerTest, MatchesBruteForceOnRandomizedGrids) {
  std::mt19937 rng(20260807u);
  for (const int max_rungs : {2, 3, 5}) {
    for (const int subdivisions : {0, 1, 2}) {
      FlexibleCatalogOptions fopts;
      fopts.max_rungs = max_rungs;
      fopts.subdivisions = subdivisions;
      auto catalog = Catalog::MakeFlexible(fopts);
      ASSERT_TRUE(catalog.ok()) << catalog.status().message();
      DiagonalOptimizer optimizer(*catalog);
      const double min_price = catalog->smallest().price_per_interval;
      const double max_price = catalog->largest().price_per_interval;
      std::uniform_real_distribution<double> budget_dist(0.5 * min_price,
                                                         1.3 * max_price);
      std::uniform_real_distribution<double> frac(0.0, 1.3);
      for (int trial = 0; trial < 60; ++trial) {
        ResourceVector demand;
        for (ResourceKind kind : container::kAllResources) {
          demand.Set(kind, frac(rng) * catalog->largest().resources.Get(kind));
        }
        const double budget = budget_dist(rng);
        const DiagonalOptimizer::Target got =
            optimizer.Solve(demand, budget);
        const BruteResult want = BruteForce(*catalog, demand, budget);
        ASSERT_EQ(got.feasible, want.feasible)
            << "rungs=" << max_rungs << " sub=" << subdivisions
            << " trial=" << trial;
        if (!want.feasible) continue;
        EXPECT_EQ(got.shortfall_steps, want.shortfall);
        EXPECT_DOUBLE_EQ(got.price, want.price);
        EXPECT_EQ(got.budget_limited, want.budget_limited);
        EXPECT_LE(got.price, budget);
      }
    }
  }
}

TEST(DiagonalOptimizerTest, FixedPathMatchesCheapestDominating) {
  std::mt19937 rng(7u);
  for (const Catalog& catalog :
       {Catalog::MakeLockStep(), Catalog::MakePerDimension()}) {
    DiagonalOptimizer optimizer(catalog);
    ASSERT_FALSE(optimizer.flexible());
    std::uniform_real_distribution<double> frac(0.0, 1.0);
    for (int trial = 0; trial < 200; ++trial) {
      ResourceVector demand;
      for (ResourceKind kind : container::kAllResources) {
        demand.Set(kind, frac(rng) * catalog.largest().resources.Get(kind));
      }
      const ContainerSpec want = catalog.CheapestDominating(demand);
      const DiagonalOptimizer::Target got = optimizer.Solve(
          demand, std::numeric_limits<double>::infinity());
      ASSERT_TRUE(got.feasible);
      EXPECT_EQ(optimizer.Materialize(got).id, want.id) << want.name;
      EXPECT_FALSE(got.budget_limited);
    }
    // Budgeted: whenever a dominating spec is affordable the two searches
    // agree exactly.
    for (int trial = 0; trial < 200; ++trial) {
      ResourceVector demand;
      for (ResourceKind kind : container::kAllResources) {
        demand.Set(kind,
                   0.6 * frac(rng) * catalog.largest().resources.Get(kind));
      }
      const double budget =
          catalog.smallest().price_per_interval +
          frac(rng) * (catalog.largest().price_per_interval -
                       catalog.smallest().price_per_interval);
      auto want = catalog.CheapestDominating(demand, budget);
      const DiagonalOptimizer::Target got = optimizer.Solve(demand, budget);
      if (want.ok() && want->resources.Dominates(demand)) {
        ASSERT_TRUE(got.feasible);
        EXPECT_EQ(got.shortfall_steps, 0);
        EXPECT_EQ(optimizer.Materialize(got).id, want->id);
      }
    }
  }
}

TEST(DiagonalOptimizerTest, ReportsBindingDimensionUnderTightBudget) {
  FlexibleCatalogOptions fopts;
  auto catalog = Catalog::MakeFlexible(fopts);
  ASSERT_TRUE(catalog.ok());
  DiagonalOptimizer optimizer(*catalog);
  // Demand the top of every dimension with only a mid-range budget: the
  // solve must be feasible, budget-limited, and attribute the shortfall.
  const ResourceVector demand = catalog->largest().resources;
  const DiagonalOptimizer::Target t = optimizer.Solve(demand, 60.0);
  ASSERT_TRUE(t.feasible);
  EXPECT_TRUE(t.budget_limited);
  EXPECT_GT(t.shortfall_steps, 0);
  EXPECT_LE(t.price, 60.0);
  // Not even the cheapest bundle fits: infeasible, never a crash.
  const DiagonalOptimizer::Target broke = optimizer.Solve(demand, 0.01);
  EXPECT_FALSE(broke.feasible);
}

TEST(DiagonalOptimizerTest, DiagonalBundlePricesMatchRungsExactly) {
  FlexibleCatalogOptions fopts;
  fopts.subdivisions = 2;
  auto catalog = Catalog::MakeFlexible(fopts);
  ASSERT_TRUE(catalog.ok());
  const Catalog lockstep = Catalog::MakeLockStep();
  const int step = 3;  // subdivisions + 1 grid levels per rung
  for (int r = 0; r < lockstep.num_rungs(); ++r) {
    GridLevels diag{};
    for (int d = 0; d < container::kNumResources; ++d) diag[d] = r * step;
    // Separable components re-sum to the rung price bit for bit, and the
    // diagonal bundle materializes as the listed rung spec.
    EXPECT_DOUBLE_EQ(catalog->BundlePrice(diag),
                     lockstep.rung(r).price_per_interval);
    const ContainerSpec bundle = catalog->BundleAt(diag);
    EXPECT_EQ(bundle.name, lockstep.rung(r).name);
    EXPECT_EQ(bundle.price_per_interval,
              lockstep.rung(r).price_per_interval);
  }
  // Off-diagonal bundles synthesize deterministic ids past the listed
  // specs and price as the sum of their components.
  GridLevels off{};
  off[0] = 4;
  off[1] = 1;
  off[2] = 0;
  off[3] = 2;
  const ContainerSpec a = catalog->BundleAt(off);
  const ContainerSpec b = catalog->BundleAt(off);
  EXPECT_EQ(a.id, b.id);
  EXPECT_GE(a.id, catalog->size());
  EXPECT_DOUBLE_EQ(a.price_per_interval, catalog->BundlePrice(off));
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

TEST(FlexibleCatalogOptionsTest, ValidateRejections) {
  FlexibleCatalogOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.max_rungs = 1;
  EXPECT_FALSE(opts.Validate().ok());
  opts = {};
  opts.max_rungs = 12;
  EXPECT_FALSE(opts.Validate().ok());
  opts = {};
  opts.subdivisions = -1;
  EXPECT_FALSE(opts.Validate().ok());
  opts = {};
  opts.subdivisions = 4;
  EXPECT_FALSE(opts.Validate().ok());
  opts = {};
  opts.price_markup = 0.0;
  EXPECT_FALSE(opts.Validate().ok());
  EXPECT_FALSE(Catalog::MakeFlexible(opts).ok());
}

SimConfig BaseSimConfig() {
  SimConfig config;
  config.simulation.catalog = container::Catalog::MakeLockStep();
  config.simulation.workload = workload::MakeCpuioWorkload();
  config.simulation.trace = *workload::MakeTrace2LongBurst().Subsampled(4);
  config.simulation.interval_duration = Duration::Seconds(20);
  config.simulation.seed = 17;
  config.simulation.initial_rung = 3;
  config.knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 900.0};
  return config;
}

TEST(DiagonalOptionsTest, ValidateRejections) {
  scaler::GuardrailOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  scaler::TenantKnobs knobs;
  auto catalog = Catalog::MakeFlexible(FlexibleCatalogOptions{});
  ASSERT_TRUE(catalog.ok());
  EXPECT_TRUE(DiagonalScaler::Create(*catalog, knobs, opts).ok());

  // Both policies and SimConfig validate the one shared option set, so
  // each rejection holds on every entry point.
  ASSERT_TRUE(BaseSimConfig().Validate().ok());
  void (*const mutations[])(scaler::GuardrailOptions*) = {
      [](scaler::GuardrailOptions* g) {
        g->thresholds.correlation_significant = 0.0;
      },
      [](scaler::GuardrailOptions* g) { g->budget_conservative_k = 0; },
  };
  for (size_t i = 0; i < std::size(mutations); ++i) {
    opts = {};
    mutations[i](&opts);
    EXPECT_FALSE(opts.Validate().ok()) << i;
    EXPECT_FALSE(DiagonalScaler::Create(*catalog, knobs, opts).ok()) << i;
    EXPECT_FALSE(scaler::AutoScaler::Create(*catalog, knobs, opts).ok())
        << i;
    SimConfig config = BaseSimConfig();
    mutations[i](&config.scaler);
    EXPECT_FALSE(config.Validate().ok()) << i;
  }
}

// ---------------------------------------------------------------------------
// Closed-loop contracts.
// ---------------------------------------------------------------------------

// The catalog-backend equivalence contract: Auto over a coupled
// FlexibleCatalog (markup 1) is bit-identical to Auto over MakeLockStep,
// whose digest SimDigestTest.NullCpuioRunPinned pins.
TEST(DiagonalSimTest, CoupledFlexibleCatalogReproducesLockStepDigest) {
  auto lockstep_run = BaseSimConfig().Run();
  ASSERT_TRUE(lockstep_run.ok()) << lockstep_run.status().message();
  EXPECT_EQ(lockstep_run->result.Digest(), 0x2b4227551f4cf98eULL);

  FlexibleCatalogOptions coupled;
  coupled.coupled = true;
  auto coupled_catalog = Catalog::MakeFlexible(coupled);
  ASSERT_TRUE(coupled_catalog.ok());
  EXPECT_FALSE(coupled_catalog->flexible());
  SimConfig config = BaseSimConfig();
  config.simulation.catalog = *coupled_catalog;
  auto coupled_run = config.Run();
  ASSERT_TRUE(coupled_run.ok()) << coupled_run.status().message();
  EXPECT_EQ(coupled_run->result.Digest(), 0x2b4227551f4cf98eULL);
}

sim::SimulationOptions DiagonalSimOptions(const Catalog& catalog) {
  SimConfig config = BaseSimConfig();
  config.simulation.catalog = catalog;
  return config.EffectiveSimulationOptions();
}

TEST(DiagonalSimTest, DiagonalRunIsDeterministicAndUsesDiagonalCodes) {
  FlexibleCatalogOptions fopts;
  fopts.subdivisions = 1;
  auto catalog = Catalog::MakeFlexible(fopts);
  ASSERT_TRUE(catalog.ok());
  scaler::TenantKnobs knobs;
  knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 900.0};

  uint64_t first_digest = 0;
  for (int repeat = 0; repeat < 2; ++repeat) {
    auto policy = DiagonalScaler::Create(*catalog, knobs);
    ASSERT_TRUE(policy.ok()) << policy.status().message();
    auto run = sim::RunWithPolicy(DiagonalSimOptions(*catalog),
                                  policy->get(), 3);
    ASSERT_TRUE(run.ok()) << run.status().message();
    const uint64_t digest = run->Digest();
    if (repeat == 0) {
      first_digest = digest;
      bool saw_diagonal_move = false;
      for (const auto& interval : run->intervals) {
        if (interval.decision_code == ExplanationCode::kScaleDiagonalUp ||
            interval.decision_code == ExplanationCode::kScaleDiagonalDown ||
            interval.decision_code ==
                ExplanationCode::kScaleDiagonalRebalance) {
          saw_diagonal_move = true;
          break;
        }
      }
      EXPECT_TRUE(saw_diagonal_move);
      // Every decision fills the demand vector once signals warm up.
      EXPECT_GT((*policy)->audit().size(), 0u);
    } else {
      EXPECT_EQ(digest, first_digest);
    }
  }
}

// A diagonal run must never violate the budget: the hard clamp holds
// interval cost within the token bucket.
TEST(DiagonalSimTest, BudgetIsAHardConstraint) {
  FlexibleCatalogOptions fopts;
  auto catalog = Catalog::MakeFlexible(fopts);
  ASSERT_TRUE(catalog.ok());
  scaler::TenantKnobs knobs;
  knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 900.0};
  const sim::SimulationOptions options = DiagonalSimOptions(*catalog);
  const int intervals = static_cast<int>(options.trace.num_steps());
  scaler::BudgetKnob budget;
  budget.num_intervals = intervals;
  // Enough for a mid-size bundle on average, far below the burst's demand.
  budget.total_budget = 40.0 * intervals;
  knobs.budget = budget;
  auto policy = DiagonalScaler::Create(*catalog, knobs);
  ASSERT_TRUE(policy.ok()) << policy.status().message();
  auto run = sim::RunWithPolicy(options, policy->get(), 3);
  ASSERT_TRUE(run.ok()) << run.status().message();
  double total_cost = 0.0;
  for (const auto& interval : run->intervals) total_cost += interval.cost;
  EXPECT_LE(total_cost, budget.total_budget + 1e-9);
}

// FNV-1a over each interval's container id, decision code, rendered
// explanation and resize flag: the whole decision trail of a run.
uint64_t DecisionTrailDigest(const sim::RunResult& run) {
  Fnv64Stream h;
  for (const sim::IntervalRecord& interval : run.intervals) {
    h.I32(interval.container.id);
    h.I32(static_cast<int32_t>(interval.decision_code));
    h.Bytes(interval.decision_explanation.data(),
            interval.decision_explanation.size());
    h.I32(interval.resized ? 1 : 0);
  }
  return h.value;
}

// The configs that reach every guardrail branch: feedback holds, retries
// with backoff, abandons, rejection cooldowns, budget clamps and
// migrations. Each runs 360 intervals.
struct GuardrailCase {
  const char* name;
  void (*apply)(SimConfig*, int intervals);
  bool observed = false;
};
const GuardrailCase kGuardrailCases[] = {
    {"null", [](SimConfig*, int) {}},
    {"acceptance",
     [](SimConfig* c, int) {
       c->simulation.fault.resize.failure_probability = 0.1;
       c->simulation.fault.resize.min_latency_intervals = 1;
       c->simulation.fault.resize.max_latency_intervals = 2;
     },
     true},
    {"always-failing",
     [](SimConfig* c, int) {
       c->simulation.fault.resize.failure_probability = 1.0;
     }},
    {"fail-and-reject",
     [](SimConfig* c, int) {
       c->simulation.fault.resize.failure_probability = 0.1;
       c->simulation.fault.resize.rejection_probability = 0.2;
     }},
    {"budget",
     [](SimConfig* c, int n) {
       c->knobs.budget = scaler::BudgetKnob{40.0 * n, n};
     }},
    {"hot-host",
     [](SimConfig* c, int) {
       c->simulation.host.num_hosts = 2;
       c->simulation.host.hot_hosts = 1;
       c->simulation.host.hot_extra.cpu_cores = 12.5;
       c->simulation.host.migration_latency_intervals = 2;
       c->simulation.host.migration_downtime_intervals = 1;
     }},
};
constexpr size_t kNumGuardrailCases = std::size(kGuardrailCases);

// One guardrail case run under Auto on the lock-step catalog or Diagonal on
// the flexible grid, with the policy kept so its audit log can be read.
struct GuardrailRun {
  std::unique_ptr<scaler::ScalingPolicy> policy;
  const scaler::AuditLog* audit = nullptr;
  sim::RunResult result;
};

GuardrailRun RunGuardrailCase(const GuardrailCase& c, bool diagonal,
                              obs::Observability* ob) {
  FlexibleCatalogOptions fopts;
  fopts.subdivisions = 1;
  const Catalog flexible = Catalog::MakeFlexible(fopts).value();
  const int intervals =
      static_cast<int>(BaseSimConfig().simulation.trace.num_steps());
  SimConfig config = BaseSimConfig();
  if (diagonal) config.simulation.catalog = flexible;
  c.apply(&config, intervals);
  DBSCALE_CHECK(config.Validate().ok());
  sim::SimulationOptions options = config.EffectiveSimulationOptions();
  if (c.observed) options.obs = ob;
  GuardrailRun out;
  if (diagonal) {
    auto made = DiagonalScaler::Create(flexible, config.knobs).value();
    out.audit = &made->audit();
    out.policy = std::move(made);
  } else {
    auto made = scaler::AutoScaler::Create(config.simulation.catalog,
                                           config.knobs, config.scaler)
                    .value();
    out.audit = &made->audit();
    out.policy = std::move(made);
  }
  out.result = sim::Simulation(options).Run(out.policy.get()).value();
  return out;
}

uint64_t TextDigest(const std::string& text) {
  Fnv64Stream h;
  h.Bytes(text.data(), text.size());
  return h.value;
}

// Both policies' decision trails under every guardrail case. One faulty run
// per policy is observed, pinning its metrics and span exports too.
TEST(DiagonalSimTest, GuardrailDecisionTrailsArePinned) {
  ASSERT_EQ(BaseSimConfig().simulation.trace.num_steps(), 360u);
  // Per case, Auto then Diagonal.
  const std::array<std::array<uint64_t, 2>, kNumGuardrailCases> trails = {{
      {0x8a0338153fbf7f5eULL, 0x2bff72a80c8b9cc7ULL},
      {0xecb142dbb491db4cULL, 0x7d7b47214e14ab46ULL},
      {0xbf2a8b7f02f4201eULL, 0x2efa5d40cb8367fbULL},
      {0x39b5a855b5de514bULL, 0x38808ce0d5d8a9f9ULL},
      {0x8965c3e0f54a9b64ULL, 0xe8f4ef13ed867386ULL},
      {0x247bd10dc7033d8bULL, 0x066abd7fe5e6c320ULL},
  }};
  const std::array<uint64_t, 2> observed_metrics = {0x018db21e3dd9060fULL,
                                                   0x00355947efd601d4ULL};
  const std::array<uint64_t, 2> observed_trace = {0x5c4c69c887939666ULL,
                                                 0x1086ff8bab021342ULL};

  for (size_t i = 0; i < kNumGuardrailCases; ++i) {
    const GuardrailCase& c = kGuardrailCases[i];
    for (const bool diagonal : {false, true}) {
      obs::Observability ob;
      const GuardrailRun run = RunGuardrailCase(c, diagonal, &ob);
      const size_t p = diagonal ? 1 : 0;
      EXPECT_EQ(DecisionTrailDigest(run.result), trails[i][p])
          << c.name << (diagonal ? " / Diagonal" : " / Auto");
      if (c.observed) {
        EXPECT_EQ(obs::MetricsDigest(ob.registry(), ob.primary()),
                  observed_metrics[p]);
        EXPECT_EQ(obs::TraceDigest(ob.trace()), observed_trace[p]);
      }
    }
  }
}

// The audit log's text and CSV renderings of the same runs. Each run's 360
// records fit in the log, so the digests cover every decision's record.
TEST(DiagonalSimTest, GuardrailAuditRenderingsArePinned) {
  // Per case: Auto text, Auto CSV, Diagonal text, Diagonal CSV.
  const std::array<std::array<uint64_t, 4>, kNumGuardrailCases> pins = {{
      {0xb108eb104fa7329dULL, 0xc908fca75f1863e1ULL, 0x8b2ccb39a9a32b6cULL,
       0x7feb5b7a70fe4fd6ULL},
      {0xe062f46998ee795fULL, 0x05c28d1c968d0177ULL, 0x0dca1454e4d25fc8ULL,
       0x61fa6b1f7cc4dfcfULL},
      {0xb318e0903740f539ULL, 0xf203cf5386aa6315ULL, 0xb6607dbf0176264fULL,
       0x9043dc2700c822f8ULL},
      {0xd064b264441f1bb2ULL, 0xc4bd8076b3b30a32ULL, 0x57207632ebe57173ULL,
       0xaebe29543ba56d23ULL},
      {0x2d3fe416e23821d2ULL, 0x1fef3f1c283c0b45ULL, 0x40dbc60327ac51f4ULL,
       0xc41394cf61d766f7ULL},
      {0x657e24dc0364c7f2ULL, 0xe50af2b1b0c5e98aULL, 0x31a6f9ebc392a218ULL,
       0xd9159f633ac5e750ULL},
  }};
  for (size_t i = 0; i < kNumGuardrailCases; ++i) {
    const GuardrailCase& c = kGuardrailCases[i];
    for (const bool diagonal : {false, true}) {
      obs::Observability ob;
      const GuardrailRun run = RunGuardrailCase(c, diagonal, &ob);
      ASSERT_EQ(run.audit->size(), run.result.intervals.size()) << c.name;
      const size_t p = diagonal ? 2 : 0;
      const uint64_t text = TextDigest(run.audit->ToString());
      const uint64_t csv = TextDigest(run.audit->ToCsv());
      EXPECT_EQ(text, pins[i][p])
          << c.name << (diagonal ? " / Diagonal" : " / Auto") << " text";
      EXPECT_EQ(csv, pins[i][p + 1])
          << c.name << (diagonal ? " / Diagonal" : " / Auto") << " csv";
    }
  }
}

TEST(RegisteredPolicyTest, MakesEveryRegisteredPolicy) {
  const Catalog catalog = Catalog::MakeLockStep();
  scaler::TenantKnobs knobs;
  knobs.latency_goal =
      scaler::LatencyGoal{telemetry::LatencyAggregate::kP95, 900.0};
  for (const std::string& name : sim::RegisteredPolicyNames()) {
    auto policy = sim::MakeRegisteredPolicy(name, catalog, knobs);
    ASSERT_TRUE(policy.ok()) << name << ": " << policy.status().message();
    EXPECT_EQ((*policy)->name(), name);
  }
  EXPECT_FALSE(sim::MakeRegisteredPolicy("Peak", catalog, knobs).ok());
  scaler::TenantKnobs no_goal;
  EXPECT_FALSE(sim::MakeRegisteredPolicy("Util", catalog, no_goal).ok());
  EXPECT_TRUE(sim::MakeRegisteredPolicy("Auto", catalog, no_goal).ok());
}

}  // namespace
}  // namespace dbscale
