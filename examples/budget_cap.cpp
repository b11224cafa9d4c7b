// Budget-capped auto-scaling: a tenant with a hard monthly budget.
//
// Shows the token-bucket budget manager (paper Section 5) in action: the
// same bursty workload is run with a generous and a tight budget, under
// both bursting strategies. The tight budget forces the scaler to ride out
// part of the burst on smaller containers — and the total spend never
// exceeds the budget.

#include <cstdio>

#include "src/common/string_util.h"
#include "src/sim/experiment.h"
#include "src/sim/report.h"
#include "src/sim/sim_config.h"
#include "src/workload/mix.h"
#include "src/workload/paper_traces.h"

using namespace dbscale;  // NOLINT: example brevity

namespace {

Result<sim::RunResult> RunWithBudget(const sim::SimulationOptions& options,
                                     const scaler::LatencyGoal& goal,
                                     double budget,
                                     scaler::BudgetStrategy strategy) {
  // SimConfig bundles harness options, tenant knobs, and scaler internals
  // into one validated value.
  SimConfig config;
  config.simulation = options;
  config.simulation.initial_rung = 2;
  config.knobs.latency_goal = goal;
  config.knobs.budget = scaler::BudgetKnob{
      budget, static_cast<int>(options.trace.num_steps())};
  config.scaler.budget_strategy = strategy;
  DBSCALE_ASSIGN_OR_RETURN(sim::SimConfigRun run, config.Run());
  return std::move(run.result);
}

}  // namespace

int main() {
  sim::SimulationOptions options;
  options.catalog = container::Catalog::MakeLockStep();
  options.workload = workload::MakeCpuioWorkload();
  options.trace = *workload::MakeTrace2LongBurst().Subsampled(4);
  options.interval_duration = Duration::Seconds(20);
  options.seed = 23;
  const int n = static_cast<int>(options.trace.num_steps());

  auto max_run = sim::RunMax(options);
  if (!max_run.ok()) {
    std::fprintf(stderr, "%s\n", max_run.status().ToString().c_str());
    return 1;
  }
  scaler::LatencyGoal goal{telemetry::LatencyAggregate::kP95,
                           1.5 * max_run->latency_p95_ms};
  options.telemetry.latency_aggregate = goal.aggregate;
  std::printf("trace: %d intervals; latency goal p95 <= %.0f ms\n", n,
              goal.target_ms);

  struct Scenario {
    const char* name;
    double budget;
    scaler::BudgetStrategy strategy;
  };
  const double generous = 150.0 * n;
  const double tight = 35.0 * n;
  const Scenario scenarios[] = {
      {"generous/aggressive", generous,
       scaler::BudgetStrategy::kAggressive},
      {"tight/aggressive", tight, scaler::BudgetStrategy::kAggressive},
      {"tight/conservative", tight,
       scaler::BudgetStrategy::kConservative},
  };

  sim::TextTable table({"scenario", "budget", "spent", "p95 ms",
                        "meets goal", "budget-capped intervals"});
  for (const Scenario& s : scenarios) {
    auto run = RunWithBudget(options, goal, s.budget, s.strategy);
    if (!run.ok()) {
      std::fprintf(stderr, "%s: %s\n", s.name,
                   run.status().ToString().c_str());
      return 1;
    }
    int capped = 0;
    for (const auto& interval : run->intervals) {
      if (interval.decision_explanation.find("budget") !=
          std::string::npos) {
        ++capped;
      }
    }
    table.AddRow({s.name, StrFormat("%.0f", s.budget),
                  StrFormat("%.0f", run->total_cost),
                  StrFormat("%.0f", run->latency_p95_ms),
                  run->latency_p95_ms <= goal.target_ms ? "yes" : "no",
                  StrFormat("%d", capped)});
    if (run->total_cost > s.budget) {
      std::fprintf(stderr, "BUDGET VIOLATED in %s\n", s.name);
      return 1;
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("The budget is a hard constraint: spend never exceeds it, at\n"
              "the price of latency during bursts the budget cannot cover.\n");
  return 0;
}
