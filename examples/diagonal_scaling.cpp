// Diagonal scaling: the same per-resource policy shopping two catalogs.
//
// The DiagonalScaler estimates a per-resource demand vector and buys the
// cheapest purchasable bundle covering it. What "purchasable" means comes
// from the Catalog backend: on the classic fixed-rung ladder the optimizer
// degenerates to the paper's cheapest-dominating-spec search; on the
// flexible per-dimension catalog it shops each resource's grid
// independently. Running the identical policy against both shows where the
// savings come from — not a different brain, a richer menu.
//
// The example runs an I/O-skewed mix (disk demand rungs ahead of CPU
// demand) on paper trace 2 under a p95 goal and prints the comparison
// table. ctest runs it as example_diagonal_scaling: it checks that every
// run is run-twice digest identical and that the flexible grid is cheaper
// than Auto at equal-or-better goal attainment, and exits non-zero naming
// any contract that broke.

#include <cstdio>
#include <string>

#include "examples/contracts.h"
#include "src/common/string_util.h"
#include "src/scaler/diagonal.h"
#include "src/sim/experiment.h"
#include "src/sim/report.h"
#include "src/workload/mix.h"
#include "src/workload/paper_traces.h"

using namespace dbscale;  // NOLINT: example brevity

namespace {

double Attainment(const sim::RunResult& run, double goal_ms) {
  if (run.intervals.empty()) return 0.0;
  int met = 0;
  for (const auto& interval : run.intervals) {
    if (interval.completed == 0 || interval.latency_p95_ms <= goal_ms) ++met;
  }
  return static_cast<double>(met) / static_cast<double>(run.intervals.size());
}

struct Outcome {
  uint64_t digest = 0;
  uint64_t digest_repeat = 0;
  double cost = 0.0;
  double p95_ms = 0.0;
  double attainment = 0.0;
};

Result<Outcome> RunPolicy(const sim::SimulationOptions& base,
                          const std::string& policy_name,
                          const container::Catalog& catalog,
                          const scaler::LatencyGoal& goal) {
  Outcome outcome;
  for (int rep = 0; rep < 2; ++rep) {
    sim::SimulationOptions options = base;
    options.catalog = catalog;
    scaler::TenantKnobs knobs;
    knobs.latency_goal = goal;
    DBSCALE_ASSIGN_OR_RETURN(
        auto policy, sim::MakeRegisteredPolicy(policy_name, catalog, knobs));
    DBSCALE_ASSIGN_OR_RETURN(sim::RunResult run,
                             sim::RunWithPolicy(options, policy.get(), 3));
    if (rep == 0) {
      outcome.digest = run.Digest();
      outcome.cost = run.avg_cost_per_interval;
      outcome.p95_ms = run.latency_p95_ms;
      outcome.attainment = Attainment(run, goal.target_ms);
    } else {
      outcome.digest_repeat = run.Digest();
    }
  }
  return outcome;
}

}  // namespace

int main() {
  // Disk-heavy demand: every lock-step rung overbuys CPU and memory.
  workload::CpuioOptions skew;
  skew.cpu_weight = 0.08;
  skew.io_weight = 0.77;
  skew.log_weight = 0.05;
  skew.mixed_weight = 0.10;
  sim::SimulationOptions base;
  base.workload = workload::MakeCpuioWorkload(skew);
  base.trace = *workload::MakeTrace2LongBurst().Subsampled(4);
  base.interval_duration = Duration::Seconds(20);
  base.seed = 17;
  base.catalog = container::Catalog::MakeLockStep();

  auto max_run = sim::RunMax(base);
  if (!max_run.ok()) {
    std::fprintf(stderr, "%s\n", max_run.status().ToString().c_str());
    return 1;
  }
  const scaler::LatencyGoal goal{telemetry::LatencyAggregate::kP95,
                                 2.0 * max_run->latency_p95_ms};
  base.telemetry.latency_aggregate = goal.aggregate;
  std::printf("I/O-skewed CPUIO on trace 2; goal p95 <= %.0f ms\n\n",
              goal.target_ms);

  container::FlexibleCatalogOptions fopts;
  fopts.subdivisions = 1;
  auto flexible = container::Catalog::MakeFlexible(fopts);
  if (!flexible.ok()) {
    std::fprintf(stderr, "%s\n", flexible.status().ToString().c_str());
    return 1;
  }

  struct Row {
    const char* label;
    const char* policy;
    container::Catalog catalog;
  };
  const Row rows[] = {
      {"Auto / fixed rungs", "Auto", container::Catalog::MakeLockStep()},
      {"Diagonal / fixed rungs", "Diagonal",
       container::Catalog::MakeLockStep()},
      {"Diagonal / flexible grid", "Diagonal", *flexible},
  };

  Outcome outcomes[3];
  sim::TextTable table({"configuration", "containers", "p95 ms",
                        "attainment", "cost/interval"});
  for (int i = 0; i < 3; ++i) {
    auto outcome = RunPolicy(base, rows[i].policy, rows[i].catalog, goal);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s: %s\n", rows[i].label,
                   outcome.status().ToString().c_str());
      return 1;
    }
    outcomes[i] = *outcome;
    table.AddRow({rows[i].label, StrFormat("%d", rows[i].catalog.size()),
                  StrFormat("%.0f", outcome->p95_ms),
                  StrFormat("%.1f%%", 100.0 * outcome->attainment),
                  StrFormat("%.1f", outcome->cost)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Same demand vector, richer menu: the flexible grid lets the diagonal\n"
      "policy pay for the dimensions the workload actually uses (%.0f%%\n"
      "cheaper than Auto on the rung ladder here), and every run above is\n"
      "run-twice digest identical.\n",
      100.0 * (1.0 - outcomes[2].cost / outcomes[0].cost));

  examples::Contracts contracts;
  std::printf("\n");
  for (int i = 0; i < 3; ++i) {
    contracts.Check(outcomes[i].digest == outcomes[i].digest_repeat,
                    StrFormat("%s is run-twice bit-identical (digest %016llx)",
                              rows[i].label,
                              (unsigned long long)outcomes[i].digest));
  }
  contracts.Check(outcomes[2].cost < outcomes[0].cost &&
                      outcomes[2].attainment >= outcomes[0].attainment,
                  "the flexible grid is cheaper than Auto at equal-or-better "
                  "goal attainment");
  return contracts.ExitCode();
}
