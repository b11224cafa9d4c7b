// Ablation study (DESIGN.md): which signal families earn their keep?
//
// Runs Auto on CPUIO/Trace2 and TPC-C/Trace4 with signal families disabled:
//   full          — waits + trends + correlation (the paper's estimator)
//   no-corr       — drop Spearman correlation rules
//   no-trends     — drop Theil-Sen trend rules
//   util-only     — drop wait statistics entirely (reduces the estimator
//                   to what generic autoscalers see)
// Reports cost and p95 against the same goal. The paper's thesis predicts
// util-only degrades markedly (especially on the lock-bound TPC-C).

#include "bench/bench_common.h"
#include "src/fleet/calibrator.h"
#include "src/fleet/fleet_sim.h"
#include "src/scaler/autoscaler.h"

using namespace dbscale;

namespace {

struct Variant {
  const char* name;
  scaler::DemandEstimatorOptions estimator;
  std::optional<scaler::SignalThresholds> thresholds;
};

/// Thresholds derived by the Section 4.1 pipeline from fleet telemetry.
scaler::SignalThresholds FleetCalibratedThresholds() {
  container::Catalog catalog = container::Catalog::MakeLockStep();
  fleet::FleetOptions options;
  options.num_tenants = 400;
  options.num_intervals = 3 * 288;
  options.seed = 5;
  auto fleet = fleet::FleetSimulator(catalog, options).Run();
  DBSCALE_CHECK_OK(fleet.status());
  auto thresholds = fleet::ThresholdCalibrator().Calibrate(*fleet);
  DBSCALE_CHECK_OK(thresholds.status());
  return *thresholds;
}

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  variants.push_back({"full", {}, std::nullopt});
  scaler::DemandEstimatorOptions no_corr;
  no_corr.use_correlation = false;
  variants.push_back({"no-corr", no_corr, std::nullopt});
  scaler::DemandEstimatorOptions no_trends;
  no_trends.use_trends = false;
  variants.push_back({"no-trends", no_trends, std::nullopt});
  scaler::DemandEstimatorOptions util_only;
  util_only.use_waits = false;
  util_only.use_trends = false;
  util_only.use_correlation = false;
  variants.push_back({"util-only", util_only, std::nullopt});
  // The calibrated thresholds describe the *fleet model's* wait
  // distributions (DESIGN.md §7), so this row quantifies the cost of
  // deploying them on the DES engine unadjusted.
  variants.push_back(
      {"fleet-calibrated", {}, FleetCalibratedThresholds()});
  return variants;
}

void RunAblation(const char* title, sim::SimulationOptions options,
                 double goal_factor) {
  auto max_run = sim::RunMax(options);
  DBSCALE_CHECK_OK(max_run.status());
  scaler::LatencyGoal goal{telemetry::LatencyAggregate::kP95,
                           goal_factor * max_run->latency_p95_ms};
  options.telemetry.latency_aggregate = goal.aggregate;

  std::printf("\n%s (goal p95 <= %.0f ms):\n", title, goal.target_ms);
  sim::TextTable table(
      {"variant", "p95 ms", "meets goal", "cost/interval", "changes %"});
  for (const Variant& variant : Variants()) {
    scaler::TenantKnobs knobs;
    knobs.latency_goal = goal;
    scaler::GuardrailOptions scaler_options;
    scaler_options.estimator = variant.estimator;
    if (variant.thresholds.has_value()) {
      scaler_options.thresholds = *variant.thresholds;
    }
    auto scaler =
        scaler::AutoScaler::Create(options.catalog, knobs, scaler_options);
    DBSCALE_CHECK_OK(scaler.status());
    auto run = sim::RunWithPolicy(options, scaler->get(), 3);
    DBSCALE_CHECK_OK(run.status());
    table.AddRow({variant.name, StrFormat("%.0f", run->latency_p95_ms),
                  run->latency_p95_ms <= goal.target_ms ? "yes" : "NO",
                  StrFormat("%.1f", run->avg_cost_per_interval),
                  StrFormat("%.1f", 100.0 * run->change_fraction)});
  }
  std::printf("%s", table.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Ablation", "Auto with signal families disabled");

  RunAblation("CPUIO on Trace 2",
              bench::MakeSetup(workload::MakeCpuioWorkload(),
                               workload::MakeTrace2LongBurst(), args),
              1.25);
  RunAblation("TPC-C on Trace 4",
              bench::MakeSetup(workload::MakeTpccWorkload(),
                               workload::MakeTrace4ManyBursts(), args),
              1.25);
  std::printf(
      "\nshape check: on the resource-bound workload (CPUIO) the full\n"
      "estimator is the cheapest variant that still meets the goal —\n"
      "dropping correlation, trends, or waits saves a few units but buys\n"
      "the wrong containers at the wrong times and violates the goal. On\n"
      "the lock-bound TPC-C every estimator variant correctly refuses to\n"
      "chase latency (cost is flat); the contrast there is with the Util\n"
      "*baseline* (see Figure 10/13), whose latency-driven rules\n"
      "over-scale by ~2x.\n");
  return 0;
}
